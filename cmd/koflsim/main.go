// Command koflsim runs one simulated k-out-of-ℓ exclusion system and prints
// its metrics: topology, variant, workload and fault injection are all
// selectable from flags, and every run is reproducible from its seed.
//
// Fault injection comes in two strengths: -faults throws the run into a
// fully arbitrary initial configuration (Theorem 1's universal quantifier),
// and -adversary attaches a declarative fault scenario — a built-in name
// (`koflcampaign scenarios` lists them) or a script file — executed by the
// internal/adversary engine.
//
// Exit codes follow the koflcampaign convention: 2 with a usage hint for
// malformed flags or flag combinations, 1 for runtime errors, 0 on success.
//
// Examples:
//
//	koflsim -topo star -n 16 -k 2 -l 5 -steps 200000
//	koflsim -topo paper -k 3 -l 5 -faults -steps 500000
//	koflsim -topo chain -n 8 -variant naive -need 2 -steps 100000
//	koflsim -topo star -n 16 -k 2 -l 5 -adversary targeted-root-killer
//	koflsim -topo paper -k 3 -l 5 -adversary scenario.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kofl"
	"kofl/internal/adversary"
	"kofl/internal/core"
	"kofl/internal/tree"
)

func parseVariant(s string) (kofl.Variant, error) {
	switch s {
	case "full", "":
		return kofl.FullProtocol, nil
	case "naive":
		return kofl.NaiveVariant, nil
	case "pusher":
		return kofl.PusherVariant, nil
	case "nonstab", "non-stabilizing":
		return kofl.NonStabilizingVariant, nil
	default:
		return 0, usageError(fmt.Sprintf("unknown variant %q (full|naive|pusher|nonstab)", s))
	}
}

// loadScenario resolves -adversary: a built-in scenario name, else a script
// file parsed by the adversary engine.
func loadScenario(arg string) (*adversary.Script, error) {
	if sc, ok := adversary.Lookup(arg); ok {
		return sc, nil
	}
	raw, err := os.ReadFile(arg)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, usageError(fmt.Sprintf("-adversary %q: not a built-in scenario and no such file (try `koflcampaign scenarios`)", arg))
		}
		return nil, err
	}
	sc, err := adversary.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", arg, err)
	}
	return sc, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "koflsim:", err)
		if _, ok := err.(usageError); ok {
			fs, _ := flags()
			fs.SetOutput(os.Stderr)
			fs.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks errors that exit with status 2 and a usage hint — the
// koflcampaign exit-code convention.
type usageError string

func (e usageError) Error() string { return string(e) }

// options is the parsed flag surface.
type options struct {
	topo, variant, adversary    string
	n, k, l, cmax, need         int
	steps, seed, hold, think    int64
	faults, literal, paperOrder bool
}

// flags declares the flag surface; run parses a fresh set per call so tests
// can drive the command end to end.
func flags() (*flag.FlagSet, *options) {
	var o options
	fs := flag.NewFlagSet("koflsim", flag.ContinueOnError)
	fs.StringVar(&o.topo, "topo", "star", "topology: chain|star|paper|balanced|caterpillar|random")
	fs.IntVar(&o.n, "n", 8, "number of processes (ignored for -topo paper)")
	fs.IntVar(&o.k, "k", 2, "per-request maximum k")
	fs.IntVar(&o.l, "l", 3, "resource units ℓ")
	fs.IntVar(&o.cmax, "cmax", core.DefaultCMAX, "CMAX: bound on initial garbage per channel")
	fs.StringVar(&o.variant, "variant", "full", "protocol variant: full|naive|pusher|nonstab")
	fs.Int64Var(&o.steps, "steps", 200_000, "scheduler steps to run")
	fs.Int64Var(&o.seed, "seed", 1, "seed for scheduler, workloads and adversary")
	fs.IntVar(&o.need, "need", 0, "fixed request size for every process (0 = spread 1..k)")
	fs.Int64Var(&o.hold, "hold", 4, "critical-section duration in steps")
	fs.Int64Var(&o.think, "think", 8, "think time between requests in steps")
	fs.BoolVar(&o.faults, "faults", false, "start from a fully arbitrary configuration")
	fs.StringVar(&o.adversary, "adversary", "", "fault scenario: built-in name or script file (list with 'koflcampaign scenarios')")
	fs.BoolVar(&o.literal, "literal-pusher-guard", false, "erratum E1: paper-literal pusher guard")
	fs.BoolVar(&o.paperOrder, "paper-count-order", false, "erratum E2: paper-literal controller count order")
	return fs, &o
}

func run(args []string, out io.Writer) error {
	fs, o := flags()
	fs.SetOutput(io.Discard) // errors are reported (and usage printed) by main
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected argument %q (koflsim takes flags only)", fs.Arg(0)))
	}
	// Validate the flag combination before building anything, so malformed
	// invocations fail with a usable message and exit code 2, never a panic.
	if o.k < 1 || o.l < 1 || o.k > o.l {
		return usageError(fmt.Sprintf("-k %d -l %d: need 1 ≤ k ≤ ℓ", o.k, o.l))
	}
	if o.l > core.MaxL {
		return usageError(fmt.Sprintf("-l %d: the controller frame counts ℓ+1 in 16 bits, need ℓ ≤ %d", o.l, core.MaxL))
	}
	if o.cmax < 0 {
		return usageError(fmt.Sprintf("-cmax %d: must be ≥ 0", o.cmax))
	}
	if o.steps < 1 {
		return usageError(fmt.Sprintf("-steps %d: must be ≥ 1", o.steps))
	}
	if o.need < 0 || o.need > o.k {
		return usageError(fmt.Sprintf("-need %d: must be in [0, k=%d]", o.need, o.k))
	}
	if o.hold < 0 || o.think < 0 {
		return usageError("-hold and -think must be ≥ 0")
	}

	tr, err := tree.Named(o.topo, o.n, o.seed)
	if err != nil {
		return usageError(err.Error())
	}
	variant, err := parseVariant(o.variant)
	if err != nil {
		return err
	}
	var sched *adversary.Schedule
	if o.adversary != "" {
		script, err := loadScenario(o.adversary)
		if err != nil {
			return err
		}
		if sched, err = adversary.Compile(script, o.steps); err != nil {
			return err
		}
		if err := script.ValidateFor(tr); err != nil {
			return fmt.Errorf("scenario %q does not fit this topology: %w", script.Name, err)
		}
	}
	sys, err := kofl.New(tr, kofl.Options{
		K: o.k, L: o.l, CMAX: o.cmax, Seed: o.seed, Variant: variant,
		Errata: kofl.Errata{LiteralPusherGuard: o.literal, PaperCountOrder: o.paperOrder},
	})
	if err != nil {
		return err
	}
	if o.faults {
		sys.InjectArbitraryFaults(o.seed + 1)
	}
	for p := 0; p < tr.N(); p++ {
		sz := o.need
		if sz == 0 {
			sz = 1 + p%o.k
		}
		sys.Saturate(p, sz, o.hold, o.think, 0)
	}

	var ran int64
	var exec *adversary.Executor
	if sched != nil {
		if exec, err = adversary.NewExecutor(sys.Sim(), sched, o.seed); err != nil {
			return err
		}
		ran = exec.Run(o.steps)
	} else {
		ran = sys.Run(o.steps)
	}
	m := sys.Metrics()

	fmt.Fprintf(out, "topology   %s (n=%d, ring=%d)\n", tr, tr.N(), tr.RingLen())
	fmt.Fprintf(out, "protocol   %v, k=%d ℓ=%d CMAX=%d seed=%d\n", variant, o.k, o.l, o.cmax, o.seed)
	fmt.Fprintf(out, "ran        %d steps (quiescent=%v)\n", ran, ran < o.steps)
	if exec != nil {
		fmt.Fprintf(out, "adversary  %s: %d events fired, %d suppressed by budgets\n",
			sched.Script.Name, exec.Fired(), exec.Suppressed())
	}
	fmt.Fprintf(out, "converged  %v (at step %d)\n", m.Converged, m.ConvergedAt)
	fmt.Fprintf(out, "grants     %d total, per process %v\n", m.TotalGrants, m.Grants)
	fmt.Fprintf(out, "waiting    max %d (Theorem 2 bound %d)\n", m.MaxWaiting, m.WaitingBound)
	fmt.Fprintf(out, "controller %d circulations, %d resets, %d timeouts\n",
		m.Circulations, m.Resets, m.Timeouts)
	fmt.Fprintf(out, "safety     %d violations after convergence\n", m.SafetyViolationsAfterConvergence)
	fmt.Fprintf(out, "census     %v\n", m.Census)
	return nil
}
