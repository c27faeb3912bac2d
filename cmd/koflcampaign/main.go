// Command koflcampaign drives the staged campaign pipeline: plan a
// declarative parameter sweep, execute it — whole, or one shard of many for
// cross-machine distribution — and merge shard partials back into the
// deterministic aggregate report.
//
// Subcommands:
//
//	koflcampaign example                               # print a demo spec
//	koflcampaign scenarios                             # list built-in adversary scenarios
//	koflcampaign plan  -spec sweep.json -o plan.json   # spec → plan file
//	koflcampaign run   -spec sweep.json -json rep.json # plan+execute+merge (+escalation)
//	koflcampaign run   -plan plan.json -shard 1/3 -partial p1.json
//	koflcampaign merge -plan plan.json -json rep.json p0.json p1.json p2.json
//
// The merged report is byte-identical to the unsharded run of the same
// spec, for any shard count (and `merge -escalate` reproduces the full
// escalated output of an unsharded `run`).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"kofl"
	"kofl/internal/adversary"
	"kofl/internal/campaign"
)

// exampleSpec is the built-in demo grid: 2 topologies × 3 (k,ℓ) pairs ×
// 2 storm schedules × 2 adversary scenarios × 3 seeds = 24 cells, 72 runs,
// with outlier trace capture and one adaptive escalation round configured.
// The scenarios axis crosses a scenario-free column with a built-in
// adversary script (see `koflcampaign scenarios`).
const exampleSpec = `{
  "name": "example-sweep",
  "topologies": [
    {"kind": "star", "n": 8},
    {"kind": "degseq", "degrees": [3, 2, 2, 2, 2, 1, 1, 1], "seed": 1}
  ],
  "kl": [{"k": 1, "l": 1}, {"k": 2, "l": 3}, {"k": 3, "l": 5}],
  "cmax": [4],
  "variants": ["full"],
  "scenarios": [{}, {"name": "budgeted-random"}],
  "seeds": {"first": 1, "count": 3},
  "steps": 50000,
  "workload": {"need": 0, "hold": 4, "think": 8},
  "faults": {"storm_periods": [0, 10000]},
  "trace": {"waiting_fraction": 0.02, "diverged": true},
  "escalation": {"rounds": 1, "factor": 2, "cv": 0.1, "waiting_cv": 1.5, "max_seeds": 9}
}
`

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "koflcampaign:", err)
		os.Exit(1)
	}
}

// usageError marks errors that should exit with status 2 and a usage hint.
type usageError string

func (e usageError) Error() string { return string(e) }

func run(args []string) error {
	var sub string
	if len(args) > 0 {
		sub, args = args[0], args[1:]
	}
	var err error
	switch sub {
	case "example":
		fmt.Print(exampleSpec)
		return nil
	case "scenarios":
		err = cmdScenarios(args)
	case "plan":
		err = cmdPlan(args)
	case "run":
		err = cmdRun(args)
	case "merge":
		err = cmdMerge(args)
	case "help":
		fmt.Print(usage)
		return nil
	default:
		err = usageError(fmt.Sprintf("unknown subcommand %q (plan|run|merge|scenarios|example)", sub))
	}
	if _, ok := err.(usageError); ok {
		fmt.Fprintln(os.Stderr, "koflcampaign:", err)
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	return err
}

const usage = `usage:
  koflcampaign example                                   print a demo spec
  koflcampaign scenarios [-json name]                    list built-in adversary scenarios
  koflcampaign plan  -spec sweep.json [-o plan.json]     expand a spec into a plan file
  koflcampaign run   -spec sweep.json | -plan plan.json  execute
               [-shard i/m -partial out.json]            ... one shard, emitting a partial
               [-workers n] [-json f] [-csv f] [-trace-dir d] [-quiet]
  koflcampaign merge -plan plan.json partial.json...     merge shard partials into the report
               [-escalate] [-workers n] [-json f] [-csv f] [-trace-dir d] [-quiet]
`

// loadSpec reads and parses a campaign spec file, with errors a user can
// act on (no panics, no decoder output without file context).
func loadSpec(path string) (kofl.CampaignSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return kofl.CampaignSpec{}, err
	}
	spec, err := kofl.ParseCampaignSpec(raw)
	if err != nil {
		return kofl.CampaignSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	// Expand eagerly so malformed grids (bad topology parameters, k > ℓ,
	// impossible workloads) fail here with the cell that is wrong, not
	// somewhere inside the worker pool.
	if _, err := spec.Cells(); err != nil {
		return kofl.CampaignSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func loadPlan(path string) (*kofl.CampaignPlan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	plan, err := campaign.ParsePlan(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return plan, nil
}

// cmdScenarios lists the built-in adversary scenario library, or dumps one
// script as JSON (a starting point for custom scenario files).
func cmdScenarios(args []string) error {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	dump := fs.String("json", "", "print the named built-in's script JSON instead of the listing")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *dump != "" {
		sc, ok := adversary.Lookup(*dump)
		if !ok {
			return usageError(fmt.Sprintf("scenarios: no built-in scenario %q", *dump))
		}
		b, err := sc.JSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "name\tphases\tevents\tdescription")
	for _, b := range adversary.Builtins() {
		events := 0
		for _, ph := range b.Script.Phases {
			events += len(ph.Events)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", b.Name, len(b.Script.Phases), events, b.Description)
	}
	return w.Flush()
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	specPath := fs.String("spec", "", "campaign spec JSON file (required)")
	out := fs.String("o", "", "write the plan JSON to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *specPath == "" {
		return usageError("plan: -spec is required")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	plan, err := kofl.PlanCampaign(spec)
	if err != nil {
		return err
	}
	b, err := plan.JSON()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "plan %q: %d cells × %d seeds = %d slots → %s\n",
		plan.Name, len(plan.Cells), plan.Seeds.Count, len(plan.Slots), *out)
	return nil
}

// parseShard parses "i/m" (e.g. "1/3").
func parseShard(s string) (i, m int, err error) {
	if n, _ := fmt.Sscanf(s, "%d/%d", &i, &m); n != 2 {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/m, e.g. 1/3", s)
	}
	if m < 1 || i < 0 || i >= m {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 ≤ i < m", s)
	}
	return i, m, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	specPath := fs.String("spec", "", "campaign spec JSON file")
	planPath := fs.String("plan", "", "pre-expanded plan JSON file (alternative to -spec)")
	shard := fs.String("shard", "", "run only shard i/m (requires -partial)")
	partialOut := fs.String("partial", "", "write the shard's partial report JSON here")
	workers := fs.Int("workers", 0, "worker goroutines claiming slots off a shared queue; report bytes never depend on the count (0 = one per logical CPU)")
	jsonOut := fs.String("json", "", "write the aggregate report JSON to this file")
	csvOut := fs.String("csv", "", "write the per-cell aggregate CSV to this file")
	traceDir := fs.String("trace-dir", "", "directory for captured outlier traces (enables the spec's trace predicate)")
	progress := fs.Bool("progress", false, "print a periodic per-worker progress line to stderr (slot rate and per-worker completions; 1s cadence)")
	quiet := fs.Bool("quiet", false, "suppress the progress line and summary table")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if (*specPath == "") == (*planPath == "") {
		return usageError("run: exactly one of -spec or -plan is required")
	}

	var plan *kofl.CampaignPlan
	var err error
	if *planPath != "" {
		if plan, err = loadPlan(*planPath); err != nil {
			return err
		}
	} else {
		spec, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		if plan, err = kofl.PlanCampaign(spec); err != nil {
			return err
		}
	}

	opts := kofl.CampaignOptions{Workers: *workers, TraceDir: *traceDir}
	stop := func() {}
	if *progress || !*quiet {
		opts.Obs = campaign.NewExecObs(nil)
		stop = startProgress(opts.Obs, *progress)
	}

	if *shard != "" {
		i, m, err := parseShard(*shard)
		if err != nil {
			return usageError(err.Error())
		}
		if *partialOut == "" {
			return usageError("run: -shard requires -partial (where to write the shard's results)")
		}
		if !*quiet {
			fmt.Printf("campaign %q round %d: shard %d/%d of %d slots\n",
				plan.Name, plan.Round, i, m, len(plan.Slots))
		}
		part, err := campaign.ExecuteShard(plan, i, m, opts)
		stop()
		if err != nil {
			return err
		}
		b, err := part.JSON()
		if err != nil {
			return err
		}
		return os.WriteFile(*partialOut, b, 0o644)
	}

	if !*quiet {
		fmt.Printf("campaign %q: %d cells × %d seeds = %d runs\n",
			plan.Name, len(plan.Cells), plan.Seeds.Count, len(plan.Slots))
	}
	start := time.Now()
	esc, err := runEscalated(plan, opts)
	stop()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := emit(esc, *jsonOut, *csvOut); err != nil {
		return err
	}
	if !*quiet {
		printSummary(esc)
		total := esc.Base.TotalRuns
		for _, r := range esc.Rounds {
			total += r.TotalRuns
		}
		fmt.Printf("%d runs in %v (%.1f runs/s)\n",
			total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	}
	return nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	planPath := fs.String("plan", "", "plan JSON file the partials were executed against (required)")
	escalate := fs.Bool("escalate", false, "after merging, execute the spec's escalation rounds locally")
	workers := fs.Int("workers", 0, "worker goroutines for -escalate rounds; round reports never depend on the count (0 = one per logical CPU)")
	jsonOut := fs.String("json", "", "write the merged report JSON to this file")
	csvOut := fs.String("csv", "", "write the per-cell aggregate CSV to this file")
	traceDir := fs.String("trace-dir", "", "directory for outlier traces captured during -escalate rounds")
	quiet := fs.Bool("quiet", false, "suppress the summary table")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *planPath == "" {
		return usageError("merge: -plan is required")
	}
	if fs.NArg() == 0 {
		return usageError("merge: no partial report files given")
	}
	plan, err := loadPlan(*planPath)
	if err != nil {
		return err
	}
	partials := make([]*kofl.CampaignPartial, 0, fs.NArg())
	for _, path := range fs.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pt, err := campaign.ParsePartial(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		partials = append(partials, pt)
	}
	rep, err := kofl.MergeCampaign(plan, partials)
	if err != nil {
		return err
	}
	esc := &kofl.CampaignEscalated{Name: rep.Name, Base: rep}
	if *escalate {
		opts := kofl.CampaignOptions{Workers: *workers, TraceDir: *traceDir}
		stop := func() {}
		if !*quiet {
			opts.Obs = campaign.NewExecObs(nil)
			stop = startProgress(opts.Obs, false)
		}
		esc, err = campaign.ContinueEscalation(plan, rep, opts)
		stop()
		if err != nil {
			return err
		}
	}
	if err := emit(esc, *jsonOut, *csvOut); err != nil {
		return err
	}
	if !*quiet {
		printSummary(esc)
	}
	return nil
}

// runEscalated executes a plan unsharded and, when its spec configures
// escalation, the escalation rounds too — all via the campaign package's
// single escalation loop.
func runEscalated(plan *kofl.CampaignPlan, opts kofl.CampaignOptions) (*kofl.CampaignEscalated, error) {
	part, err := campaign.ExecuteShard(plan, 0, 1, opts)
	if err != nil {
		return nil, err
	}
	rep, err := campaign.Merge(plan, []*kofl.CampaignPartial{part})
	if err != nil {
		return nil, err
	}
	return campaign.ContinueEscalation(plan, rep, opts)
}

// emit writes the requested outputs. With escalation rounds present, -json
// carries the full Escalated JSON; without, the plain base Report — so
// non-escalating specs keep a plain report format.
func emit(esc *kofl.CampaignEscalated, jsonOut, csvOut string) error {
	if jsonOut != "" {
		var b []byte
		var err error
		if len(esc.Rounds) > 0 {
			b, err = esc.JSON()
		} else {
			b, err = esc.Base.JSON()
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, b, 0o644); err != nil {
			return err
		}
	}
	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		if err := esc.Base.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		for _, r := range esc.Rounds {
			if err := r.AppendCSV(f); err != nil {
				f.Close()
				return err
			}
		}
		return f.Close()
	}
	return nil
}

// startProgress prints campaign progress to stderr from the engine's ExecObs
// counters once a second until the returned stop function is called, which
// prints one final line. The default form rewrites one "N runs done" line in
// place; perWorker (-progress) prints a line per tick with slots done/total,
// the last second's completion rate and each worker's completion count. The
// workers pay one sharded counter bump per slot either way.
func startProgress(eo *campaign.ExecObs, perWorker bool) (stop func()) {
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		last := eo.Done()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				cur := eo.Done()
				if perWorker {
					fmt.Fprintf(os.Stderr, "progress: %d/%d slots (%d slots/s) workers %v\n",
						cur, eo.Total(), cur-last, eo.WorkerSlots())
				} else {
					fmt.Fprintf(os.Stderr, "\r%d runs done", cur)
				}
				last = cur
			}
		}
	}()
	// The final line drops the shard total: Done accumulates across
	// escalation rounds while Total is the last shard's slot count.
	return func() {
		close(done)
		<-stopped
		if perWorker {
			fmt.Fprintf(os.Stderr, "progress: %d slots done, workers %v\n",
				eo.Done(), eo.WorkerSlots())
		} else {
			fmt.Fprintf(os.Stderr, "\r%d runs done\n", eo.Done())
		}
	}
}

func printSummary(esc *kofl.CampaignEscalated) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "round\tcell\tgrants\tconv(mean)\tcv\tdiverged\tmax-wait/bound\tavail\tjain\tresets\tsafety\ttraces")
	printRows := func(rep *kofl.CampaignReport) {
		for _, cr := range rep.Results {
			traces := 0
			for _, rr := range cr.Runs {
				if rr.Trace != "" {
					traces++
				}
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%.0f\t%.2f\t%d\t%d/%d\t%.4f\t%.3f\t%d\t%d\t%d\n",
				rep.Round, cr.Label, cr.TotalGrants, cr.Convergence.Mean, cr.Convergence.CV(),
				cr.Diverged, cr.MaxWaiting, cr.WaitingBound, cr.Availability, cr.MeanJain,
				cr.TotalResets, cr.TotalSafety, traces)
		}
	}
	printRows(esc.Base)
	for _, r := range esc.Rounds {
		printRows(r)
	}
	w.Flush()
}
