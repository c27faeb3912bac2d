package sim_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kofl/internal/message"
	"kofl/internal/obs"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenSteps is how many actions each golden trace pins. Long enough to
// cover the controller bootstrap, the first grants and steady churn; short
// enough that a diff is readable.
const goldenSteps = 200

// goldenCase is one golden trace: a scheduler, and the topology the golden
// scenario runs on.
type goldenCase struct {
	tree  func() *tree.Tree
	dense bool // the enabled set spills into its dense form during the trace
	sched func() sim.Scheduler
}

// goldenSchedulers enumerates one representative configuration per scheduler
// implementation. Every entry runs the same workload under seed 7 so the
// traces differ only by scheduling policy and topology. The paper's tree
// never fills the enabled set's sorted array; the dense_ entries run the
// schedulers that pick by process on tree.Balanced(2, 5), whose 63
// applications are all enabled at step 1, so their picks are made while the
// set is in its dense form.
func goldenSchedulers() map[string]goldenCase {
	paper := func(sched func() sim.Scheduler) goldenCase { return goldenCase{tree.Paper, false, sched} }
	balanced := func() *tree.Tree { return tree.Balanced(2, 5) }
	return map[string]goldenCase{
		"random":     paper(func() sim.Scheduler { return sim.NewRandomScheduler() }),
		"roundrobin": paper(func() sim.Scheduler { return sim.NewRoundRobinScheduler() }),
		"slowprio":   paper(func() sim.Scheduler { return sim.NewSlowPrioScheduler(3, 1.0/8) }),
		"antitarget": paper(func() sim.Scheduler { return sim.NewAntiTargetScheduler(1) }),
		"script": paper(func() sim.Scheduler {
			// A plausible opening that breaks quickly and falls back to the
			// seeded random scheduler — exercising both the matching and the
			// fallback paths deterministically.
			ss := sim.NewScriptScheduler([]sim.Pick{
				sim.Deliver(1, 0, message.Res),
				sim.Deliver(3, 0, message.Res),
				sim.Deliver(1, AnyChPick, message.Res),
				sim.AppAct(2),
			}, false)
			ss.Fallback = sim.NewRandomScheduler()
			return ss
		}),
		"dense_roundrobin": {balanced, true, func() sim.Scheduler { return sim.NewRoundRobinScheduler() }},
		"dense_script": {balanced, true, func() sim.Scheduler {
			// Walk the five resource tokens, the pusher and the priority
			// token from p1 down to p15 (channels: 0 from p7, 1 from its
			// leaf p31, 2 from p32), send all but the priority token round
			// p31 and back, then pick at p15: the first AnyCh pick skips
			// channel 0's priority token for channel 1's resource token by
			// kind, the second takes the lower of two enabled channels, the
			// third skips the emptied channel 0.
			var script []sim.Pick
			hops := func(p, times int) {
				for range times {
					script = append(script, sim.Deliver(p, AnyChPick, 0))
				}
			}
			hops(1, 7)
			hops(3, 7)
			hops(7, 7)
			hops(15, 6)
			hops(31, 6)
			script = append(script,
				sim.Deliver(15, AnyChPick, message.Res),
				sim.Deliver(15, AnyChPick, 0),
				sim.Deliver(15, AnyChPick, message.Res),
				sim.AppAct(15))
			ss := sim.NewScriptScheduler(script, false)
			ss.Fallback = sim.NewRoundRobinScheduler()
			return ss
		}},
	}
}

// AnyChPick re-exports sim.AnyCh under a name that keeps the literal script
// above readable.
const AnyChPick = sim.AnyCh

// goldenTrace runs the golden scenario on tr under sched and returns one
// line per executed action: "<step> <action> <delivered-kind>". reg
// receives the simulation's instrumentation series.
func goldenTrace(tr *tree.Tree, sched sim.Scheduler, reg *obs.Registry) []string {
	s := sim.MustNew(tr, fullCfg(3, 5), sim.Options{Seed: 7, Scheduler: sched, Obs: reg})
	s.SeedLegitimate() // tokens from step 0: every scheduler sees real choices
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%3, 2, 3, 0))
	}
	var lines []string
	s.AddStepHook(func(s *sim.Sim) {
		line := fmt.Sprintf("%d %s", s.Steps, s.LastAction)
		if s.LastAction.Kind == sim.ActDeliver {
			line += " " + s.LastMsg.Kind.String()
		}
		lines = append(lines, line)
	})
	s.Run(goldenSteps)
	return lines
}

// TestGoldenSchedulerTraces pins the first 200 actions of a seeded run per
// scheduler. The paper-tree traces were generated by the pre-refactor
// full-rescan kernel, the dense_ ones by the kernel that still kept a
// per-process index beside the dense set; they are the enumeration-order
// determinism contract in checked-in form: any kernel change that silently
// alters schedules fails this test loudly. Each case also checks that the
// set spilled exactly when the case says it does.
// Regenerate (deliberately!) with: go test ./internal/sim -run Golden -update
func TestGoldenSchedulerTraces(t *testing.T) {
	for name, c := range goldenSchedulers() {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			got := strings.Join(goldenTrace(c.tree(), c.sched(), reg), "\n") + "\n"
			if spills := promValue(t, reg, "kofl_sim_actionset_spills_total"); (spills > 0) != c.dense {
				t.Fatalf("%d spills, want dense = %v", spills, c.dense)
			}
			path := filepath.Join("testdata", "golden", name+".trace")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("scheduler %s diverged from its golden trace.\nFirst difference:\n%s",
					name, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first differing line of two traces.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("trace lengths differ: want %d lines, got %d", len(w), len(g))
}
