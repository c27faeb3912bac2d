package campaign

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// paperSweepChecks holds each of the paper's sweeps under
// examples/campaigns to the shape the paper predicts, keyed by file name.
var paperSweepChecks = map[string]func(*testing.T, *Report){
	// P1: more tokens, more throughput — on every topology, grants at ℓ=5
	// exceed grants at ℓ=1.
	"p1-throughput.json": func(t *testing.T, rep *Report) {
		byTopo := map[string]map[int]int64{}
		for _, cr := range rep.Results {
			lbl := cr.Cell.Topology.Label()
			if byTopo[lbl] == nil {
				byTopo[lbl] = map[int]int64{}
			}
			byTopo[lbl][cr.Cell.L] = cr.TotalGrants
		}
		for lbl, byL := range byTopo {
			if byL[5] <= byL[1] {
				t.Errorf("%s: grants at ℓ=5 (%d) ≤ at ℓ=1 (%d)", lbl, byL[5], byL[1])
			}
		}
	},
	// P2: a smaller retransmission timeout fires at least as often (the
	// file lists the timeouts in increasing order).
	"p2-control-overhead.json": func(t *testing.T, rep *Report) {
		prev := int64(math.MaxInt64)
		for _, cr := range rep.Results {
			if cr.TotalTimeouts > prev {
				t.Errorf("timeout %d fired %d times, more than the %d of the smaller timeout before it",
					cr.Cell.TimeoutTicks, cr.TotalTimeouts, prev)
			}
			prev = cr.TotalTimeouts
		}
	},
	// R1: faults are repaired, not fatal — the storm-free column is
	// available to two decimals with no reset, every stormy column above
	// one half.
	"r1-availability.json": func(t *testing.T, rep *Report) {
		for _, cr := range rep.Results {
			switch {
			case cr.Cell.StormPeriod == 0 && (cr.Availability < 0.995 || cr.TotalResets != 0):
				t.Errorf("%s: availability %v with %d resets, want 1.00 and 0", cr.Label, cr.Availability, cr.TotalResets)
			case cr.Availability < 0.5:
				t.Errorf("%s: availability %v under storms, want ≥ 0.5", cr.Label, cr.Availability)
			}
		}
	},
	// T1: Theorem 1 — every run converges from an arbitrary configuration.
	"t1-convergence.json": func(t *testing.T, rep *Report) {
		for _, cr := range rep.Results {
			if cr.Diverged != 0 {
				t.Errorf("%s: %d of %d runs never converged", cr.Label, cr.Diverged, len(cr.Runs))
			}
		}
	},
}

// TestPaperSweepSpecs parses every spec under examples/campaigns strictly
// and plans it whole, then runs it with the step budget capped at 150 k and
// at most two seeds per cell and checks the paper's shape on the report.
func TestPaperSweepSpecs(t *testing.T) {
	files, err := filepath.Glob("../../examples/campaigns/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(paperSweepChecks) {
		t.Errorf("%d spec files for %d checks", len(files), len(paperSweepChecks))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ParseSpec(b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewPlan(spec); err != nil {
				t.Fatal(err)
			}
			check := paperSweepChecks[filepath.Base(f)]
			if check == nil {
				t.Fatal("no check for this sweep")
			}
			if testing.Short() {
				return
			}
			spec.Steps = min(spec.Steps, 150_000)
			spec.Seeds.Count = min(spec.Seeds.Count, 2)
			rep, err := Run(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep)
		})
	}
}
