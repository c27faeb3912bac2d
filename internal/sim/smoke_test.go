package sim_test

import (
	"testing"

	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// TestSmokeFullProtocol boots the complete self-stabilizing protocol on the
// paper's 8-process tree from the empty configuration (no tokens anywhere —
// itself an arbitrary initial state) with saturating applications, and
// checks that the system converges to the legitimate token census, grants
// every process critical sections, and commits no safety violation after
// convergence.
func TestSmokeFullProtocol(t *testing.T) {
	tr := tree.Paper()
	cfg := core.Config{K: 3, L: 5, CMAX: 4, Features: core.Full()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})

	mon := checker.NewRun(s)

	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%cfg.K, 5, 10, 0))
	}

	s.Run(300_000)

	conv, ok := mon.ConvergedAt()
	if !ok {
		t.Fatalf("never converged: census=%v circ=%d resets=%d", s.Census(), mon.Completed, mon.Resets)
	}
	t.Logf("converged at %d (timeout=%d), circulations=%d resets=%d timeouts=%d",
		conv, s.TimeoutTicks(), mon.Completed, mon.Resets, mon.Timeouts)
	if n := mon.ViolationsAfter(conv); n > 0 {
		t.Fatalf("%d safety violations after convergence at %d: %+v", n, conv, mon.Violations)
	}
	for p := 0; p < tr.N(); p++ {
		if mon.Enters[p] == 0 {
			t.Errorf("process %d (%s) never entered its critical section", p, tr.Name(p))
		}
	}
	t.Logf("grants=%v total=%d", mon.Enters, mon.Total())
}
