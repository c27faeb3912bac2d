package workload_test

import (
	"testing"

	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

func newSim(t *testing.T, seed int64) *sim.Sim {
	t.Helper()
	cfg := core.Config{K: 2, L: 3, CMAX: 2, Features: core.Full()}
	return sim.MustNew(tree.Star(4), cfg, sim.Options{Seed: seed})
}

func TestFixedCycleLifecycle(t *testing.T) {
	s := newSim(t, 1)
	c := workload.Attach(s, 1, workload.Fixed(2, 10, 5, 3))
	s.Run(300_000)
	if c.Issued != 3 || c.Enters != 3 || c.Grants != 3 {
		t.Errorf("issued=%d enters=%d grants=%d, want 3/3/3", c.Issued, c.Enters, c.Grants)
	}
	if c.CurrentPhase() != workload.Idle {
		t.Errorf("phase = %v, want Idle after completion", c.CurrentPhase())
	}
	if n := s.Node(1); n.State() != core.Out {
		t.Errorf("node state = %v, want Out", n.State())
	}
}

func TestCycleUnboundedKeepsGoing(t *testing.T) {
	s := newSim(t, 2)
	c := workload.Attach(s, 2, workload.Fixed(1, 0, 0, 0))
	s.Run(100_000)
	if c.Grants < 100 {
		t.Errorf("unbounded cycle granted only %d times", c.Grants)
	}
}

func TestCycleHoldDuration(t *testing.T) {
	// With a long hold, enters and exits are spaced by at least the hold.
	s := newSim(t, 3)
	const hold = 500
	var enterAt, exitAt []int64
	s.AddObserver(func(e core.Event) {
		if e.P != 1 {
			return
		}
		switch e.Kind {
		case core.EvEnterCS:
			enterAt = append(enterAt, s.Now())
		case core.EvExitCS:
			exitAt = append(exitAt, s.Now())
		}
	})
	workload.Attach(s, 1, workload.Fixed(1, hold, 0, 2))
	s.Run(300_000)
	if len(enterAt) < 2 || len(exitAt) < 2 {
		t.Fatalf("enters=%d exits=%d", len(enterAt), len(exitAt))
	}
	for i := range exitAt {
		if exitAt[i]-enterAt[i] < hold {
			t.Errorf("CS %d lasted %d steps, want ≥ %d", i, exitAt[i]-enterAt[i], hold)
		}
	}
}

func TestCycleThinkTime(t *testing.T) {
	s := newSim(t, 4)
	const think = 400
	var enters, exits []int64
	s.AddObserver(func(e core.Event) {
		if e.P != 1 {
			return
		}
		switch e.Kind {
		case core.EvEnterCS:
			enters = append(enters, s.Now())
		case core.EvExitCS:
			exits = append(exits, s.Now())
		}
	})
	workload.Attach(s, 1, workload.Fixed(1, 0, think, 3))
	s.Run(300_000)
	if len(enters) < 3 {
		t.Fatalf("only %d enters", len(enters))
	}
	// The second request cannot be issued before exit + think.
	for i := 1; i < len(enters); i++ {
		if enters[i]-exits[i-1] < think {
			t.Errorf("request %d issued %d after exit, want ≥ %d", i, enters[i]-exits[i-1], think)
		}
	}
}

func TestCycleSurvivesCorruptedNodeState(t *testing.T) {
	// A fault leaves the node in Req while the app is Idle: the app's
	// request is rejected, it backs off, and the system still converges to
	// serving it.
	s := newSim(t, 7)
	c := workload.Attach(s, 1, workload.Fixed(1, 2, 2, 0))
	s.RestoreNode(1, core.Snapshot{State: core.Req, Need: 2, Prio: core.NoPrio})
	g := checker.NewRun(s)
	s.Run(300_000)
	if g.Enters[1] == 0 {
		t.Error("no grants after state corruption")
	}
	if c.Grants == 0 {
		t.Error("app cycle never completed after corruption")
	}
}

func TestCycleCompletesEvenIfEnteredSpontaneously(t *testing.T) {
	// Fault puts the node straight into In while the app is Idle: the app
	// (ReleaseCS true) lets the protocol release on the next poll and keeps
	// cycling afterwards.
	s := newSim(t, 8)
	c := workload.Attach(s, 2, workload.Fixed(1, 1, 1, 0))
	s.RestoreNode(2, core.Snapshot{State: core.In, Need: 1, RSet: []int{0}, Prio: core.NoPrio})
	s.Run(200_000)
	if c.Grants == 0 {
		t.Error("cycle stuck after spontaneous In state")
	}
	if s.Census().Res() != 3 {
		t.Errorf("token population drifted: %v", s.Census())
	}
}
