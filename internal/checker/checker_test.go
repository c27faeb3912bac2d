package checker_test

import (
	"runtime"
	"testing"

	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

func fullSim(t *testing.T, tr *tree.Tree, k, l int, seed int64) *sim.Sim {
	t.Helper()
	cfg := core.Config{K: k, L: l, CMAX: 4, Features: core.Full()}
	return sim.MustNew(tr, cfg, sim.Options{Seed: seed})
}

// stuckApp models an application that entered its critical section and
// never finishes: ReleaseCS stays false.
type stuckApp struct{}

func (stuckApp) EnterCS()           {}
func (stuckApp) ReleaseCS() bool    { return false }
func (stuckApp) Enabled(int64) bool { return false }
func (stuckApp) Act(sim.Handle)     {}
func (stuckApp) WakeAt(int64) int64 { return sim.NoWake }

func TestLegitimacyTracksViolations(t *testing.T) {
	tr := tree.Chain(4)
	s := fullSim(t, tr, 1, 2, 1)
	mon := checker.NewCensusMonitor(s)
	// Empty start: census wrong (no tokens yet).
	if s.TokensCorrect() {
		t.Fatal("empty census reported legitimate")
	}
	if _, ok := mon.ConvergedAt(); ok {
		t.Fatal("converged before running")
	}
	if !s.RunUntil(500_000, s.TokensCorrect) {
		t.Fatal("never legitimate")
	}
	s.Run(5_000)
	at, ok := mon.ConvergedAt()
	if !ok {
		t.Fatal("not converged after census stabilized")
	}
	if at <= 0 || at > s.Now() {
		t.Errorf("ConvergedAt = %d out of range (now %d)", at, s.Now())
	}
	if mon.LegitSteps < 5_000 {
		t.Errorf("LegitSteps = %d, want ≥ the 5000 steps run after convergence", mon.LegitSteps)
	}
}

func TestLegitimacyDetectsRelapse(t *testing.T) {
	tr := tree.Chain(4)
	s := fullSim(t, tr, 1, 2, 2)
	mon := checker.NewCensusMonitor(s)
	if !s.RunUntil(500_000, s.TokensCorrect) {
		t.Fatal("never legitimate")
	}
	// Inject an extra token: converged must flip to false after a step.
	s.Seed(0, 0, message.NewRes())
	s.Run(1)
	if _, ok := mon.ConvergedAt(); ok {
		t.Error("relapse not detected")
	}
}

func TestSafetyFlagsOverCommitment(t *testing.T) {
	tr := tree.Chain(3)
	cfg := core.Config{K: 2, L: 2, CMAX: 2, Features: core.Full()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 3})
	mon := checker.NewCensusMonitor(s)
	// Corrupt two processes into In with more units than ℓ allows in total;
	// their applications are mid-critical-section (never release).
	s.AttachApp(1, stuckApp{})
	s.AttachApp(2, stuckApp{})
	s.RestoreNode(1, core.Snapshot{State: core.In, Need: 2, RSet: []int{0, 0}, Prio: core.NoPrio})
	s.RestoreNode(2, core.Snapshot{State: core.In, Need: 2, RSet: []int{0, 0}, Prio: core.NoPrio})
	s.Seed(0, 0, message.NewRes())
	s.Run(1)
	if mon.Violations.Total == 0 {
		t.Fatal("4 units in use with ℓ=2 not flagged")
	}
	last := mon.Violations.Last
	if last != s.Now() {
		t.Errorf("last violation at clock %d, want the step just run (%d)", last, s.Now())
	}
	if mon.ViolationsAfter(last) != 0 {
		t.Error("ViolationsAfter(last) should be 0")
	}
	if mon.ViolationsAfter(-1) != mon.Violations.Total {
		t.Error("ViolationsAfter(-1) should count everything")
	}
}

func TestWaitingMetricCountsOtherEnters(t *testing.T) {
	// Under mutual exclusion (k=ℓ=1) on a saturated star, every granted
	// request waited behind some other entries; the observed maximum must be
	// positive and below the Theorem 2 bound.
	tr := tree.Star(4)
	s2 := fullSim(t, tr, 1, 1, 9)
	w2 := checker.NewRun(s2)
	for p := 1; p < tr.N(); p++ {
		workload.Attach(s2, p, workload.Fixed(1, 0, 0, 0))
	}
	s2.Run(100_000)
	if w2.Max() <= 0 {
		t.Errorf("Max = %d, want > 0 under contention", w2.Max())
	}
	if w2.Max() > checker.Bound(tr.N(), 1) {
		t.Errorf("waiting %d exceeds Theorem 2 bound %d", w2.Max(), checker.Bound(tr.N(), 1))
	}
	maxOf := int64(0)
	for p := 1; p < tr.N(); p++ {
		if m := w2.MaxOf(p); m > maxOf {
			maxOf = m
		}
	}
	if maxOf != w2.Max() {
		t.Errorf("per-process max %d != global max %d", maxOf, w2.Max())
	}
}

func TestBoundFormula(t *testing.T) {
	cases := []struct {
		n, l int
		want int64
	}{
		{2, 1, 1},    // (2·2-3)² = 1
		{3, 1, 9},    // 3² = 9
		{8, 5, 845},  // 5·13²
		{4, 3, 75},   // 3·5²
		{16, 1, 841}, // 29²
	}
	for _, tc := range cases {
		if got := checker.Bound(tc.n, tc.l); got != tc.want {
			t.Errorf("Bound(%d,%d) = %d, want %d", tc.n, tc.l, got, tc.want)
		}
	}
}

func TestGrantsCounter(t *testing.T) {
	tr := tree.Chain(3)
	s := fullSim(t, tr, 1, 1, 5)
	g := checker.NewRun(s)
	workload.Attach(s, 2, workload.Fixed(1, 2, 2, 3))
	s.Run(200_000)
	if g.Enters[2] != 3 {
		t.Errorf("Enters[2] = %d, want exactly 3 (maxRequests)", g.Enters[2])
	}
	if g.Exits[2] != 3 {
		t.Errorf("Exits[2] = %d, want 3", g.Exits[2])
	}
	if g.Total() != 3 {
		t.Errorf("Total = %d", g.Total())
	}
}

// TestDFSOrderCleanCirculation: a lone resource token follows the virtual
// ring exactly (Figure 1) on the paper tree and on both extremes of depth.
func TestDFSOrderCleanCirculation(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *tree.Tree
	}{{"paper", tree.Paper()}, {"chain-16", tree.Chain(16)}, {"star-16", tree.Star(16)}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			cfg := core.Config{K: 1, L: 1, CMAX: 0, Features: core.Naive()}
			s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})
			s.Seed(0, 0, message.NewRes())
			d := checker.NewDFSOrder(s)
			s.Run(int64(5 * tr.RingLen()))
			if d.Failures != 0 {
				t.Errorf("%d order violations on a clean circulation", d.Failures)
			}
			if d.Visits != 5*tr.RingLen() {
				t.Errorf("visits = %d, want %d", d.Visits, 5*tr.RingLen())
			}
		})
	}
}

func TestDFSOrderDetectsViolation(t *testing.T) {
	// Two tokens in the same system break the single-token order premise:
	// the monitor must flag at least one violation.
	tr := tree.Chain(5)
	cfg := core.Config{K: 1, L: 2, CMAX: 0, Features: core.Naive()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 2})
	// Seed the two tokens at different ring positions.
	s.Seed(0, 0, message.NewRes())
	s.Seed(2, 1, message.NewRes())
	d := checker.NewDFSOrder(s)
	s.Run(2_000)
	if d.Failures == 0 {
		t.Error("interleaved double circulation reported as clean DFS order")
	}
}

func TestCirculationsMonitor(t *testing.T) {
	tr := tree.Chain(4)
	s := fullSim(t, tr, 1, 2, 7)
	c := checker.NewRun(s)
	s.Run(100_000)
	if c.Completed == 0 {
		t.Fatal("no circulations observed")
	}
	if c.Timeouts == 0 {
		t.Error("bootstrap timeout not observed")
	}
	if c.Created < 2 {
		t.Errorf("Created = %d, want ≥ ℓ=2 bootstrap tokens", c.Created)
	}
	if c.LastCount[0] != 2 || c.LastCount[1] != 1 || c.LastCount[2] != 1 {
		t.Errorf("LastCount = %v, want [2 1 1]", c.LastCount)
	}
}

// mapWaiting replicates the historical map-based Waiting implementation; the
// flattened monitor must be observationally identical to it on any event
// stream (this is the differential oracle for the allocation-free rewrite).
type mapWaiting struct {
	totalEnters int64
	pendingAt   map[int]int64
	served      int
	max         int64
	perProc     map[int]int64
}

func attachMapWaiting(s *sim.Sim) *mapWaiting {
	w := &mapWaiting{pendingAt: map[int]int64{}, perProc: map[int]int64{}}
	s.AddObserver(func(e core.Event) {
		switch e.Kind {
		case core.EvRequest:
			w.pendingAt[e.P] = w.totalEnters
		case core.EvEnterCS:
			if at, ok := w.pendingAt[e.P]; ok {
				wait := w.totalEnters - at
				w.served++
				if wait > w.max {
					w.max = wait
				}
				if wait > w.perProc[e.P] {
					w.perProc[e.P] = wait
				}
				delete(w.pendingAt, e.P)
			}
			w.totalEnters++
		}
	})
	return w
}

func TestWaitingFlattenedMatchesMapOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tr := tree.Balanced(2, 3)
		s := fullSim(t, tr, 2, 3, seed)
		flat := checker.NewRun(s)
		legacy := attachMapWaiting(s)
		for p := 0; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1+p%2, 2, 3, 0))
		}
		s.Run(60_000)
		if flat.Max() != legacy.max {
			t.Fatalf("seed %d: Max = %d, oracle %d", seed, flat.Max(), legacy.max)
		}
		for p := 0; p < tr.N(); p++ {
			if flat.MaxOf(p) != legacy.perProc[p] {
				t.Fatalf("seed %d: MaxOf(%d) = %d, oracle %d", seed, p, flat.MaxOf(p), legacy.perProc[p])
			}
		}
		if legacy.served == 0 {
			t.Fatalf("seed %d: no request served (vacuous test)", seed)
		}
	}
}

// TestWaitingDoesNotGrow: the monitor's state is per process, not per grant,
// so a long-lived Run on a saturated system allocates nothing once the
// simulator is warm. The monitor attaches after the warm-up, so a per-grant
// buffer would still be growing through the measured runs.
func TestWaitingDoesNotGrow(t *testing.T) {
	tr := tree.Star(8)
	s := fullSim(t, tr, 2, 3, 5)
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%2, 0, 0, 0))
	}
	s.Run(100_000) // converge and reach steady-state capacities
	w := checker.NewRun(s)
	if allocs := testing.AllocsPerRun(1, func() { s.Run(10_000) }); allocs != 0 {
		t.Errorf("%.0f allocations per 10k saturated steps with Run attached, want 0", allocs)
	}
	if w.Max() == 0 {
		t.Fatal("no waiting measured (vacuous test)")
	}
}

func TestWaitingBoundRatio(t *testing.T) {
	tr := tree.Chain(5)
	s := fullSim(t, tr, 1, 2, 4)
	w := checker.NewRun(s)
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1, 2, 3, 0))
	}
	s.Run(40_000)
	want := float64(w.Max()) / float64(checker.Bound(5, 2))
	if got := w.BoundRatio(5, 2); got != want {
		t.Errorf("BoundRatio = %f, want %f", got, want)
	}
	if w.BoundRatio(1, 0) != 0 {
		t.Error("degenerate bound should give ratio 0")
	}
}

// TestViolationRecordBounded holds a system in breach for a million steps —
// two processes inside their critical sections with ℓ+2 units between them,
// restored whenever a reset clears them, the shape of a long arbitrary
// start — and requires the monitor's retained memory not to grow with the
// breaches. It then stops the corruption and requires the count after
// convergence to be exact against a full reference list.
func TestViolationRecordBounded(t *testing.T) {
	const held = 1_000_000
	tr := tree.Chain(3)
	cfg := core.Config{K: 2, L: 2, CMAX: 2, Features: core.Full()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 3})
	mon := checker.NewCensusMonitor(s)
	breaches := make([]int64, 0, 2*held) // every breach's clock; filled without allocating
	s.AddStepHook(func(s *sim.Sim) {
		c := s.CensusScan()
		if c.UnitsInUse > cfg.L {
			breaches = append(breaches, s.Now())
		}
		if c.OverK > 0 {
			for p := range s.Tree.N() {
				if n := s.Node(p); n.State() == core.In && n.Reserved() > cfg.K {
					breaches = append(breaches, s.Now())
				}
			}
		}
	})
	holding := true
	hold := func(s *sim.Sim) {
		for p := 1; p <= 2 && holding; p++ {
			if n := s.Node(p); n.State() != core.In || n.Reserved() < 2 {
				s.RestoreNode(p, core.Snapshot{State: core.In, Need: 2, RSet: []int{0, 0}, Prio: core.NoPrio})
			}
		}
	}
	s.AttachApp(1, stuckApp{})
	s.AttachApp(2, stuckApp{})
	hold(s)
	s.AddStepHook(hold)

	var before, after runtime.MemStats
	s.Run(1_000)
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.RunUntil(2*held, func() bool { return len(breaches) >= held })
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(breaches) < held {
		t.Fatalf("%d breaches in %d steps, want %d", len(breaches), s.Steps, held)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("the heap grew %d bytes over %d breaches, want the record bounded", grew, len(breaches))
	}

	holding = false
	for p := 1; p <= 2; p++ {
		workload.Attach(s, p, workload.Fixed(1, 2, 4, 0))
	}
	converged := func() bool { _, ok := mon.ConvergedAt(); return ok }
	if !s.RunUntil(500_000, converged) {
		t.Fatal("never converged after the corruption stopped")
	}
	s.Run(10_000)
	at, ok := mon.ConvergedAt()
	if !ok {
		t.Fatal("relapsed after converging")
	}
	want := 0
	for _, c := range breaches {
		if c > at {
			want++
		}
	}
	if got := mon.ViolationsAfter(at); got != want {
		t.Errorf("ViolationsAfter(ConvergedAt=%d) = %d, reference %d", at, got, want)
	}
	if mon.Violations.Total != len(breaches) || len(mon.Violations.First) != checker.MaxViolationTexts {
		t.Errorf("record: %d breaches, %d texts; reference %d breaches", mon.Violations.Total, len(mon.Violations.First), len(breaches))
	}
}
