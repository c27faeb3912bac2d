package sim_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kofl/internal/adversary"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// TestStabilizationProperty is the repository's central property test: for
// random topologies, parameters, fault configurations and schedules, the
// full protocol must converge to the legitimate token census and afterwards
// commit no safety violation and keep serving requests. This is Theorem 1
// quantified over randomized instances.
func TestStabilizationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	check := func(seed int64, nSel, lSel, kSel, cmaxSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nSel)%14
		l := 1 + int(lSel)%6
		k := 1 + int(kSel)%l
		cmax := int(cmaxSel) % 6
		tr := tree.Random(n, rng)
		cfg := core.Config{K: k, L: l, CMAX: cmax, Features: core.Full()}
		s := sim.MustNew(tr, cfg, sim.Options{Seed: seed})
		adversary.ArbitraryConfiguration(s, rng)
		mon := checker.NewRun(s)
		for p := 0; p < n; p++ {
			workload.Attach(s, p, workload.Fixed(1+rng.Intn(k), int64(rng.Intn(6)), int64(rng.Intn(12)), 0))
		}
		budget := 8*s.TimeoutTicks() + 150_000
		s.Run(budget)
		at, ok := mon.ConvergedAt()
		if !ok {
			t.Logf("seed=%d n=%d k=%d l=%d cmax=%d: no convergence in %d steps (census %v)",
				seed, n, k, l, cmax, budget, s.Census())
			return false
		}
		if v := mon.ViolationsAfter(at); v > 0 {
			t.Logf("seed=%d: %d safety violations after convergence at %d", seed, v, at)
			return false
		}
		if mon.Total() == 0 {
			t.Logf("seed=%d: no grants at all", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConservationFaultFree: in a fault-free legitimate run the token
// populations are exactly (ℓ, 1, 1) after every single step — closure at the
// census level.
func TestConservationFaultFree(t *testing.T) {
	tr := tree.Paper()
	cfg := core.Config{K: 3, L: 5, CMAX: 2, Features: core.NonStabilizing()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 8})
	s.SeedLegitimate()
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%3, 4, 4, 0))
	}
	violations := 0
	s.AddStepHook(func(s *sim.Sim) {
		c := s.Census()
		if c.Res() != 5 || c.FreePush != 1 || c.Prio() != 1 {
			violations++
		}
	})
	s.Run(60_000)
	if violations != 0 {
		t.Errorf("%d census violations in a fault-free non-stabilizing run", violations)
	}
}

// countOrderWorkloads are the fault-free runs on the paper tree (k=3, ℓ=5)
// that the two count-order tests share. In each the root requests, so it
// parks tokens across controller circulation boundaries: exactly where the
// count-order erratum (E2) breaks closure. In "all-request" every process
// asks for 1–3 units; "heavy-root" is A2's, where the root asks for 3 units
// and everyone else for 1.
var countOrderWorkloads = []struct {
	name  string
	seed  int64
	steps int64
	app   func(p int) *workload.Cycle
}{
	{"all-request", 21, 400_000, func(p int) *workload.Cycle { return workload.Fixed(1+p%3, 5, 3, 0) }},
	{"heavy-root", 7, 150_000, func(p int) *workload.Cycle {
		if p == tree.PaperID("r") {
			return workload.Fixed(3, 6, 2, 0)
		}
		return workload.Fixed(1, 4, 10, 0)
	}},
}

// runCountOrder plays one count-order workload under the corrected or the
// paper's printed accumulation order.
func runCountOrder(paperOrder bool, seed, steps int64, app func(int) *workload.Cycle) *checker.Run {
	tr := tree.Paper()
	cfg := fullCfg(3, 5)
	cfg.Errata.PaperCountOrder = paperOrder
	s := sim.MustNew(tr, cfg, sim.Options{Seed: seed})
	mon := checker.NewRun(s)
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, app(p))
	}
	s.Run(steps)
	return mon
}

// TestClosureFullProtocol: once converged, the full protocol must never
// reset again in a fault-free continuation (closure property, corrected
// count order), and creates no resource token beyond the bootstrap's ℓ.
func TestClosureFullProtocol(t *testing.T) {
	for _, w := range countOrderWorkloads {
		t.Run(w.name, func(t *testing.T) {
			mon := runCountOrder(false, w.seed, w.steps, w.app)
			if _, ok := mon.ConvergedAt(); !ok {
				t.Fatal("did not converge")
			}
			if mon.Resets != 0 {
				t.Errorf("%d resets in a fault-free run (closure violation)", mon.Resets)
			}
			if mon.Created != 5 {
				t.Errorf("created %d resource tokens, want exactly the ℓ=5 of the bootstrap", mon.Created)
			}
			if mon.Completed < 100 {
				t.Errorf("only %d circulations completed", mon.Completed)
			}
		})
	}
}

// TestPaperCountOrderBreaksClosure pins the A2 erratum finding as a
// regression test: with the paper's printed accumulation order and a
// requesting root, the controller misses tokens the root reserved, creates
// replacements beyond the ℓ of the bootstrap, and resets spuriously.
func TestPaperCountOrderBreaksClosure(t *testing.T) {
	for _, w := range countOrderWorkloads {
		t.Run(w.name, func(t *testing.T) {
			mon := runCountOrder(true, w.seed, w.steps, w.app)
			if mon.Resets == 0 {
				t.Error("expected spurious resets under the paper's count order (erratum E2)")
			}
			if mon.Created <= 5 {
				t.Errorf("created %d resource tokens, want more than the ℓ=5 of the bootstrap", mon.Created)
			}
		})
	}
}

// TestRecoveryFromTokenLoss drops resource tokens mid-run; the controller
// must restore the population without a reset (a deficit is topped up).
func TestRecoveryFromTokenLoss(t *testing.T) {
	tr := tree.Star(6)
	s := sim.MustNew(tr, fullCfg(2, 4), sim.Options{Seed: 3})
	mon := checker.NewCensusMonitor(s)
	if !s.RunUntil(500_000, func() bool { _, ok := mon.ConvergedAt(); return ok }) {
		t.Fatal("bootstrap failed")
	}
	rng := rand.New(rand.NewSource(77))
	dropped := adversary.DropTokens(s, rng, message.Res, 2, nil)
	if dropped == 0 {
		t.Skip("no free tokens to drop at this instant")
	}
	if s.TokensCorrect() {
		t.Fatal("census still correct after drop")
	}
	if !s.RunUntil(4*s.TimeoutTicks()+200_000, s.TokensCorrect) {
		t.Fatalf("never recovered from losing %d tokens", dropped)
	}
}

// TestRecoveryFromTokenDuplication duplicates tokens mid-run; the controller
// must detect the excess and reset back to exactly ℓ.
func TestRecoveryFromTokenDuplication(t *testing.T) {
	tr := tree.Star(6)
	s := sim.MustNew(tr, fullCfg(2, 4), sim.Options{Seed: 4})
	mon := checker.NewRun(s)
	if !s.RunUntil(500_000, func() bool { _, ok := mon.ConvergedAt(); return ok }) {
		t.Fatal("bootstrap failed")
	}
	rng := rand.New(rand.NewSource(78))
	dup := adversary.DuplicateTokens(s, rng, message.Res, 3, nil)
	if dup == 0 {
		t.Skip("no free tokens to duplicate at this instant")
	}
	before := mon.Resets
	if !s.RunUntil(6*s.TimeoutTicks()+300_000, s.TokensCorrect) {
		t.Fatalf("never recovered from %d duplicated tokens (census %v)", dup, s.Census())
	}
	if mon.Resets == before {
		t.Error("excess tokens repaired without a reset — the controller should have reset")
	}
}

// TestRecoveryFromLostController kills every in-flight controller message;
// the root timeout must regenerate the circulation.
func TestRecoveryFromLostController(t *testing.T) {
	tr := tree.Chain(5)
	s := sim.MustNew(tr, fullCfg(1, 2), sim.Options{Seed: 5, TimeoutTicks: 2_000})
	mon := checker.NewCensusMonitor(s)
	if !s.RunUntil(500_000, func() bool { _, ok := mon.ConvergedAt(); return ok }) {
		t.Fatal("bootstrap failed")
	}
	rng := rand.New(rand.NewSource(79))
	adversary.DropTokens(s, rng, message.Ctrl, 1<<30, nil)
	circBefore := s.Delivered[message.Ctrl]
	s.Run(20_000)
	if s.Delivered[message.Ctrl] == circBefore {
		t.Error("controller never regenerated after total loss")
	}
	if !s.TokensCorrect() {
		// Give it more room: recovery may need another traversal.
		if !s.RunUntil(100_000, s.TokensCorrect) {
			t.Errorf("census wrong after controller recovery: %v", s.Census())
		}
	}
}

// TestGarbageOnlyChannelsConverge: legitimate process states but CMAX
// garbage in every channel (the pure Gouda-Multari scenario).
func TestGarbageOnlyChannelsConverge(t *testing.T) {
	tr := tree.Balanced(2, 3)
	cfg := core.Config{K: 2, L: 3, CMAX: 5, Features: core.Full()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 6})
	rng := rand.New(rand.NewSource(80))
	adversary.GarbageChannels(s, rng, 5, nil)
	mon := checker.NewCensusMonitor(s)
	if !s.RunUntil(8*s.TimeoutTicks()+300_000, func() bool { _, ok := mon.ConvergedAt(); return ok }) {
		t.Fatalf("no convergence from garbage channels: %v", s.Census())
	}
}
