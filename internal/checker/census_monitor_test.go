package checker_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kofl/internal/adversary"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// TestCensusMonitorMatchesSeparateMonitors attaches the census monitor and
// a separate reference reading to the same simulation and requires
// identical results. The reference reads nothing the monitor reads: it
// rebuilds the census by a full scan every step, applies the predicate's
// population rule (legitimate, below) and names over-k processes by a node
// scan, where the monitor reads the maintained census through sim.Health
// and scans nodes only when the maintained OverK counter says so.
func TestCensusMonitorMatchesSeparateMonitors(t *testing.T) {
	tr := tree.Paper()
	cfg := core.Config{K: 3, L: 5, N: tr.N(), CMAX: 4, Features: core.Full()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 11})
	mon := checker.NewCensusMonitor(s)

	var lastBad int64 = -1
	var everLegit bool
	var legitSteps int64
	var violations []checker.SafetyViolation
	reference := func(s *sim.Sim, isStep bool) {
		c := s.CensusScan()
		if legitimate(s, c) {
			everLegit = true
			if isStep {
				legitSteps++
			}
		} else {
			lastBad = s.Now()
		}
		if c.UnitsInUse > cfg.L {
			violations = append(violations, checker.SafetyViolation{
				Clock: s.Now(), What: fmt.Sprintf("%d units in use > ℓ=%d", c.UnitsInUse, cfg.L)})
		}
		for p := range tr.N() {
			if n := s.Node(p); n.State() == core.In && n.Reserved() > cfg.K {
				violations = append(violations, checker.SafetyViolation{
					Clock: s.Now(), What: fmt.Sprintf("process %d uses %d units > k=%d", p, n.Reserved(), cfg.K)})
			}
		}
	}
	reference(s, false)
	s.AddStepHook(func(s *sim.Sim) { reference(s, true) })
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%3, 2, 4, 0))
	}
	// Corrupt mid-run so the safety and re-convergence paths both fire.
	s.Run(30_000)
	adversary.ArbitraryConfiguration(s, rand.New(rand.NewSource(99)))
	s.Run(60_000)

	at, ok := mon.ConvergedAt()
	if !ok || !everLegit || at != lastBad+1 {
		t.Errorf("ConvergedAt = (%d, %v), reference converged at %d (ever legitimate: %v)",
			at, ok, lastBad+1, everLegit)
	}
	if mon.LegitSteps != legitSteps {
		t.Errorf("LegitSteps: monitor %d vs reference %d", mon.LegitSteps, legitSteps)
	}
	if len(violations) == 0 {
		t.Fatal("the corruption produced no safety violation (vacuous test)")
	}
	checkRecord(t, &mon.Violations, violations, at)
}

// checkRecord compares a monitor's bounded violation record with the full
// reference list: the kept texts are the list's first ones, the total and
// the latest clock agree, and ViolationsAfter is exact at the convergence
// point and at the ends.
func checkRecord(t *testing.T, got *checker.ViolationRecord, want []checker.SafetyViolation, convergedAt int64) {
	t.Helper()
	if got.Total != len(want) {
		t.Fatalf("violations: record %d vs reference %d", got.Total, len(want))
	}
	if n := min(len(want), checker.MaxViolationTexts); len(got.First) != n {
		t.Fatalf("record keeps %d texts, want the first %d", len(got.First), n)
	}
	for i := range got.First {
		if got.First[i] != want[i] {
			t.Errorf("violation %d: record %+v vs reference %+v", i, got.First[i], want[i])
		}
	}
	if len(want) > 0 && got.Last != want[len(want)-1].Clock {
		t.Errorf("latest violation at %d, reference %d", got.Last, want[len(want)-1].Clock)
	}
	for _, c := range []int64{-1, convergedAt, got.Last} {
		n := 0
		for _, v := range want {
			if v.Clock > c {
				n++
			}
		}
		if a := got.After(c); a != n {
			t.Errorf("After(%d) = %d, reference %d", c, a, n)
		}
	}
}

// TestCensusMonitorOracleEquivalence runs the same seeded scenario twice —
// once on the incremental census kernel, once with sim.Options.ScanCensus
// (the snapshot oracle) — and requires the attached CensusMonitor to report
// identical convergence points, legit-step counts and violation records.
// Together with the sim package's per-step census differential tests this
// proves reworking the monitors onto the maintained census changed nothing
// observable.
func TestCensusMonitorOracleEquivalence(t *testing.T) {
	run := func(scan bool) (*checker.CensusMonitor, *sim.Sim) {
		tr := tree.Paper()
		cfg := core.Config{K: 3, L: 5, N: tr.N(), CMAX: 4, Features: core.Full()}
		s := sim.MustNew(tr, cfg, sim.Options{Seed: 17, ScanCensus: scan})
		mon := checker.NewCensusMonitor(s)
		for p := 0; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1+p%3, 2, 4, 0))
		}
		s.Run(20_000)
		adversary.ArbitraryConfiguration(s, rand.New(rand.NewSource(5)))
		s.Run(40_000)
		return mon, s
	}
	incr, si := run(false)
	scan, ss := run(true)
	if si.Steps != ss.Steps {
		t.Fatalf("runs diverged: %d vs %d steps", si.Steps, ss.Steps)
	}
	ia, iok := incr.ConvergedAt()
	sa, sok := scan.ConvergedAt()
	if ia != sa || iok != sok {
		t.Errorf("ConvergedAt: incremental (%d,%v) vs scan oracle (%d,%v)", ia, iok, sa, sok)
	}
	if incr.LegitSteps != scan.LegitSteps {
		t.Errorf("LegitSteps: incremental %d vs scan oracle %d", incr.LegitSteps, scan.LegitSteps)
	}
	if !reflect.DeepEqual(incr.Violations, scan.Violations) {
		t.Errorf("violation records differ:\nincremental %+v\nscan oracle %+v", incr.Violations, scan.Violations)
	}
}

// legitimate applies the one population rule, core.Config.LegitimatePopulation,
// to an assembled census: the reference Sim.Health must agree with.
func legitimate(s *sim.Sim, c sim.Census) bool {
	root := s.Node(s.Tree.Root())
	return s.Cfg.LegitimatePopulation(c.Res(), c.Prio(), c.FreePush,
		c.ResetCtrl > 0 || root.ResetFlag())
}

// TestHealthMatchesCensusLegitimacy steps a run under the paper's fault storm
// and requires, after every step, that sim.Health — the copy-free read the
// monitors consume — equals the population rule applied to the assembled
// census, plus the census's UnitsInUse and OverK. Under both census kernels,
// since Health reads the maintained fields in one and the snapshot oracle in
// the other, and for every variant, since the rule's pusher and priority
// guards depend on the features: the non-controller variants start from a
// seeded legitimate population, which the storm breaks for good.
func TestHealthMatchesCensusLegitimacy(t *testing.T) {
	for _, feat := range []core.Features{core.Full(), core.NonStabilizing(), core.PusherOnly(), core.Naive()} {
		for _, scan := range []bool{false, true} {
			name := fmt.Sprintf("%+v/scan=%v", feat, scan)
			tr := tree.Paper()
			cfg := core.Config{K: 3, L: 5, N: tr.N(), CMAX: 4, Features: feat}
			s := sim.MustNew(tr, cfg, sim.Options{Seed: 23, ScanCensus: scan})
			if !feat.Controller {
				s.SeedLegitimate()
			}
			for p := 0; p < tr.N(); p++ {
				need := 1 + p%3
				if feat == core.Naive() {
					need = 1 // multi-unit requests deadlock the naive rung (Figure 2)
				}
				workload.Attach(s, p, workload.Fixed(need, 2, 4, 0))
			}
			const steps = 40_000
			sched, err := adversary.Compile(adversary.LegacyStorm(1_500), steps)
			if err != nil {
				t.Fatal(err)
			}
			var legitSteps, illegitSteps int
			s.AddStepHook(func(s *sim.Sim) {
				legit, unitsInUse, overK := s.Health()
				c := s.Census()
				want := legitimate(s, c)
				if legit != want || unitsInUse != c.UnitsInUse || overK != c.OverK {
					t.Fatalf("%s clock %d: Health = (%v, %d, %d), census says (%v, %d, %d): %v",
						name, s.Now(), legit, unitsInUse, overK, want, c.UnitsInUse, c.OverK, c)
				}
				if legit {
					legitSteps++
				} else {
					illegitSteps++
				}
			})
			adversary.MustNewExecutor(s, sched, 23).Run(steps)
			if legitSteps == 0 || illegitSteps == 0 {
				t.Errorf("%s: %d legitimate and %d illegitimate steps; the storm run must visit both",
					name, legitSteps, illegitSteps)
			}
		}
	}
}
