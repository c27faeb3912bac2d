package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kofl/internal/adversary"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/workload"
)

// legacyStormRun is the pre-adversary runOne storm path (the hand-rolled
// rotating-storm loop, calling the primitives with nil selections), kept as
// the reference the engine is differentially tested against: every FaultSpec
// storm must replay byte-identically through adversary.LegacyStorm.
func legacyStormRun(spec Spec, c Cell, seed int64) RunResult {
	tr, err := c.Topology.Build()
	if err != nil {
		panic(err)
	}
	feat, err := features(c.Variant)
	if err != nil {
		panic(err)
	}
	cfg := core.Config{K: c.K, L: c.L, N: tr.N(), CMAX: c.CMAX, Features: feat}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: seed, TimeoutTicks: c.TimeoutTicks})
	if !cfg.Features.Controller {
		s.SeedLegitimate()
	}
	if spec.Faults.ArbitraryStart {
		adversary.ArbitraryConfiguration(s, rand.New(rand.NewSource(seed+1000)))
	}
	mon := checker.NewRun(s)
	for p := 0; p < tr.N(); p++ {
		need := spec.Workload.Need
		if need <= 0 {
			need = 1 + p%c.K
		}
		workload.Attach(s, p, workload.Fixed(need, spec.Workload.Hold, spec.Workload.Think, 0))
	}

	var storms int64
	rng := rand.New(rand.NewSource(seed + c.StormPeriod))
	next := c.StormPeriod
	for s.Steps < spec.Steps {
		if s.Steps >= next {
			storms++
			next += c.StormPeriod
			switch storms % 4 {
			case 0:
				adversary.DropTokens(s, rng, message.Res, 1+rng.Intn(3), nil)
			case 1:
				adversary.DuplicateTokens(s, rng, message.Res, 1+rng.Intn(3), nil)
			case 2:
				adversary.CorruptStates(s, rng, []int{rng.Intn(tr.N()), rng.Intn(tr.N())})
			case 3:
				adversary.GarbageChannels(s, rng, 3, nil)
			}
		}
		if !s.Step() {
			break
		}
	}

	at, ok := mon.ConvergedAt()
	rr := RunResult{
		Seed:          seed,
		Steps:         s.Steps,
		Grants:        mon.Total(),
		Jain:          round6(JainIndex(mon.Enters)),
		MaxWaiting:    mon.Max(),
		WaitingRatio:  round6(mon.BoundRatio(tr.N(), c.L)),
		Circulations:  mon.Completed,
		Resets:        mon.Resets,
		Timeouts:      mon.Timeouts,
		Converged:     ok,
		ConvergedAt:   at,
		LegitSteps:    mon.LegitSteps,
		DeliveredRes:  s.Delivered[message.Res],
		DeliveredCtrl: s.Delivered[message.Ctrl],
		Storms:        storms,
	}
	if ok {
		rr.SafetyAfter = mon.ViolationsAfter(at)
	}
	return rr
}

// TestLegacyStormEquivalence proves the FaultSpec→adversary migration: for
// a grid of topologies × storm periods × seeds (arbitrary starts included),
// runOne — which now routes storm columns through the adversary engine —
// produces a RunResult identical field for field to the historical
// hand-rolled storm loop.
func TestLegacyStormEquivalence(t *testing.T) {
	topos := []TopologySpec{
		{Kind: "paper"},
		{Kind: "chain", N: 9},
		{Kind: "broom", Spine: 4, Legs: 4},
	}
	for _, topo := range topos {
		for _, period := range []int64{400, 1_000} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/storm=%d/seed=%d", topo.Label(), period, seed)
				t.Run(name, func(t *testing.T) {
					spec := Spec{
						Name:       "equiv",
						Topologies: []TopologySpec{topo},
						KL:         []KL{{K: 2, L: 3}},
						Steps:      6_000,
						Workload:   WorkloadSpec{Hold: 3, Think: 6},
						Faults:     FaultSpec{ArbitraryStart: seed%2 == 0, StormPeriods: []int64{period}},
					}.normalized()
					cell := Cell{Topology: topo, K: 2, L: 3, CMAX: 4, Variant: "full", StormPeriod: period}
					rt, err := newCellRuntime(spec, cell)
					if err != nil {
						t.Fatal(err)
					}
					got := runOne(spec, cell, rt, seed, newWorkerState(), nil)
					want := legacyStormRun(spec, cell, seed)
					if got != want {
						t.Fatalf("adversary engine diverged from the legacy storm loop:\n  engine: %+v\n  legacy: %+v", got, want)
					}
				})
			}
		}
	}
}

// scenarioSpec is a small grid exercising the scenario axis: storm columns
// crossed with a built-in and an inline script.
func scenarioSpec() Spec {
	inline := &adversary.Script{
		Version:   adversary.SchemaVersion,
		Name:      "inline-burst",
		RngOffset: 9,
		Repeat:    true,
		Budget:    adversary.Budget{Events: 12, MinGap: 50},
		Phases: []adversary.Phase{
			{Name: "calm", Steps: 800},
			{Name: "burst", Steps: 400, Events: []adversary.Event{
				{Kind: "garbage", Target: adversary.Target{Kind: "subtree", Proc: 1}, Every: 150, Count: 2},
				{Kind: "corrupt", Target: adversary.Target{Kind: "random", Count: 2}, At: 100},
				{Kind: "reorder", At: 300},
			}},
		},
	}
	return Spec{
		Name:       "scenario-matrix",
		Topologies: []TopologySpec{{Kind: "paper"}, {Kind: "star", N: 8}},
		KL:         []KL{{K: 2, L: 3}},
		Scenarios: []ScenarioSpec{
			{},
			{Name: "budgeted-random"},
			{Script: inline},
		},
		Faults:   FaultSpec{StormPeriods: []int64{0, 900}},
		Seeds:    SeedRange{First: 1, Count: 2},
		Steps:    4_000,
		Workload: WorkloadSpec{Hold: 3, Think: 6},
	}
}

// TestScenarioShardDeterminism is the acceptance bar for the scenario axis:
// adversary-driven campaign reports must be byte-reproducible across shard
// counts m ∈ {1, 2, 3}.
func TestScenarioShardDeterminism(t *testing.T) {
	plan, err := NewPlan(scenarioSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 2 topologies × 2 storm columns × 3 scenario columns = 12 cells.
	if len(plan.Cells) != 12 {
		t.Fatalf("scenario axis expanded to %d cells, want 12", len(plan.Cells))
	}
	var reference []byte
	for _, m := range []int{1, 2, 3} {
		partials := make([]*Partial, m)
		for i := 0; i < m; i++ {
			pt, err := ExecuteShard(plan, i, m, Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip every partial like the CLI does.
			b, err := pt.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if partials[i], err = ParsePartial(b); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := Merge(plan, partials)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = b
			continue
		}
		if string(b) != string(reference) {
			t.Fatalf("report bytes differ between m=1 and m=%d", m)
		}
	}
	// Sanity: scenario cells actually fired faults (Storms aggregates the
	// adversary executors' fired counts).
	rep, err := Run(scenarioSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]int64{}
	for _, cr := range rep.Results {
		fired[cr.Cell.Scenario] += cr.TotalStorms
	}
	if fired["budgeted-random"] == 0 || fired["inline-burst"] == 0 {
		t.Fatalf("scenario columns fired no adversary events: %v", fired)
	}
}

// TestScenarioFingerprintCoversScript: editing an inline script — without
// renaming it — must change the plan fingerprint, because the fingerprint
// is what lets Merge refuse partials that ran under a different fault
// schedule.
func TestScenarioFingerprintCoversScript(t *testing.T) {
	base := scenarioSpec()
	p1, err := NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	edited := scenarioSpec()
	edited.Scenarios[2].Script.Phases[1].Events[0].Count = 3
	p2, err := NewPlan(edited)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint == p2.Fingerprint {
		t.Fatal("plan fingerprint did not change when the scenario script changed")
	}
	// And a plan with scenarios round-trips through its JSON file form.
	b, err := p1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	p3, err := ParsePlan(b)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Fingerprint != p1.Fingerprint || !reflect.DeepEqual(p3.Cells, p1.Cells) {
		t.Fatal("scenario-bearing plan does not round-trip")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := scenarioSpec()
	bad.Scenarios = []ScenarioSpec{{Name: "no-such-builtin"}}
	if _, err := NewPlan(bad); err == nil || !strings.Contains(err.Error(), "no-such-builtin") {
		t.Fatalf("unknown builtin accepted (err=%v)", err)
	}
	unnamed := scenarioSpec()
	unnamed.Scenarios = []ScenarioSpec{{Script: &adversary.Script{
		Version: 1, Phases: []adversary.Phase{{Steps: 10}},
	}}}
	if _, err := NewPlan(unnamed); err == nil || !strings.Contains(err.Error(), "need a name") {
		t.Fatalf("unnamed inline script accepted (err=%v)", err)
	}
	dup := scenarioSpec()
	dup.Scenarios = []ScenarioSpec{{Name: "budgeted-random"}, {Name: "budgeted-random"}}
	if _, err := NewPlan(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate scenario names accepted (err=%v)", err)
	}
	misfit := scenarioSpec()
	misfit.Scenarios = []ScenarioSpec{{Name: "bad-target", Script: &adversary.Script{
		Version: 1, Phases: []adversary.Phase{{Steps: 0, Events: []adversary.Event{
			{Kind: "corrupt", Target: adversary.Target{Kind: "proc", Proc: 64}, Every: 100},
		}}},
	}}}
	if _, err := NewPlan(misfit); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range target accepted (err=%v)", err)
	}
}

// TestEscalationWaitingCV: the waiting-ratio variance trigger fires on
// waiting noise that the convergence-time CV alone would miss.
func TestEscalationWaitingCV(t *testing.T) {
	cr := CellResult{
		Convergence: Describe([]int64{1_000, 1_001, 1_002}),
		Waiting:     Describe([]int64{10, 400, 2_000}),
	}
	es := EscalationSpec{Rounds: 1, CV: 0.5}
	if needsEscalation(cr, es) {
		t.Fatal("convergence CV alone should not trigger on this cell")
	}
	es.WaitingCV = 1.0
	if !needsEscalation(cr, es) {
		t.Fatal("waiting-ratio CV trigger did not fire")
	}
	cr.Waiting = Describe([]int64{400, 410, 395})
	if needsEscalation(cr, es) {
		t.Fatal("waiting-ratio CV trigger fired on a quiet cell")
	}
}

// TestEscalationSeedBudget: MaxSeeds clamps escalation rounds to the
// remaining per-cell budget and then stops escalation, as a pure function
// of (spec, round).
func TestEscalationSeedBudget(t *testing.T) {
	sp := Spec{
		Seeds:      SeedRange{First: 1, Count: 3},
		Escalation: EscalationSpec{Rounds: 5, Factor: 2, MaxSeeds: 12},
	}
	// Round 1 wants 6 (total 9 ≤ 12); round 2 wants 12 but only 3 remain;
	// round 3 gets 0 — escalation stops.
	for r, want := range map[int]SeedRange{
		1: {First: 4, Count: 6},
		2: {First: 10, Count: 3},
		3: {First: 13, Count: 0},
	} {
		if got := sp.escalationSeeds(r); got != want {
			t.Errorf("escalationSeeds(%d) = %+v, want %+v", r, got, want)
		}
	}
	// And the no-cap arithmetic is unchanged.
	sp.Escalation.MaxSeeds = 0
	if got := (SeedRange{First: 10, Count: 12}); sp.escalationSeeds(2) != got {
		t.Errorf("uncapped escalationSeeds(2) = %+v, want %+v", sp.escalationSeeds(2), got)
	}
}

// TestEscalationBudgetStopsPipeline: a plan whose escalation budget is
// exhausted produces no further rounds even when cells stay noisy.
func TestEscalationBudgetStopsPipeline(t *testing.T) {
	spec := Spec{
		Name:       "budget-stop",
		Topologies: []TopologySpec{{Kind: "paper"}},
		KL:         []KL{{K: 2, L: 3}},
		Seeds:      SeedRange{First: 1, Count: 2},
		Steps:      2_000,
		Workload:   WorkloadSpec{Hold: 3, Think: 6},
		// Arbitrary starts make convergence times seed-dependent, and the
		// near-zero CV triggers on any spread: only the seed budget can
		// stop the escalation loop.
		Faults:     FaultSpec{ArbitraryStart: true},
		Escalation: EscalationSpec{Rounds: 8, Factor: 2, CV: 0.000001, MaxSeeds: 6},
	}
	esc, err := RunEscalated(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Base 2 seeds; round 1: 4 (total 6 = budget); round 2: 0 → stop.
	if len(esc.Rounds) != 1 {
		t.Fatalf("got %d escalation rounds, want exactly 1 under MaxSeeds=6", len(esc.Rounds))
	}
	if rp := esc.Rounds[0].RunsPer; rp != 4 {
		t.Fatalf("round 1 ran %d seeds per cell, want 4", rp)
	}
}
