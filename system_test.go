package kofl_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"kofl"
	"kofl/internal/serve"
)

func TestNewValidatesOptions(t *testing.T) {
	if _, err := kofl.New(kofl.Chain(4), kofl.Options{K: 0, L: 1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := kofl.New(kofl.Chain(4), kofl.Options{K: 3, L: 2}); err == nil {
		t.Error("k>ℓ accepted")
	}
	if _, err := kofl.New(kofl.Chain(4), kofl.Options{K: 1, L: 1}); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	// ℓ+1 must fit the controller frame's 16-bit count — on the live path
	// (serve.New → runtime.New) as well, and the error names the limit.
	_, err := serve.New(kofl.Chain(4), serve.Options{K: 1, L: 70001})
	if err == nil || !strings.Contains(err.Error(), "65534") {
		t.Errorf("serve.New with ℓ=70001: err = %v, want one naming the limit 65534", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	kofl.MustNew(kofl.Chain(4), kofl.Options{K: 0, L: 0})
}

func TestManualRequestReleaseFlow(t *testing.T) {
	sys := kofl.MustNew(kofl.Star(6), kofl.Options{K: 2, L: 3, Seed: 1})
	entered := false
	sys.OnEnter(2, func() { entered = true })
	if err := sys.Request(2, 2); err != nil {
		t.Fatal(err)
	}
	if sys.StateOf(2) != kofl.Req {
		t.Fatalf("state = %v, want Req", sys.StateOf(2))
	}
	for i := 0; i < 200_000 && !sys.InCS(2); i++ {
		sys.Step()
	}
	if !sys.InCS(2) || !entered {
		t.Fatal("request never granted")
	}
	if sys.UnitsHeld(2) != 2 {
		t.Errorf("UnitsHeld = %d, want 2", sys.UnitsHeld(2))
	}
	// Double request while In is rejected by the protocol.
	if err := sys.Request(2, 1); err == nil {
		t.Error("request while In accepted")
	}
	sys.Release(2)
	if sys.InCS(2) {
		t.Error("still in CS after Release")
	}
	sys.Run(10_000)
	if got := sys.Census().Res(); got != 3 {
		t.Errorf("tokens after release = %d, want 3", got)
	}
}

func TestSaturateReplacesManualApp(t *testing.T) {
	sys := kofl.MustNew(kofl.Chain(5), kofl.Options{K: 1, L: 2, Seed: 2})
	sys.Saturate(3, 1, 2, 2, 0)
	if err := sys.Request(3, 1); err == nil {
		t.Error("manual request on a generator-driven process accepted")
	}
	sys.Release(3) // must be a no-op, not a panic
	sys.Run(100_000)
	if sys.Metrics().Grants[3] == 0 {
		t.Error("generator produced no grants")
	}
}

func TestVariantsBehave(t *testing.T) {
	// The naive variant is seeded with ℓ tokens; with an unsatisfiable
	// request pattern it runs into a quiescent deadlock (Figure 2 in
	// miniature: the single token is reserved by a process that needs two).
	naive := kofl.MustNew(kofl.Chain(4), kofl.Options{K: 2, L: 2, Variant: kofl.NaiveVariant, Seed: 3})
	if c := naive.Census().Res(); c != 2 {
		t.Errorf("naive variant seeded %d tokens, want ℓ=2", c)
	}
	_ = naive.Request(1, 2)
	_ = naive.Request(3, 2)
	ran := naive.Run(100_000)
	if ran == 100_000 || !naive.Sim().Quiescent() {
		t.Error("naive variant with split reservations should deadlock quiescently")
	}
	if naive.InCS(1) || naive.InCS(3) {
		t.Skip("tokens happened to land on one process; no deadlock this seed")
	}
	// The full protocol never quiesces: the controller circulates forever.
	full := kofl.MustNew(kofl.Chain(4), kofl.Options{K: 1, L: 1, Seed: 3})
	if full.Run(1_000) != 1_000 {
		t.Error("full protocol quiesced")
	}
}

func TestVariantString(t *testing.T) {
	cases := map[kofl.Variant]string{
		kofl.FullProtocol:          "full",
		kofl.NaiveVariant:          "naive",
		kofl.PusherVariant:         "pusher",
		kofl.NonStabilizingVariant: "non-stabilizing",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("Variant(%d).String() = %q, want %q", v, got, want)
		}
	}
}

func TestMetricsAndConvergence(t *testing.T) {
	sys := kofl.MustNew(kofl.PaperTree(), kofl.Options{K: 3, L: 5, Seed: 4})
	for p := 0; p < 8; p++ {
		sys.Saturate(p, 1+p%3, 3, 5, 0)
	}
	if !sys.RunUntilConverged(1_000_000) {
		t.Fatal("no convergence")
	}
	sys.Run(50_000)
	m := sys.Metrics()
	if !m.Converged || m.ConvergedAt <= 0 {
		t.Errorf("metrics: converged=%v at=%d", m.Converged, m.ConvergedAt)
	}
	if m.TotalGrants == 0 || len(m.Grants) != 8 {
		t.Errorf("grants: %v", m.Grants)
	}
	if m.WaitingBound != kofl.WaitingBound(8, 5) {
		t.Errorf("bound = %d", m.WaitingBound)
	}
	if m.MaxWaiting > m.WaitingBound {
		t.Errorf("waiting %d exceeds bound %d", m.MaxWaiting, m.WaitingBound)
	}
	if m.SafetyViolationsAfterConvergence != 0 {
		t.Errorf("%d safety violations after convergence", m.SafetyViolationsAfterConvergence)
	}
	if m.Census.Res() != 5 {
		t.Errorf("census: %v", m.Census)
	}
	if s := m.String(); !strings.Contains(s, "grants=") {
		t.Errorf("Metrics.String = %q", s)
	}
}

func TestFaultInjectionAndRecovery(t *testing.T) {
	sys := kofl.MustNew(kofl.Star(8), kofl.Options{K: 2, L: 4, Seed: 5})
	for p := 0; p < 8; p++ {
		sys.Saturate(p, 1+p%2, 2, 6, 0)
	}
	if !sys.RunUntilConverged(1_000_000) {
		t.Fatal("bootstrap failed")
	}
	sys.InjectArbitraryFaults(77)
	// Run past recovery and re-check.
	sys.Run(sys.Sim().TimeoutTicks()*8 + 200_000)
	if got := sys.Census(); got.Res() != 4 || got.FreePush != 1 || got.Prio() != 1 {
		t.Errorf("census after recovery = %v", got)
	}
}

func TestDropAndDuplicateHelpers(t *testing.T) {
	sys := kofl.MustNew(kofl.Chain(5), kofl.Options{K: 1, L: 3, Seed: 6})
	if !sys.RunUntilConverged(1_000_000) {
		t.Fatal("bootstrap failed")
	}
	if n := sys.DropResourceTokens(1, 1); n > 1 {
		t.Errorf("dropped %d, asked 1", n)
	}
	sys.Run(sys.Sim().TimeoutTicks()*6 + 100_000)
	if got := sys.Census().Res(); got != 3 {
		t.Errorf("tokens after drop+recovery = %d, want 3", got)
	}
	if n := sys.DuplicateResourceTokens(2, 2); n > 2 {
		t.Errorf("duplicated %d, asked 2", n)
	}
	sys.Run(sys.Sim().TimeoutTicks()*8 + 200_000)
	if got := sys.Census().Res(); got != 3 {
		t.Errorf("tokens after dup+recovery = %d, want 3", got)
	}
}

func TestWaitingBound(t *testing.T) {
	if got := kofl.WaitingBound(8, 5); got != 845 {
		t.Errorf("WaitingBound(8,5) = %d, want 845", got)
	}
	if got := kofl.WaitingBound(2, 1); got != 1 {
		t.Errorf("WaitingBound(2,1) = %d, want 1", got)
	}
}

func TestTreeConstructors(t *testing.T) {
	if kofl.Chain(5).N() != 5 || kofl.Star(5).N() != 5 {
		t.Error("chain/star size")
	}
	if kofl.Balanced(2, 2).N() != 7 {
		t.Error("balanced size")
	}
	if kofl.Caterpillar(2, 2).N() != 6 {
		t.Error("caterpillar size")
	}
	if kofl.PaperTree().N() != 8 {
		t.Error("paper tree size")
	}
	if _, err := kofl.NewTree([]int{-1, 0, 1}); err != nil {
		t.Errorf("NewTree: %v", err)
	}
	if _, err := kofl.NewTree([]int{-1, 5}); err == nil {
		t.Error("invalid parent array accepted")
	}
}

func TestZeroNeedRequestGrantsImmediately(t *testing.T) {
	sys := kofl.MustNew(kofl.Chain(3), kofl.Options{K: 1, L: 1, Seed: 7})
	granted := false
	sys.OnEnter(1, func() { granted = true })
	if err := sys.Request(1, 0); err != nil {
		t.Fatal(err)
	}
	if !granted || !sys.InCS(1) {
		t.Error("zero-need request not granted synchronously")
	}
	sys.Release(1)
	if sys.StateOf(1) != kofl.Out {
		t.Errorf("state = %v after release", sys.StateOf(1))
	}
}

// TestRunCampaignPublicAPI drives the top-level sweep entry point: a small
// grid through the exported kofl.RunCampaign, checking the aggregate shape
// and that worker count does not change the result bytes.
func TestRunCampaignPublicAPI(t *testing.T) {
	spec := kofl.CampaignSpec{
		Name:       "api-smoke",
		Topologies: []kofl.CampaignTopology{{Kind: "star", N: 5}, {Kind: "paper"}},
		K:          []int{1, 2},
		L:          []int{2},
		Seeds:      kofl.CampaignSeeds{First: 3, Count: 2},
		Steps:      8_000,
		Workload:   kofl.CampaignWorkload{Hold: 2, Think: 4},
	}
	rep1, err := kofl.RunCampaign(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := kofl.RunCampaign(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Cells != 4 || rep1.TotalRuns != 8 {
		t.Fatalf("unexpected grid: %d cells, %d runs", rep1.Cells, rep1.TotalRuns)
	}
	j1, err := rep1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j4, err := rep4.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("RunCampaign results differ between 1 and 4 workers")
	}
	for _, cr := range rep1.Results {
		if cr.TotalGrants == 0 {
			t.Errorf("cell %s served no grants", cr.Label)
		}
		if cr.TotalSafety != 0 {
			t.Errorf("cell %s: safety violations after convergence", cr.Label)
		}
	}
}

// TestSystemMetricsMatchCampaignRun runs one (tree, k, ℓ, seed, workload)
// through kofl.System and through the campaign engine, for every variant,
// from the variant's own start (empty, or a seeded legitimate population)
// and from an arbitrary one, and requires both to report the same grants,
// worst waiting time, controller laps, resets, timeouts, convergence point
// and safety violations after it.
func TestSystemMetricsMatchCampaignRun(t *testing.T) {
	const k, l, seed, steps = 2, 3, 5, 60_000
	for _, arbitrary := range []bool{false, true} {
		t.Run(fmt.Sprintf("arbitrary=%v", arbitrary), func(t *testing.T) {
			for _, variant := range []kofl.Variant{kofl.FullProtocol, kofl.NonStabilizingVariant, kofl.PusherVariant, kofl.NaiveVariant} {
				t.Run(variant.String(), func(t *testing.T) {
					agreeWithCampaign(t, variant, arbitrary, k, l, seed, steps)
				})
			}
		})
	}
}

// agreeWithCampaign runs one campaign slot and the equivalent System and
// requires every metric both report to agree.
func agreeWithCampaign(t *testing.T, variant kofl.Variant, arbitrary bool, k, l int, seed, steps int64) {
	plan, err := kofl.PlanCampaign(kofl.CampaignSpec{
		Name:       "agreement",
		Topologies: []kofl.CampaignTopology{{Kind: "star", N: 6}},
		KL:         []kofl.CampaignKL{{K: k, L: l}},
		Variants:   []string{variant.String()},
		Seeds:      kofl.CampaignSeeds{First: seed, Count: 1},
		Steps:      steps,
		Workload:   kofl.CampaignWorkload{Hold: 2, Think: 4},
		Faults:     kofl.CampaignFaults{ArbitraryStart: arbitrary},
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := kofl.ExecuteCampaignShard(plan, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr := part.Results[0].Result

	tr := kofl.Star(6)
	sys := kofl.MustNew(tr, kofl.Options{K: k, L: l, Seed: seed, Variant: variant})
	if arbitrary {
		// The campaign draws an arbitrary start from seed+1000.
		sys.InjectArbitraryFaults(seed + 1000)
	}
	for p := 0; p < tr.N(); p++ {
		sys.Saturate(p, 1+p%k, 2, 4, 0) // the campaign's Need 0 spread
	}
	sys.Run(steps)
	m := sys.Metrics()

	// Only the controller repairs an arbitrary start; a seeded variant
	// converges from its legitimate one.
	if canConverge := variant == kofl.FullProtocol || !arbitrary; rr.Converged != canConverge || rr.Grants == 0 {
		t.Fatalf("campaign run converged=%v with %d grants (vacuous test)", rr.Converged, rr.Grants)
	}
	for _, f := range []struct {
		name          string
		system, campa int64
	}{
		{"steps", m.Steps, rr.Steps},
		{"grants", m.TotalGrants, rr.Grants},
		{"max waiting", m.MaxWaiting, rr.MaxWaiting},
		{"circulations", m.Circulations, rr.Circulations},
		{"resets", m.Resets, rr.Resets},
		{"timeouts", m.Timeouts, rr.Timeouts},
		{"converged at", m.ConvergedAt, rr.ConvergedAt},
		{"safety after", int64(m.SafetyViolationsAfterConvergence), int64(rr.SafetyAfter)},
	} {
		if f.system != f.campa {
			t.Errorf("%s: System %d, campaign %d", f.name, f.system, f.campa)
		}
	}
	if m.Converged != rr.Converged {
		t.Errorf("converged: System %v, campaign %v", m.Converged, rr.Converged)
	}
}
