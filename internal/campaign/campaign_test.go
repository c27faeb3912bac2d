package campaign

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// testSpec is a small but non-trivial grid: 2 topologies × 2 pairs ×
// 2 storm schedules = 8 cells, 2 seeds each.
func testSpec() Spec {
	return Spec{
		Name: "test-grid",
		Topologies: []TopologySpec{
			{Kind: "star", N: 6},
			{Kind: "chain", N: 5},
		},
		KL:       []KL{{K: 1, L: 1}, {K: 2, L: 3}},
		Seeds:    SeedRange{First: 1, Count: 2},
		Steps:    6_000,
		Workload: WorkloadSpec{Need: 0, Hold: 2, Think: 4},
		Faults:   FaultSpec{StormPeriods: []int64{0, 2_000}},
	}
}

// TestDeterminismAcrossWorkerCounts is the engine's core contract: the same
// spec produces byte-identical aggregate JSON at 1 worker and at many, even
// though completion order differs wildly.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := testSpec()
	var jsons [][]byte
	for _, workers := range []int{1, 4, 13} {
		rep, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON(workers=%d): %v", workers, err)
		}
		jsons = append(jsons, b)
	}
	for i := 1; i < len(jsons); i++ {
		if !bytes.Equal(jsons[0], jsons[i]) {
			t.Fatalf("aggregate JSON differs between worker counts (lens %d vs %d)",
				len(jsons[0]), len(jsons[i]))
		}
	}
	// CSV must be equally stable.
	var csvs []string
	for _, workers := range []int{1, 8} {
		rep, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rep.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		csvs = append(csvs, sb.String())
	}
	if csvs[0] != csvs[1] {
		t.Fatal("CSV differs between worker counts")
	}
}

func TestGridExpansion(t *testing.T) {
	spec := testSpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
	}
	// Grid order: topology outermost, storm period innermost.
	if cells[0].Topology.Kind != "star" || cells[0].StormPeriod != 0 {
		t.Errorf("unexpected first cell %+v", cells[0])
	}
	if cells[1].StormPeriod != 2_000 {
		t.Errorf("storm period should vary innermost, got %+v", cells[1])
	}
	if cells[len(cells)-1].Topology.Kind != "chain" {
		t.Errorf("unexpected last cell %+v", cells[len(cells)-1])
	}
}

func TestCrossProductSkipsInvalidPairs(t *testing.T) {
	spec := Spec{
		Name:       "cross",
		Topologies: []TopologySpec{{Kind: "star", N: 4}},
		K:          []int{1, 2, 4},
		L:          []int{1, 3},
		Steps:      1_000,
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Valid pairs: (1,1) (1,3) (2,3). Skipped: (2,1) (4,1) (4,3).
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	for _, c := range cells {
		if c.K > c.L {
			t.Errorf("invalid pair survived: k=%d l=%d", c.K, c.L)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{Name: "no-topologies", KL: []KL{{1, 1}}},
		{Name: "no-pairs", Topologies: []TopologySpec{{Kind: "star", N: 4}}},
		{Name: "bad-topology", Topologies: []TopologySpec{{Kind: "torus", N: 4}}, KL: []KL{{1, 1}}},
		{Name: "bad-variant", Topologies: []TopologySpec{{Kind: "star", N: 4}},
			KL: []KL{{1, 1}}, Variants: []string{"quantum"}},
		{Name: "bad-pair", Topologies: []TopologySpec{{Kind: "star", N: 4}}, KL: []KL{{3, 1}}},
		{Name: "tiny-chain", Topologies: []TopologySpec{{Kind: "chain", N: 1}}, KL: []KL{{1, 1}}},
		{Name: "need-over-k", Topologies: []TopologySpec{{Kind: "star", N: 4}},
			KL: []KL{{2, 3}, {4, 8}}, Workload: WorkloadSpec{Need: 4}},
	}
	for _, sp := range cases {
		if _, err := sp.Cells(); err == nil {
			t.Errorf("spec %q: expected error", sp.Name)
		}
	}
}

func TestRunResultsAreSane(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid sweep")
	}
	spec := testSpec()
	spec.Steps = 40_000
	rep, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRuns != 16 || len(rep.Results) != 8 {
		t.Fatalf("unexpected shape: %d runs, %d cells", rep.TotalRuns, len(rep.Results))
	}
	for _, cr := range rep.Results {
		if len(cr.Runs) != 2 {
			t.Fatalf("cell %s: %d runs", cr.Label, len(cr.Runs))
		}
		if cr.TotalGrants == 0 {
			t.Errorf("cell %s: no grants in %d steps", cr.Label, spec.Steps)
		}
		if cr.Diverged > 0 && cr.Cell.StormPeriod == 0 {
			t.Errorf("cell %s: diverged without storms", cr.Label)
		}
		if cr.TotalSafety != 0 {
			t.Errorf("cell %s: %d safety violations after convergence", cr.Label, cr.TotalSafety)
		}
		if cr.MaxWaiting > cr.WaitingBound && cr.Cell.StormPeriod == 0 {
			t.Errorf("cell %s: waiting %d exceeds Theorem 2 bound %d",
				cr.Label, cr.MaxWaiting, cr.WaitingBound)
		}
		if cr.Availability <= 0 || cr.Availability > 1 {
			t.Errorf("cell %s: availability %f out of range", cr.Label, cr.Availability)
		}
	}
}

// TestStormsDegradeAvailability checks that the storm axis actually injects
// faults: the stormy column must record storms and (weakly) no more
// availability than the calm column.
func TestStormsDegradeAvailability(t *testing.T) {
	spec := Spec{
		Name:       "stormy",
		Topologies: []TopologySpec{{Kind: "paper"}},
		KL:         []KL{{K: 3, L: 5}},
		Seeds:      SeedRange{First: 7, Count: 2},
		Steps:      60_000,
		Workload:   WorkloadSpec{Hold: 4, Think: 8},
		Faults:     FaultSpec{StormPeriods: []int64{0, 5_000}},
	}
	rep, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	calm, stormy := rep.Results[0], rep.Results[1]
	if calm.TotalStorms != 0 {
		t.Errorf("calm cell recorded %d storms", calm.TotalStorms)
	}
	if stormy.TotalStorms == 0 {
		t.Error("stormy cell recorded no storms")
	}
	if stormy.Availability > calm.Availability {
		t.Errorf("storms improved availability: %f > %f",
			stormy.Availability, calm.Availability)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","topologgies":[]}`)); err == nil {
		t.Fatal("expected error for unknown field")
	}
	sp, err := ParseSpec([]byte(`{
		"name": "ok",
		"topologies": [{"kind": "star", "n": 4}],
		"kl": [{"k": 1, "l": 2}],
		"seeds": {"first": 1, "count": 2},
		"steps": 1000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "ok" || len(sp.Topologies) != 1 || sp.KL[0].L != 2 {
		t.Fatalf("bad parse: %+v", sp)
	}
}

// TestProgressCallback verifies the progress counters koflcampaign reads:
// every run is counted exactly once in ExecObs, and the per-worker counts
// sum to the slot count. The -race CI pass leans on this for concurrent
// workers.
func TestProgressCallback(t *testing.T) {
	spec := testSpec()
	spec.Steps = 2_000
	eo := NewExecObs(nil)
	rep, err := Run(spec, Options{Workers: 6, Obs: eo})
	if err != nil {
		t.Fatal(err)
	}
	if got := eo.Done(); got != int64(rep.TotalRuns) {
		t.Fatalf("Done = %d, want %d", got, rep.TotalRuns)
	}
	if got := eo.Total(); got != 16 {
		t.Fatalf("Total = %d, want 16", got)
	}
	var sum int64
	for _, n := range eo.WorkerSlots() {
		sum += n
	}
	if sum != int64(rep.TotalRuns) {
		t.Fatalf("worker slots sum to %d, want %d", sum, rep.TotalRuns)
	}
}

// TestSeededVariantConvergesAtZero pins the monitor-attach order: a
// non-controller variant is seeded with a legitimate token population
// before the monitor's initial observation, so a run that stays legitimate
// throughout must report convergence from clock 0, not 1.
func TestSeededVariantConvergesAtZero(t *testing.T) {
	spec := Spec{
		Name:       "seeded",
		Topologies: []TopologySpec{{Kind: "star", N: 5}},
		KL:         []KL{{K: 1, L: 2}},
		Variants:   []string{"nonstab"},
		Seeds:      SeedRange{First: 1, Count: 1},
		Steps:      2_000,
		Workload:   WorkloadSpec{Hold: 2, Think: 4},
	}
	rep, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Results[0].Runs[0]
	if !rr.Converged || rr.ConvergedAt != 0 {
		t.Errorf("seeded nonstab run: converged=%v at=%d, want converged at 0",
			rr.Converged, rr.ConvergedAt)
	}
	if rr.LegitSteps != rr.Steps {
		t.Errorf("seeded nonstab run: %d/%d legit steps", rr.LegitSteps, rr.Steps)
	}
}

// TestVariantAxis runs the non-stabilizing ladder through the engine: naive
// variants must still produce results (they may deadlock, i.e. quiesce).
func TestVariantAxis(t *testing.T) {
	spec := Spec{
		Name:       "variants",
		Topologies: []TopologySpec{{Kind: "paper"}},
		KL:         []KL{{K: 3, L: 5}},
		Variants:   []string{"full", "naive", "pusher", "nonstab"},
		Seeds:      SeedRange{First: 1, Count: 1},
		Steps:      20_000,
		Workload:   WorkloadSpec{Hold: 2, Think: 4},
	}
	rep, err := Run(spec, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("got %d cells", len(rep.Results))
	}
	full := rep.Results[0]
	if !full.Runs[0].Converged {
		t.Error("full protocol did not converge")
	}
	if full.TotalGrants == 0 {
		t.Error("full protocol served no grants")
	}
}

// TestPathologicalTopologyKinds covers the broom/spider/prufer additions to
// the topology axis: build, size, label, validation, and a short end-to-end
// run on each family.
func TestPathologicalTopologyKinds(t *testing.T) {
	cases := []struct {
		spec  TopologySpec
		n     int
		label string
	}{
		{TopologySpec{Kind: "broom", Spine: 4, Legs: 3}, 7, "broom-4x3"},
		{TopologySpec{Kind: "spider", Legs: 3, Depth: 2}, 7, "spider-3x2"},
		{TopologySpec{Kind: "prufer", N: 9, Seed: 5}, 9, "prufer-9-s5"},
	}
	var topos []TopologySpec
	for _, c := range cases {
		tr, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if tr.N() != c.n {
			t.Errorf("%s: N = %d, want %d", c.label, tr.N(), c.n)
		}
		if got := c.spec.Label(); got != c.label {
			t.Errorf("Label = %q, want %q", got, c.label)
		}
		topos = append(topos, c.spec)
	}
	// Same cell ⇒ same tree: the topology seed is part of the cell.
	a, _ := TopologySpec{Kind: "prufer", N: 17, Seed: 3}.Build()
	b, _ := TopologySpec{Kind: "prufer", N: 17, Seed: 3}.Build()
	if a.String() != b.String() {
		t.Error("prufer topology not deterministic in its cell seed")
	}
	for _, bad := range []TopologySpec{
		{Kind: "broom", Spine: 0, Legs: 5},
		{Kind: "broom", Spine: 1, Legs: 0},
		{Kind: "spider", Legs: 0, Depth: 2},
		{Kind: "spider", Legs: 2, Depth: 0},
		{Kind: "prufer", N: 1},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("%+v: expected error", bad)
		}
	}
	rep, err := Run(Spec{
		Name:       "pathological",
		Topologies: topos,
		KL:         []KL{{K: 2, L: 3}},
		Seeds:      SeedRange{First: 1, Count: 1},
		Steps:      8_000,
		Workload:   WorkloadSpec{Hold: 2, Think: 4},
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("%d cells, want 3", len(rep.Results))
	}
	for _, cr := range rep.Results {
		if cr.TotalGrants == 0 {
			t.Errorf("cell %s: no grants", cr.Label)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty = %f", got)
	}
	if got := JainIndex([]int64{0, 0, 0}); got != 0 {
		t.Errorf("all-zero = %f", got)
	}
	if got := JainIndex([]int64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal = %f, want 1", got)
	}
	// One participant hogging everything: index 1/n.
	if got := JainIndex([]int64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("hog = %f, want 0.25", got)
	}
	// Monotone: more skew, lower index.
	a := JainIndex([]int64{6, 5, 5})
	b := JainIndex([]int64{10, 3, 3})
	if a <= b {
		t.Errorf("skew ordering: %f ≤ %f", a, b)
	}
}

func TestDescribeStddevAndCV(t *testing.T) {
	samples := []int64{9, 4, 2, 4, 7, 5, 4, 5}
	d := Describe(samples)
	if d.N != 8 || d.Mean != 5 || d.Median != 4 || d.Min != 2 || d.Max != 9 {
		t.Errorf("Describe = %+v, want n=8 mean=5 median=4 (nearest rank) min=2 max=9", d)
	}
	if samples[0] != 9 {
		t.Error("Describe reordered its input")
	}
	if d := Describe([]int64{5, 1, 3, 2, 4}); d.Median != 3 {
		t.Errorf("odd count: median %d, want 3", d.Median)
	}
	if math.Abs(d.Stddev-2.13808993) > 1e-6 {
		t.Errorf("Stddev = %f, want ≈2.138 (sample stddev)", d.Stddev)
	}
	if cv := d.CV(); math.Abs(cv-d.Stddev/5.0) > 1e-9 {
		t.Errorf("CV = %f, want stddev/mean", cv)
	}
	if d := Describe([]int64{7}); d.Stddev != 0 || d.CV() != 0 || d.Median != 7 {
		t.Errorf("single sample: %+v, want median 7, stddev and cv 0", d)
	}
	if d := Describe(nil); d != (Dist{}) {
		t.Errorf("empty: %+v, want the zero Dist", d)
	}
	if d := Describe([]int64{0, 0, 0}); d.CV() != 0 {
		t.Errorf("zero mean: cv=%f, want 0", d.CV())
	}
}
