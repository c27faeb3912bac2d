package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kofl/internal/obs"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v: the reported percentile needs ≥%d samples beyond it",
				c.n, got, c.want, tailBeyond)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.875: 4.5, 1: 5} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(values, n=4); the values below are what it returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != 10.5/4 {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
}

func TestSegmentRates(t *testing.T) {
	work := []float64{100, 100, 100, 100, 100}
	secs := []float64{1, 1.25, 10, 1, 2} // three segments hit by stalls
	best, med, spr := segmentRates(work, secs)
	if best != 100 {
		t.Errorf("best segment rate = %v, want 100: a stall only ever slows a segment", best)
	}
	if med != 80 {
		t.Errorf("median-of-segments rate = %v, want 80 (the whole-run mean would be %.1f)", med, 500/15.25)
	}
	// Rates 10, 50, 80, 100, 100: quartiles 30 and 100.
	if want := 70.0 / 80; math.Abs(spr-want) > 1e-12 {
		t.Errorf("spread of segment rates = %v, want %v", spr, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "acquire", Start: 10, End: 30, Parent: 0},
		{Name: "probe", Start: 20, End: 50, Parent: 0},    // overlaps acquire: counted once
		{Name: "release", Start: 60, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "inner", Start: 12, End: 20, Parent: 1},
	}
	want := []int64{100 - (40 + 40), 20 - 8, 30, 60, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	ls := layers(spans)
	if ls[0].Name != "request" || ls[0].Count != 1 || ls[0].SelfMS != 20e-6 {
		t.Errorf("layer roll-up of request = %+v", ls[0])
	}
}

func TestRestabilizeFromJournal(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	entries := []obs.Entry{
		{Time: ms(0), Kind: obs.KindStabilized},
		{Time: ms(5), Kind: obs.KindLeaseGrant},
		// Fault 1: noticed at 110, repaired at 140.
		{Time: ms(100), Kind: obs.KindFaultInjected},
		{Time: ms(110), Kind: obs.KindDestabilized},
		{Time: ms(120), Kind: obs.KindTimeout},
		{Time: ms(140), Kind: obs.KindStabilized},
		// Fault 2 and, before its repair, fault 3 on a tree still broken:
		// both are repaired by the edge at 290.
		{Time: ms(200), Kind: obs.KindFaultInjected},
		{Time: ms(210), Kind: obs.KindDestabilized},
		{Time: ms(250), Kind: obs.KindFaultInjected},
		{Time: ms(290), Kind: obs.KindStabilized},
		// Fault 4 is never noticed, so the stabilized edge that would prove
		// its repair never comes.
		{Time: ms(300), Kind: obs.KindFaultInjected},
	}
	got, unrepaired := restabilizeTimes(entries)
	want := []float64{40, 90, 40}
	if len(got) != len(want) || unrepaired != 1 {
		t.Fatalf("restabilizeTimes = %v, unrepaired %d; want %v, unrepaired 1", got, unrepaired, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("repair %d took %v ms, want %v", i, got[i], want[i])
		}
	}
}

// BENCHMARK.json declares to the driver what the program measures; the two
// must name the same workloads and metrics with the same units and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || (m.Better == "lower") != d.lowerBetter || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, m, d)
		}
	}
	if len(decl.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(decl.PerLayer), len(perLayerNames))
	}
	for i, m := range decl.PerLayer {
		if m.Name != perLayerNames[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %q, the program %q", i, m.Name, perLayerNames[i])
		}
	}
}

func writeRun(t *testing.T, dir, name string, seed int64, res workloadResult) string {
	t.Helper()
	res.Correct = true
	if err := writeJSON(dir, name, runFile{Seed: seed, Workloads: []workloadResult{res}}); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, name)
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	compare := func(a, b string) (bool, string) {
		t.Helper()
		var out bytes.Buffer
		ok, err := compareSets(&out, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return ok, out.String()
	}
	closed := func(sha string, metrics ...metric) workloadResult {
		return workloadResult{Workload: "serve_closed_32", ReportSHA256: sha, Metrics: metrics}
	}
	base := writeRun(t, dir, "result-a.json", 1, closed("aa",
		metric{Name: "acquire_p50_ms", Value: 2.0, Unit: "ms"},
		metric{Name: "steps_per_s", Value: 4e6, Unit: "1/s", Spread: 0.3},
		metric{Name: "slots_per_s", Value: 600, Unit: "1/s", Spread: 0.3},
		metric{Name: "serve.grants_per_s", Value: 5000, Unit: "1/s"},
		metric{Name: "sim.grants", Value: 1234, Unit: "count"}))
	same := writeRun(t, dir, "result-b.json", 1, closed("aa",
		metric{Name: "acquire_p50_ms", Value: 2.1, Unit: "ms"},
		metric{Name: "steps_per_s", Value: 3e6, Unit: "1/s"},
		metric{Name: "slots_per_s", Value: 900, Unit: "1/s"},
		metric{Name: "serve.grants_per_s", Value: 3300, Unit: "1/s"},
		metric{Name: "sim.grants", Value: 1234, Unit: "count"}))
	ok, out := compare(base, same)
	if !ok {
		t.Fatalf("compare of agreeing runs failed:\n%s", out)
	}
	for _, want := range []string{
		"acquire_p50_ms", "+5.0%", "ok", // within the bound
		"unresolved",   // steps_per_s: spread 0.3 exceeds the bound
		"exact, equal", // sim.grants, and the report digest
		"campaign_report_sha256",
		"worse (demoted, issue's bound 10%), not gating", // the closed loop's ceiling fell by a third
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output lacks %q:\n%s", want, out)
		}
	}
	// slots_per_s has the same wide spread, but B beats A outright.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "slots_per_s") && !strings.HasSuffix(line, "ok") {
			t.Errorf("a metric every run of B wins is resolved: %s", line)
		}
	}

	slower := writeRun(t, dir, "result-c.json", 1, closed("aa",
		metric{Name: "acquire_p50_ms", Value: 2.0 * (1 + endToEnd[0].bound + 0.05), Unit: "ms"}))
	if ok, out := compare(base, slower); ok || !strings.Contains(out, "REGRESSED") {
		t.Errorf("a median worse by more than the bound must fail:\n%s", out)
	}
	changed := writeRun(t, dir, "result-d.json", 1, closed("aa",
		metric{Name: "sim.grants", Value: 1235, Unit: "count"}))
	if ok, out := compare(base, changed); ok || !strings.Contains(out, "MISMATCH: a simulated statistic") {
		t.Errorf("a changed simulated statistic must fail:\n%s", out)
	}
	otherReport := writeRun(t, dir, "result-e.json", 1, closed("bb",
		metric{Name: "sim.grants", Value: 1234, Unit: "count"}))
	if ok, out := compare(base, otherReport); ok || !strings.Contains(out, "MISMATCH: the campaign report") {
		t.Errorf("a changed campaign report must fail, in an untraced result file too:\n%s", out)
	}
	otherSeed := writeRun(t, dir, "result-f.json", 2, closed("cc",
		metric{Name: "sim.grants", Value: 99, Unit: "count"}))
	if ok, out := compare(base, otherSeed); !ok || !strings.Contains(out, "not compared") {
		t.Errorf("exact counts of different seeds are not comparable:\n%s", out)
	}
}

// The smoke run keeps the benchmark from rotting: every workload for 0.3 s,
// both passes, correctness gate on, no bounds.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, twice")
	}
	dir := t.TempDir()
	if code := realMain([]string{"-quick", "-seed", "3", "-out", dir}); code != 0 {
		t.Fatalf("untraced quick run exited %d", code)
	}
	if code := realMain([]string{"-quick", "-seed", "3", "-trace", "1", "-out", dir}); code != 0 {
		t.Fatalf("traced quick run exited %d", code)
	}
	set, err := loadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("%d result files, want 2", len(set))
	}
	for _, f := range set {
		want := len(endToEnd) + len(untracedExtras)
		if f.Traced {
			want = len(perLayerNames)
		}
		if len(f.Workloads) != len(workloads) {
			t.Fatalf("result file has %d workloads, want %d", len(f.Workloads), len(workloads))
		}
		for _, w := range f.Workloads {
			if !w.Correct || w.Attempted < 1 || len(w.Metrics) != want {
				t.Errorf("%s traced=%v: correct=%v attempted=%d metrics=%d (want %d) problems=%v",
					w.Workload, f.Traced, w.Correct, w.Attempted, len(w.Metrics), want, w.Problems)
			}
			for _, m := range w.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.Workload, m.Name, m.Value)
				}
			}
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("traced pass left no trace file: %v", err)
		}
	}
	// A run agrees with itself, exact counts included.
	var out bytes.Buffer
	traced := filepath.Join(dir, "result-seed3-trace1.json")
	if ok, err := compareSets(&out, traced, traced); err != nil || !ok {
		t.Errorf("a result file does not compare equal to itself: %v\n%s", err, out.String())
	}
}
