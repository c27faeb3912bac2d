// Benchmarks regenerating every table and figure of the paper (one bench per
// experiment id of DESIGN.md §3) plus micro-benchmarks of the simulation
// kernel. Run them all with:
//
//	go test -bench=. -benchmem
//
// Each experiment bench measures the cost of one full regeneration of its
// table and reports the experiment's headline number as a custom metric so
// `go test -bench` output doubles as a results summary. EXPERIMENTS.md
// records the paper-vs-measured comparison in prose.
package kofl_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"kofl"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/experiments"
	"kofl/internal/message"
	"kofl/internal/obs"
	"kofl/internal/serve"
	"kofl/internal/serve/loadgen"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// BenchmarkFig1Circulation measures depth-first circulation of a single
// resource token (Figure 1): the cost of one full lap of the virtual ring on
// the paper's tree.
func BenchmarkFig1Circulation(b *testing.B) {
	tr := tree.Paper()
	cfg := core.Config{K: 1, L: 1, N: tr.N(), CMAX: 0, Features: core.Naive()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})
	s.Seed(tr.Root(), 0, message.NewRes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(int64(tr.RingLen())) // one lap = 2(n-1) deliveries
	}
	b.ReportMetric(float64(tr.RingLen()), "hops/lap")
}

// BenchmarkFig2Deadlock runs the naive variant into Figure 2's deadlock and
// verifies the blocked reservation pattern, per iteration.
func BenchmarkFig2Deadlock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := tree.Paper()
		cfg := core.Config{K: 3, L: 5, N: tr.N(), CMAX: 0, Features: core.Naive()}
		s := sim.MustNew(tr, cfg, sim.Options{Seed: int64(i)})
		r, a := tree.PaperID("r"), tree.PaperID("a")
		s.Seed(r, tr.ChannelTo(r, a), message.NewRes(), message.NewRes())
		s.Seed(a, tr.ChannelTo(a, tree.PaperID("b")), message.NewRes())
		s.Seed(a, tr.ChannelTo(a, tree.PaperID("c")), message.NewRes())
		s.Seed(r, tr.ChannelTo(r, tree.PaperID("d")), message.NewRes())
		for name, need := range map[string]int{"a": 3, "b": 2, "c": 2, "d": 2} {
			workload.Attach(s, tree.PaperID(name), workload.Fixed(need, 10, 0, -1))
			if err := s.Handle(tree.PaperID(name)).Request(need); err != nil {
				b.Fatal(err)
			}
		}
		s.Run(10_000)
		if !s.Quiescent() {
			b.Fatal("naive variant did not deadlock")
		}
	}
}

// BenchmarkFig3Livelock replays Figure 3's livelock cycle; the metric is the
// cost of one full 12-action cycle that starves process a.
func BenchmarkFig3Livelock(b *testing.B) {
	tb := experiments.Fig3(1)
	if len(tb.Rows) == 0 {
		b.Fatal("no rows")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig3(int64(i))
	}
}

// BenchmarkFig4VirtualRing measures the Euler-tour (virtual ring)
// construction across the sweep topologies.
func BenchmarkFig4VirtualRing(b *testing.B) {
	trs := []*tree.Tree{tree.Paper(), tree.Chain(64), tree.Star(64), tree.Balanced(2, 5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			if len(tr.EulerTour()) != tr.RingLen() {
				b.Fatal("bad ring")
			}
		}
	}
}

// BenchmarkT1Convergence measures one full convergence from an arbitrary
// configuration (state corruption + channel garbage) on a 16-process tree.
func BenchmarkT1Convergence(b *testing.B) {
	steps := int64(0)
	runs := 0
	for i := 0; i < b.N; i++ {
		tr := tree.Star(16)
		sys := kofl.MustNew(tr, kofl.Options{K: 2, L: 3, CMAX: 4, Seed: int64(i)})
		sys.InjectArbitraryFaults(int64(i) + 1000)
		if !sys.RunUntilConverged(2_000_000) {
			b.Fatal("did not converge")
		}
		at, _ := sys.Converged()
		steps += at
		runs++
	}
	b.ReportMetric(float64(steps)/float64(runs), "steps/convergence")
}

// BenchmarkT2WaitingTime measures a saturated run on the paper tree and
// reports the worst observed waiting time against Theorem 2's bound.
func BenchmarkT2WaitingTime(b *testing.B) {
	var worst int64
	for i := 0; i < b.N; i++ {
		tr := tree.Paper()
		sys := kofl.MustNew(tr, kofl.Options{K: 3, L: 5, Seed: int64(i)})
		for p := 0; p < tr.N(); p++ {
			need := 1
			if p == tr.N()-1 {
				need = 3
			}
			sys.Saturate(p, need, 0, 0, 0)
		}
		sys.Run(60_000)
		if m := sys.Metrics(); m.MaxWaiting > worst {
			worst = m.MaxWaiting
			if m.MaxWaiting > m.WaitingBound {
				b.Fatalf("waiting %d exceeded bound %d", m.MaxWaiting, m.WaitingBound)
			}
		}
	}
	b.ReportMetric(float64(worst), "max-wait")
	b.ReportMetric(float64(kofl.WaitingBound(8, 5)), "bound")
}

// BenchmarkLivenessKL measures the (k,ℓ)-liveness scenario table (L14).
func BenchmarkLivenessKL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Liveness(int64(i))
	}
}

// BenchmarkAblationPusherGuard regenerates ablation A1 (erratum E1).
func BenchmarkAblationPusherGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationPusherGuard(int64(i))
	}
}

// BenchmarkAblationCountOrder regenerates ablation A2 (erratum E2).
func BenchmarkAblationCountOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationCountOrder(int64(i), true)
	}
}

// BenchmarkAblationVariants regenerates the variant ladder A3.
func BenchmarkAblationVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationVariants(int64(i))
	}
}

// BenchmarkThroughput measures grant throughput of the full protocol under
// saturation on stars of growing size (table P1's headline series).
func BenchmarkThroughput(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run("star-"+strconv.Itoa(n), func(b *testing.B) {
			tr := tree.Star(n)
			sys := kofl.MustNew(tr, kofl.Options{K: 2, L: 5, Seed: 1})
			for p := 0; p < tr.N(); p++ {
				sys.Saturate(p, 1+p%2, 0, 0, 0)
			}
			b.ResetTimer()
			sys.Run(int64(b.N))
			b.StopTimer()
			m := sys.Metrics()
			if b.N > 1000 {
				b.ReportMetric(float64(m.TotalGrants)/float64(b.N)*10_000, "grants/10k-steps")
			}
		})
	}
}

// BenchmarkControlOverhead measures controller deliveries per grant (P2).
func BenchmarkControlOverhead(b *testing.B) {
	tr := tree.Paper()
	sys := kofl.MustNew(tr, kofl.Options{K: 3, L: 5, Seed: 1})
	for p := 0; p < tr.N(); p++ {
		sys.Saturate(p, 1+p%3, 3, 6, 0)
	}
	b.ResetTimer()
	sys.Run(int64(b.N))
	b.StopTimer()
	m := sys.Metrics()
	if m.TotalGrants > 0 && b.N > 1000 {
		b.ReportMetric(float64(sys.Sim().Delivered[message.Ctrl])/float64(m.TotalGrants), "ctrl-msgs/grant")
	}
}

// BenchmarkBaselineRing regenerates the B1 tree-vs-ring comparison table.
func BenchmarkBaselineRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Baseline(int64(i), true)
	}
}

// BenchmarkExtension regenerates the E5 spanning-tree composition table.
func BenchmarkExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Extension(int64(i), true)
	}
}

// campaignBenchSpec is the standard parallel-speedup workload: a 64-cell
// grid (8 topologies × 4 (k,ℓ) pairs × 2 storm schedules) of short
// independent runs — enough cells that the worker pool, not any single run,
// dominates wall-clock time.
func campaignBenchSpec() kofl.CampaignSpec {
	var topos []kofl.CampaignTopology
	for _, n := range []int{8, 12, 16, 24} {
		topos = append(topos,
			kofl.CampaignTopology{Kind: "chain", N: n},
			kofl.CampaignTopology{Kind: "star", N: n})
	}
	return kofl.CampaignSpec{
		Name:       "BENCH-campaign",
		Topologies: topos,
		KL:         []kofl.CampaignKL{{K: 1, L: 1}, {K: 2, L: 3}, {K: 3, L: 5}, {K: 2, L: 8}},
		Seeds:      kofl.CampaignSeeds{First: 1, Count: 1},
		Steps:      10_000,
		Workload:   kofl.CampaignWorkload{Need: 0, Hold: 2, Think: 4},
		Faults:     kofl.CampaignFaults{StormPeriods: []int64{0, 4_000}},
	}
}

// scalingWorkerCounts returns the benchmark's worker-count curve: 1, 2, 4, …
// doubling up to max, with max itself always the last point (so a 6-proc
// runner measures 1, 2, 4, 6).
func scalingWorkerCounts(max int) []int {
	var counts []int
	for w := 1; w < max; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, max)
}

// BenchmarkCampaignScaling measures the campaign engine's parallel scaling
// curve: the 64-cell standard grid at every worker count in {1, 2, 4, …,
// GOMAXPROCS}. For each point it verifies the determinism contract (the
// aggregate JSON must be byte-identical to the 1-worker report), computes
// speedup and parallel efficiency (speedup/workers) against the 1-worker
// time, and measures allocations per slot on the serial run. The whole curve
// is recorded in BENCH_campaign.json so the perf trajectory tracks parallel
// scaling across PRs (scripts/check_bench.sh guards the record). On a
// single-proc runtime extra workers time-slice one core, so every "speedup"
// would be a meaningless ~1×: the bench skips instead of recording a
// degenerate curve (the JSON from such a run would poison the perf
// trajectory).
func BenchmarkCampaignScaling(b *testing.B) {
	maxProcs := runtime.GOMAXPROCS(0)
	if maxProcs < 2 {
		b.Skipf("GOMAXPROCS = %d: parallel scaling needs ≥ 2 procs to mean anything; not recording", maxProcs)
	}
	spec := campaignBenchSpec()
	cells, err := spec.Cells()
	if err != nil {
		b.Fatal(err)
	}
	if len(cells) < 64 {
		b.Fatalf("bench spec has %d cells, want ≥ 64", len(cells))
	}
	slots := len(cells) * spec.Seeds.Count
	type point struct {
		Workers    int     `json:"workers"`
		Secs       float64 `json:"secs"`
		Speedup    float64 `json:"speedup"`
		Efficiency float64 `json:"efficiency"`
	}
	var points []point
	var allocsPerSlot, bytesPerSlot float64
	for i := 0; i < b.N; i++ {
		points = points[:0]
		var refJSON []byte
		for _, w := range scalingWorkerCounts(maxProcs) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			rep, err := kofl.RunCampaign(spec, w)
			if err != nil {
				b.Fatal(err)
			}
			secs := time.Since(t0).Seconds()
			runtime.ReadMemStats(&after)
			j, err := rep.JSON()
			if err != nil {
				b.Fatal(err)
			}
			if refJSON == nil {
				refJSON = j
			} else if !bytes.Equal(refJSON, j) {
				b.Fatalf("aggregate JSON differs between 1 and %d workers", w)
			}
			if w == 1 {
				allocsPerSlot = float64(after.Mallocs-before.Mallocs) / float64(slots)
				bytesPerSlot = float64(after.TotalAlloc-before.TotalAlloc) / float64(slots)
			}
			secs1 := secs // the curve's first point is the 1-worker run
			if len(points) > 0 {
				secs1 = points[0].Secs
			}
			speedup := secs1 / secs
			points = append(points, point{
				Workers:    w,
				Secs:       secs,
				Speedup:    speedup,
				Efficiency: speedup / float64(w),
			})
		}
	}
	last := points[len(points)-1]
	b.ReportMetric(last.Speedup, "speedup-maxw")
	b.ReportMetric(last.Efficiency, "efficiency-maxw")
	b.ReportMetric(allocsPerSlot, "allocs/slot")

	record := struct {
		Name          string  `json:"name"`
		Cells         int     `json:"cells"`
		RunsPer       int     `json:"runs_per_cell"`
		Steps         int64   `json:"steps_per_run"`
		GOMAXPROCS    int     `json:"gomaxprocs"`
		AllocsPerSlot float64 `json:"allocs_per_slot"`
		BytesPerSlot  float64 `json:"bytes_per_slot"`
		Points        []point `json:"points"`
	}{
		Name:          spec.Name,
		Cells:         len(cells),
		RunsPer:       spec.Seeds.Count,
		Steps:         spec.Steps,
		GOMAXPROCS:    maxProcs,
		AllocsPerSlot: allocsPerSlot,
		BytesPerSlot:  bytesPerSlot,
		Points:        points,
	}
	out, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_campaign.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCampaignRun measures one full standard-grid campaign at the
// default worker count (one per logical CPU) — the number CI watches for
// regressions in per-run cost.
func BenchmarkCampaignRun(b *testing.B) {
	spec := campaignBenchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := kofl.RunCampaign(spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// stepBenchTrees returns the step-throughput sweep: path, star, broom and
// Prüfer-uniform random trees at n ∈ {15, 63, 255, 1023}.
func stepBenchTrees() []struct {
	family string
	n      int
	tr     *tree.Tree
} {
	var out []struct {
		family string
		n      int
		tr     *tree.Tree
	}
	for _, n := range []int{15, 63, 255, 1023} {
		for _, f := range []struct {
			family string
			build  func(int) *tree.Tree
		}{
			{"path", tree.Chain},
			{"star", tree.Star},
			{"broom", func(n int) *tree.Tree { return tree.Broom(n/2, n-n/2) }},
			{"prufer", func(n int) *tree.Tree { return tree.Prufer(n, rand.New(rand.NewSource(42))) }},
		} {
			out = append(out, struct {
				family string
				n      int
				tr     *tree.Tree
			}{f.family, n, f.build(n)})
		}
	}
	return out
}

// saturatedThroughput builds the standard saturated full-protocol scenario
// on tr under the given kernel options — shared by BenchmarkStepThroughput
// and BenchmarkCensusThroughput so the two recorded benchmarks can never
// drift onto different workloads — optionally attaches the fused census
// monitor, warms into steady churn, and returns measured steps/sec.
func saturatedThroughput(tr *tree.Tree, opts sim.Options, monitored bool, warm, measure int64) float64 {
	cfg := core.Config{K: 2, L: 8, N: tr.N(), CMAX: 4, Features: core.Full()}
	opts.Seed = 1
	s := sim.MustNew(tr, cfg, opts)
	if monitored {
		checker.NewCensusMonitor(s)
	}
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%2, 2, 4, 0))
	}
	s.Run(warm)
	t0 := time.Now()
	done := s.Run(measure)
	return float64(done) / time.Since(t0).Seconds()
}

// BenchmarkStepThroughput is the tentpole number of the incremental
// enabled-action kernel: steps/sec with the legacy full-rescan kernel vs the
// incremental ActionSet kernel, across path/star/broom/random topologies at
// n ∈ {15, 63, 255, 1023}. Both kernels execute the byte-identical action
// sequence (the differential tests prove it), so the ratio is pure
// scheduling-kernel cost. Results are recorded in BENCH_step.json; the
// headline metric is the worst speedup over the n=1023 topologies
// (target ≥ 5×).
func BenchmarkStepThroughput(b *testing.B) {
	type entry struct {
		Topology   string  `json:"topology"`
		N          int     `json:"n"`
		ScanPerSec float64 `json:"scan_steps_per_sec"`
		IncrPerSec float64 `json:"incremental_steps_per_sec"`
		Speedup    float64 `json:"speedup"`
	}
	var entries []entry
	var worst1023 float64
	for i := 0; i < b.N; i++ {
		entries = entries[:0]
		worst1023 = 0
		for _, tc := range stepBenchTrees() {
			warm, measure := int64(20_000), int64(30_000)
			scan := saturatedThroughput(tc.tr, sim.Options{FullRescan: true}, false, warm, measure)
			incr := saturatedThroughput(tc.tr, sim.Options{}, false, warm, measure)
			e := entry{
				Topology:   tc.family,
				N:          tc.n,
				ScanPerSec: scan,
				IncrPerSec: incr,
				Speedup:    incr / scan,
			}
			entries = append(entries, e)
			if tc.n == 1023 && (worst1023 == 0 || e.Speedup < worst1023) {
				worst1023 = e.Speedup
			}
		}
	}
	b.ReportMetric(worst1023, "min-speedup-n1023")

	// Instrumentation-overhead guard: the same saturated scenario at n=1023
	// with Options.Obs + Options.Journal attached vs bare. Three layers of
	// noise control, each against a different noise source: interleaved
	// slices (base, instr, base, …) cancel low-frequency drift — thermal,
	// noisy neighbors on a shared box; the per-side median slice discards
	// interference spikes; and the median over three independently built
	// sim pairs damps allocation-layout luck (cache aliasing differs per
	// heap layout). Sequential paired runs swing ±10% on this machine;
	// this estimator stays within a percent. check_bench.sh enforces ≤ 2%.
	var obsBase, obsInstr, obsOverhead float64
	for _, tc := range stepBenchTrees() {
		if tc.n != 1023 {
			continue
		}
		build := func(opts sim.Options) *sim.Sim {
			cfg := core.Config{K: 2, L: 8, N: tc.tr.N(), CMAX: 4, Features: core.Full()}
			opts.Seed = 1
			s := sim.MustNew(tc.tr, cfg, opts)
			for p := 0; p < tc.tr.N(); p++ {
				workload.Attach(s, p, workload.Fixed(1+p%2, 2, 4, 0))
			}
			s.Run(50_000) // converge into steady churn
			return s
		}
		median := func(v []float64) float64 {
			sort.Float64s(v)
			return v[len(v)/2]
		}
		const pairs, slices, sliceSteps = 3, 8, 100_000
		var fracs, bases, instrs []float64
		for p := 0; p < pairs; p++ {
			sBase := build(sim.Options{})
			sInstr := build(sim.Options{
				Obs:     obs.NewRegistry(),
				Journal: obs.NewJournal(1024, nil),
			})
			var tB, tI []float64
			for i := 0; i < slices; i++ {
				t0 := time.Now()
				sBase.Run(sliceSteps)
				tB = append(tB, time.Since(t0).Seconds())
				t0 = time.Now()
				sInstr.Run(sliceSteps)
				tI = append(tI, time.Since(t0).Seconds())
			}
			mB, mI := median(tB), median(tI)
			fracs = append(fracs, mI/mB-1)
			bases = append(bases, sliceSteps/mB)
			instrs = append(instrs, sliceSteps/mI)
		}
		obsOverhead = median(fracs)
		obsBase = median(bases)
		obsInstr = median(instrs)
		break
	}
	b.ReportMetric(obsOverhead, "obs-overhead-frac")

	record := struct {
		Name            string  `json:"name"`
		StepsPerMeasure int64   `json:"steps_per_measurement"`
		GOMAXPROCS      int     `json:"gomaxprocs"`
		MinSpeedupN1023 float64 `json:"min_speedup_n1023"`
		ObsOverheadFrac float64 `json:"obs_overhead_frac"`
		ObsBasePerSec   float64 `json:"obs_base_steps_per_sec"`
		ObsInstrPerSec  float64 `json:"obs_instr_steps_per_sec"`
		Entries         []entry `json:"entries"`
	}{
		Name:            "BENCH-step-throughput",
		StepsPerMeasure: 30_000,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		MinSpeedupN1023: worst1023,
		ObsOverheadFrac: obsOverhead,
		ObsBasePerSec:   obsBase,
		ObsInstrPerSec:  obsInstr,
		Entries:         entries,
	}
	out, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_step.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCensusThroughput is the tentpole number of the incremental census
// kernel: monitored steps/sec — a CensusMonitor attached, as in every
// campaign run — with the snapshot census recomputed each step
// (Options.ScanCensus, the before side) vs the incrementally maintained
// census, across path/star/broom/random topologies at n ∈ {63, 255, 1023}.
// Both modes execute identical action sequences and report identical monitor
// readings (the census differential tests prove it), so the ratio is pure
// census-maintenance cost. Results are recorded in BENCH_census.json next to
// BENCH_step.json; the headline metric is the worst speedup over the n=1023
// topologies (target ≥ 5×).
func BenchmarkCensusThroughput(b *testing.B) {
	type entry struct {
		Topology   string  `json:"topology"`
		N          int     `json:"n"`
		ScanPerSec float64 `json:"scan_monitored_steps_per_sec"`
		IncrPerSec float64 `json:"incremental_monitored_steps_per_sec"`
		Speedup    float64 `json:"speedup"`
	}
	var entries []entry
	var worst1023 float64
	for i := 0; i < b.N; i++ {
		entries = entries[:0]
		worst1023 = 0
		for _, tc := range stepBenchTrees() {
			if tc.n < 63 {
				continue // monitor cost is O(n): the small sizes only add noise
			}
			warm, measure := int64(20_000), int64(30_000)
			scan := saturatedThroughput(tc.tr, sim.Options{ScanCensus: true}, true, warm, measure)
			incr := saturatedThroughput(tc.tr, sim.Options{}, true, warm, measure)
			e := entry{
				Topology:   tc.family,
				N:          tc.n,
				ScanPerSec: scan,
				IncrPerSec: incr,
				Speedup:    incr / scan,
			}
			entries = append(entries, e)
			if tc.n == 1023 && (worst1023 == 0 || e.Speedup < worst1023) {
				worst1023 = e.Speedup
			}
		}
	}
	b.ReportMetric(worst1023, "min-speedup-n1023")
	record := struct {
		Name            string  `json:"name"`
		StepsPerMeasure int64   `json:"steps_per_measurement"`
		GOMAXPROCS      int     `json:"gomaxprocs"`
		MinSpeedupN1023 float64 `json:"min_speedup_n1023"`
		Entries         []entry `json:"entries"`
	}{
		Name:            "BENCH-census-throughput",
		StepsPerMeasure: 30_000,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		MinSpeedupN1023: worst1023,
		Entries:         entries,
	}
	out, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_census.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBigNScale charts the big-n scaling curve of the struct-of-arrays
// kernel: steps/sec, resident bytes/process and allocations/step on
// Prüfer-uniform random trees at n ∈ {2¹⁰, 2¹², 2¹⁴, 2¹⁶, 2²⁰} under the
// standard saturated full-protocol workload. Build time and memory are
// measured around construction (GC-fenced heap delta); the step rate over a
// measured window after warming into steady churn; allocations from the
// Mallocs delta across the measured window — the recorded proof that
// steady-state stepping does not touch the heap at any size. The curve is
// recorded in BENCH_scale.json (scripts/check_bench.sh guards the schema:
// the n=2¹⁶ point must be present and no point may allocate per step).
func BenchmarkBigNScale(b *testing.B) {
	type entry struct {
		N             int     `json:"n"`
		Topology      string  `json:"topology"`
		BuildSecs     float64 `json:"build_secs"`
		BytesPerProc  float64 `json:"bytes_per_process"`
		StepsPerSec   float64 `json:"steps_per_sec"`
		AllocsPerStep float64 `json:"allocs_per_step"`
	}
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 20}
	if testing.Short() {
		sizes = sizes[:3]
	}
	var entries []entry
	for i := 0; i < b.N; i++ {
		entries = entries[:0]
		for _, n := range sizes {
			tr := tree.Prufer(n, rand.New(rand.NewSource(42)))
			cfg := core.Config{K: 2, L: 8, N: n, CMAX: 4, Features: core.Full()}

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})
			for p := 0; p < n; p++ {
				workload.Attach(s, p, workload.Fixed(1+p%2, 2, 4, 0))
			}
			buildSecs := time.Since(t0).Seconds()
			runtime.GC()
			runtime.ReadMemStats(&after)
			bytesPerProc := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)

			// Warm past convergence into steady churn: a few virtual-ring
			// laps, floored so small trees still mix.
			warm := int64(max(8*n, 50_000))
			measure := int64(max(2*n, 30_000))
			s.Run(warm)
			runtime.ReadMemStats(&before)
			t0 = time.Now()
			done := s.Run(measure)
			secs := time.Since(t0).Seconds()
			runtime.ReadMemStats(&after)

			entries = append(entries, entry{
				N:             n,
				Topology:      "prufer",
				BuildSecs:     buildSecs,
				BytesPerProc:  bytesPerProc,
				StepsPerSec:   float64(done) / secs,
				AllocsPerStep: float64(after.Mallocs-before.Mallocs) / float64(done),
			})
		}
	}
	last := entries[len(entries)-1]
	b.ReportMetric(last.StepsPerSec, "steps/s-maxn")
	b.ReportMetric(last.BytesPerProc, "B/proc-maxn")
	b.ReportMetric(last.AllocsPerStep, "allocs/step-maxn")
	if testing.Short() {
		return // partial curve: don't overwrite the recorded file
	}
	record := struct {
		Name       string  `json:"name"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Entries    []entry `json:"entries"`
	}{
		Name:       "BENCH-bign-scale",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Entries:    entries,
	}
	out, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimStep is the kernel micro-benchmark: one scheduler step of the
// full protocol under load on the paper tree.
func BenchmarkSimStep(b *testing.B) {
	tr := tree.Paper()
	sys := kofl.MustNew(tr, kofl.Options{K: 3, L: 5, Seed: 1})
	for p := 0; p < tr.N(); p++ {
		sys.Saturate(p, 1+p%3, 2, 4, 0)
	}
	sys.Run(10_000) // warm: converged, steady churn
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkLargeTree exercises scaling: one step on a 1024-process
// caterpillar under saturation.
func BenchmarkLargeTree(b *testing.B) {
	tr := tree.Caterpillar(256, 3)
	sys := kofl.MustNew(tr, kofl.Options{K: 2, L: 8, Seed: 1})
	for p := 0; p < tr.N(); p++ {
		sys.Saturate(p, 1+p%2, 10, 100, 0)
	}
	sys.Run(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkWaitingMonitor measures the per-event cost of the waiting-time and
// grants monitors on an event-heavy run (every process cycling through
// request/enter/exit as fast as the protocol allows). The "flat" case is the
// shipping slice-based checker.Waiting; "legacyMap" replays the historical
// map-based implementation inline, so the allocs/op column shows the delta
// the flattening bought (the flat monitor allocates only on the amortized
// samples-slice growth; the map version churned buckets on every
// request/grant pair).
func BenchmarkWaitingMonitor(b *testing.B) {
	const steps = 200_000
	run := func(b *testing.B, attach func(s *sim.Sim)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := tree.Star(16)
			cfg := core.Config{K: 2, L: 4, N: tr.N(), CMAX: 4, Features: core.Full()}
			s := sim.MustNew(tr, cfg, sim.Options{Seed: 11})
			attach(s)
			for p := 0; p < tr.N(); p++ {
				workload.Attach(s, p, workload.Fixed(1+p%2, 0, 0, 0))
			}
			s.Run(steps)
		}
		b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("flat", func(b *testing.B) {
		run(b, func(s *sim.Sim) {
			checker.NewWaiting(s)
			checker.NewGrants(s)
		})
	})
	b.Run("legacyMap", func(b *testing.B) {
		run(b, func(s *sim.Sim) {
			// The pre-flattening Waiting: map-keyed pending/per-proc state.
			pendingAt := map[int]int64{}
			perProc := map[int]int64{}
			var samples []int64
			var totalEnters, max int64
			checker.NewGrants(s)
			s.AddObserver(func(e core.Event) {
				switch e.Kind {
				case core.EvRequest:
					pendingAt[e.P] = totalEnters
				case core.EvEnterCS:
					if at, ok := pendingAt[e.P]; ok {
						wait := totalEnters - at
						samples = append(samples, wait)
						if wait > max {
							max = wait
						}
						if wait > perProc[e.P] {
							perProc[e.P] = wait
						}
						delete(pendingAt, e.P)
					}
					totalEnters++
				}
			})
		})
	})
}

// BenchmarkServe measures the lease server end to end: open-loop offered
// load swept from 100/s to 12800/s — past the knee, until overload rejects
// appear — against a live TCP server on the paper's tree, recording
// throughput and p50/p95/p99 acquire latency per rate into BENCH_serve.json
// (guarded by scripts/check_bench.sh: every point must have completed
// acquires and non-empty percentiles). The latency is measured from the
// scheduled arrival — coordinated-omission corrected — so the p99 honestly
// includes queueing behind the protocol's token circulation.
func BenchmarkServe(b *testing.B) {
	// A single-proc run time-slices the 8 load clients against the server on
	// one core; check_bench.sh rejects such records, so refuse to write one
	// (run with GOMAXPROCS >= 2 to re-record the curve).
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("BENCH_serve needs GOMAXPROCS >= 2 for an honest concurrent record")
	}
	rates := []float64{100, 400, 1600, 3200, 6400, 12800}
	var entries []loadgen.Result
	for i := 0; i < b.N; i++ {
		entries = entries[:0]
		for _, rate := range rates {
			// QueueDepth 8 keeps the post-schedule drain bounded: the sweep
			// measures steady-state shedding behavior, not how long a huge
			// backlog takes to empty at protocol speed.
			s, err := serve.New(tree.Paper(), serve.Options{K: 3, L: 5, QueueDepth: 8})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			res, err := loadgen.Run(loadgen.Config{
				Addr:     s.Addr(),
				Clients:  8,
				Rate:     rate,
				Duration: 1500 * time.Millisecond,
				MaxUnits: 3,
				Seed:     int64(rate),
			})
			s.Close()
			if err != nil {
				b.Fatal(err)
			}
			if res.Violations != 0 {
				b.Fatalf("rate %v: %d protocol violations", rate, res.Violations)
			}
			entries = append(entries, res)
		}
	}
	for _, e := range entries {
		if e.OfferedRate == 1600 {
			b.ReportMetric(e.ThroughputPerSec, "acquires/sec@1600")
			b.ReportMetric(float64(e.LatencyP99us), "p99-us@1600")
		}
	}
	record := struct {
		Name       string           `json:"name"`
		Tree       string           `json:"tree"`
		K          int              `json:"k"`
		L          int              `json:"l"`
		GOMAXPROCS int              `json:"gomaxprocs"`
		Entries    []loadgen.Result `json:"entries"`
	}{
		Name:       "BENCH-serve",
		Tree:       "paper",
		K:          3,
		L:          5,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Entries:    entries,
	}
	out, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
