package sim_test

import (
	"math/rand"
	"runtime"
	"testing"

	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/obs"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// saturatedSim builds the standard saturated full-protocol system used by the
// big-n tests: every process cycling through request/hold/think as fast as
// the protocol allows.
func saturatedSim(tb testing.TB, tr *tree.Tree) *sim.Sim {
	tb.Helper()
	cfg := core.Config{K: 2, L: 8, N: tr.N(), CMAX: 4, Features: core.Full()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%2, 2, 4, 0))
	}
	return s
}

// TestZeroAllocSteadyState is the allocation contract of the kernel: once a
// saturated run has warmed past convergence into steady churn, stepping the
// simulator performs ZERO heap allocations — no message frames, no closure
// boxes, no interface conversions, no store growth. Message nodes recycle
// through the hub's free list, the action set is preallocated, the wake
// heap reaches its peak in the warm-up (TestWakeHeapOccupancy), and every
// hot-path callback is a method value bound at construction. The contract
// holds with Options.Obs and a checker.CensusMonitor attached: the registry
// does no per-step work, and the monitor's one Health read per step is
// field compares, never allocation. And it holds across the action set's two forms: a burst of 40
// garbage frames spills the sorted array into the bitmaps, draining them
// extracts it back, and both forms were sized at construction.
func TestZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *tree.Tree
	}{
		{"chain-255", tree.Chain(255)},
		{"star-255", tree.Star(255)},
		{"prufer-255", tree.Prufer(255, rand.New(rand.NewSource(7)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			cfg := core.Config{K: 2, L: 8, N: tr.N(), CMAX: 4, Features: core.Full()}
			reg := obs.NewRegistry()
			s := sim.MustNew(tr, cfg, sim.Options{Seed: 1, Obs: reg})
			mon := checker.NewCensusMonitor(s)
			for p := 0; p < tr.N(); p++ {
				workload.Attach(s, p, workload.Fixed(1+p%2, 2, 4, 0))
			}
			s.Run(100_000) // converge and reach steady-state capacities
			if _, ok := mon.ConvergedAt(); !ok {
				t.Fatal("the monitor saw no convergence in the warm-up")
			}
			allocs := testing.AllocsPerRun(10, func() {
				s.Run(2_000)
			})
			if allocs != 0 {
				t.Errorf("steady-state stepping allocates: %.4f allocs per 2000-step run, want 0", allocs)
			}
			const spills = "kofl_sim_actionset_spills_total"
			before := promValue(t, reg, spills)
			allocs = testing.AllocsPerRun(10, func() {
				for p := 1; p <= 40; p++ {
					s.Seed(p, 0, message.Message{}) // no protocol kind: dropped on delivery
				}
				s.Run(2_000)
			})
			if allocs != 0 {
				t.Errorf("spilling and unspilling the action set allocates: %.4f allocs per burst, want 0", allocs)
			}
			if got := promValue(t, reg, spills) - before; got != 11 {
				t.Errorf("%d spills over 11 bursts (one warm-up, ten measured), want one each", got)
			}
			if got := promValue(t, reg, "kofl_sim_enabled_actions"); got > 16 {
				t.Errorf("%d actions still enabled after the last burst drained", got)
			}
		})
	}
}

// TestBigNSmoke builds and steps a 65535-process system — fast enough to run
// under -short on every CI pass. It pins the properties that make big n
// feasible at all: near-linear construction (the O(n²) tree walk and
// quadratic channel setup are gone), stepping from a cold start, and a
// maintained census that agrees with the full-scan oracle after the run.
func TestBigNSmoke(t *testing.T) {
	const n = 65535
	tr := tree.Prufer(n, rand.New(rand.NewSource(42)))
	s := saturatedSim(t, tr)
	if done := s.Run(200_000); done != 200_000 {
		t.Fatalf("ran %d steps, want 200000", done)
	}
	if got, want := s.Census(), s.CensusScan(); got != want {
		t.Errorf("maintained census diverged from scan oracle:\n  maintained: %v\n  scan:       %v", got, want)
	}
	if s.Census().Res() != s.Cfg.L {
		t.Errorf("resource population = %d, want %d", s.Census().Res(), s.Cfg.L)
	}
}

// TestBytesPerProcessCeiling pins the memory layout by the number the
// repository's benchmark reports as bytes_per_process, measured by the same
// recipe (buildSim in benchmark/simphase.go): the GC-fenced HeapAlloc delta
// around sim.New, one Fixed cycle attached per process and the census
// monitor. The layout lands near 161 B/process (two 16-byte channel headers,
// a 32-byte process line holding the application, the wake time, the id and
// the first channel index, a 24-byte protocol slot, a 48-byte Cycle and a
// few words of tables: the
// id→slot map, the per-slot ordinal offsets and the dense action set's
// bitmap; the wake heap is a few dozen entries whatever n is); the ceiling
// leaves room for the allocator's rounding at small n, not for another
// per-process table. The live heap is measured again after 8n steps, and
// must be within 1 B/process of the first reading, so that no cost hides
// past the construction fence: the message store, the wake heap, the action
// set and the monitor's violation record grow only with what is in flight
// or asleep, never with the steps run.
func TestBytesPerProcessCeiling(t *testing.T) {
	const n, ceiling = 4096, 165
	tr := tree.Prufer(n, rand.New(rand.NewSource(7)))
	var before, built, warm runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := saturatedSim(t, tr)
	mon := checker.NewCensusMonitor(s)
	runtime.GC()
	runtime.ReadMemStats(&built)
	s.Run(8 * n)
	runtime.GC()
	runtime.ReadMemStats(&warm)
	perProc := func(after *runtime.MemStats) float64 {
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	}
	for _, m := range []struct {
		when  string
		after *runtime.MemStats
	}{{"after construction", &built}, {"after 8n steps", &warm}} {
		if got := perProc(m.after); got > ceiling {
			t.Errorf("%.1f B/process at n=%d %s, want ≤ %d", got, n, m.when, ceiling)
		}
		t.Logf("%.1f B/process at n=%d %s", perProc(m.after), n, m.when)
	}
	if grew := perProc(&warm) - perProc(&built); grew > 1 {
		t.Errorf("the live heap grew by %.1f B/process over 8n steps, want ≤ 1", grew)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(mon)
}

// TestWakeHeapOccupancy pins what the wake heap holds under the benchmark's
// recipe (buildSim in benchmark/simphase.go, here with the scheduler seeded
// 1) at n = 4096: converged under the census monitor, warmed for
// max(8n, 50 000) steps, then stepped as long again. New gives the heap a small fixed capacity rather than one
// entry per process, and in this saturated run only a handful of
// applications sleep at once, so the heap never grows past it.
func TestWakeHeapOccupancy(t *testing.T) {
	const n = 4096
	s := saturatedSim(t, tree.Prufer(n, rand.New(rand.NewSource(7))))
	mon := checker.NewCensusMonitor(s)
	if !s.RunUntil(n*10_000, func() bool { _, ok := mon.ConvergedAt(); return ok }) {
		t.Fatalf("not converged after %d steps", s.Steps)
	}
	warm := int64(max(8*n, 50_000))
	for _, phase := range []string{"warm-up", "steady stepping"} {
		s.Run(warm)
		if now, initial := sim.WakeHeapCap(s); now != initial {
			t.Fatalf("wake heap capacity %d after the %s, want the starting %d", now, phase, initial)
		}
	}
}
