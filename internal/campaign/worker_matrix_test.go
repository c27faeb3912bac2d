package campaign

import (
	"bytes"
	"runtime"
	"testing"

	"kofl/internal/sim"
)

// TestWorkerCountDeterminismMatrix pins the engine's worker-count contract
// under the chunked work-stealing dispatcher: with outlier trace capture and
// adaptive seed escalation both active, every worker count must produce
// byte-identical partials and byte-identical escalated reports, and the
// progress counters (ExecObs) must count every executed slot once. The CI
// race pass runs this under -race, so the concurrent counters and the
// capture-replay paths are exercised with the race detector watching.
func TestWorkerCountDeterminismMatrix(t *testing.T) {
	spec := matrixSpec()
	spec.Name = "worker-matrix"
	spec.Steps = 3_000
	spec.Trace = TraceSpec{WaitingFraction: 0.05, Diverged: true}
	spec.Escalation = EscalationSpec{Rounds: 1, Factor: 2, CV: 0.3}

	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	wantShard := make([][]byte, 2)
	var wantEsc []byte
	for _, w := range workerCounts {
		eo := NewExecObs(nil)
		opts := Options{Workers: w, TraceDir: t.TempDir(), Obs: eo}
		traced := 0
		for sh := 0; sh < 2; sh++ {
			pt, err := ExecuteShard(plan, sh, 2, opts)
			if err != nil {
				t.Fatalf("workers=%d shard %d: %v", w, sh, err)
			}
			j, err := pt.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if wantShard[sh] == nil {
				wantShard[sh] = j
			} else if !bytes.Equal(wantShard[sh], j) {
				t.Fatalf("workers=%d: shard %d partial differs from workers=%d",
					w, sh, workerCounts[0])
			}
			for _, r := range pt.Results {
				if r.Result.Trace != "" {
					traced++
				}
			}
		}
		if traced == 0 {
			t.Fatalf("workers=%d: no slot was captured, so no replay ran", w)
		}
		checkProgress(t, w, eo, int64(len(plan.Slots)))

		opts.TraceDir = t.TempDir()
		esc, err := RunEscalated(spec, opts)
		if err != nil {
			t.Fatalf("workers=%d: RunEscalated: %v", w, err)
		}
		runs := int64(len(plan.Slots) + esc.Base.TotalRuns)
		for _, r := range esc.Rounds {
			runs += int64(r.TotalRuns)
		}
		checkProgress(t, w, eo, runs)
		j, err := esc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if wantEsc == nil {
			wantEsc = j
		} else if !bytes.Equal(wantEsc, j) {
			t.Fatalf("workers=%d: escalated report differs from workers=%d", w, workerCounts[0])
		}
	}
}

// checkProgress requires eo to have counted want slots in all, both in its
// total and across its per-worker counters.
func checkProgress(t *testing.T, workers int, eo *ExecObs, want int64) {
	t.Helper()
	var sum int64
	for _, n := range eo.WorkerSlots() {
		sum += n
	}
	if eo.Done() != want || sum != want {
		t.Fatalf("workers=%d: Done = %d, worker slots sum to %d, want %d", workers, eo.Done(), sum, want)
	}
}

// TestRunSlotPanicAnnotation pins the worker-panic contract: a panic inside
// a slot's simulation is re-raised annotated with the slot index, cell
// label, and seed, so a crashed campaign names the failing run.
func TestRunSlotPanicAnnotation(t *testing.T) {
	spec := matrixSpec().normalized()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]
	rt, err := newCellRuntime(spec, cell)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic propagated")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic payload %T, want annotated string", r)
		}
		for _, want := range []string{"slot 42", cell.Label(), "seed 7", "boom"} {
			if !bytes.Contains([]byte(msg), []byte(want)) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	slot := Slot{Index: 42, Cell: 0, Seed: 7}
	runSlot(spec, cell, rt, slot, newWorkerState(), func(s *sim.Sim) { panic("boom") })
}

// TestSlotAllocCeiling bounds what one slot may allocate. Steady-state slot
// execution reuses pooled worker state, so a slot costs its simulator's
// construction — ≈ 210 allocations on this 64-cell grid (chain/star ×
// n ∈ {8,12,16,24} × four (k,ℓ) pairs × storm periods {0, 4000}, 10k steps
// per run). A per-step allocation regression multiplies by those 10k steps,
// so a ceiling generous enough never to flake still catches it at once. The
// bytes are bounded too: a slot's simulator is a few KiB of tables and a
// message store sized by what is in flight, so 64 KiB catches any
// allocation sized by a constant instead (a fixed slab per simulation cost
// 512 KiB). One worker, so the Mallocs and TotalAlloc deltas are the slots'
// own.
func TestSlotAllocCeiling(t *testing.T) {
	var topos []TopologySpec
	for _, n := range []int{8, 12, 16, 24} {
		topos = append(topos, TopologySpec{Kind: "chain", N: n}, TopologySpec{Kind: "star", N: n})
	}
	spec := Spec{
		Name:       "alloc-ceiling",
		Topologies: topos,
		KL:         []KL{{K: 1, L: 1}, {K: 2, L: 3}, {K: 3, L: 5}, {K: 2, L: 8}},
		Seeds:      SeedRange{First: 1, Count: 1},
		Steps:      10_000,
		Workload:   WorkloadSpec{Need: 0, Hold: 2, Think: 4},
		Faults:     FaultSpec{StormPeriods: []int64{0, 4_000}},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(spec, Options{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const slots, ceiling, bytesCeiling = 64, 4000, 64 << 10
	if rep.TotalRuns != slots {
		t.Fatalf("grid has %d slots, want %d", rep.TotalRuns, slots)
	}
	perSlot := float64(after.Mallocs-before.Mallocs) / slots
	bytesPerSlot := float64(after.TotalAlloc-before.TotalAlloc) / slots
	t.Logf("%.0f allocs/slot, %.0f bytes/slot", perSlot, bytesPerSlot)
	if perSlot > ceiling {
		t.Errorf("allocs/slot exceeds the ceiling of %d (per-step allocation regression?)", ceiling)
	}
	if bytesPerSlot > bytesCeiling {
		t.Errorf("%.0f bytes allocated per slot exceed the ceiling of %d (a per-simulation slab?)", bytesPerSlot, bytesCeiling)
	}
}
