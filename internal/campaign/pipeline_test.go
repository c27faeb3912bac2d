package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kofl/internal/checker"
	"kofl/internal/sim"
)

// matrixSpec exercises the axes the shard-merge matrix must hold across:
// two topologies × two variants × calm and stormy columns, two seeds each.
func matrixSpec() Spec {
	return Spec{
		Name: "matrix",
		Topologies: []TopologySpec{
			{Kind: "star", N: 6},
			{Kind: "bounded", N: 7, Degree: 3, Seed: 2},
		},
		KL:       []KL{{K: 2, L: 3}},
		Variants: []string{"full", "nonstab"},
		Seeds:    SeedRange{First: 1, Count: 2},
		Steps:    5_000,
		Workload: WorkloadSpec{Need: 0, Hold: 2, Think: 4},
		Faults:   FaultSpec{StormPeriods: []int64{0, 1_500}},
	}
}

// TestShardMergeMatrix is the pipeline's core contract: for every shard
// count m, merging the m partials reproduces the unsharded report byte for
// byte — across variants, fault storms, and worker counts.
func TestShardMergeMatrix(t *testing.T) {
	spec := matrixSpec()
	want, err := Run(spec, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 3, 7} {
		var partials []*Partial
		for i := 0; i < m; i++ {
			// Vary worker counts across shards: completion order must not
			// matter anywhere in the pipeline.
			pt, err := ExecuteShard(plan, i, m, Options{Workers: 1 + (i % 3)})
			if err != nil {
				t.Fatalf("m=%d shard %d: %v", m, i, err)
			}
			partials = append(partials, pt)
		}
		// Shards must partition the slots exactly.
		covered := 0
		for _, pt := range partials {
			covered += len(pt.Results)
		}
		if covered != len(plan.Slots) {
			t.Fatalf("m=%d: shards cover %d slots, plan has %d", m, covered, len(plan.Slots))
		}
		got, err := Merge(plan, partials)
		if err != nil {
			t.Fatalf("m=%d: merge: %v", m, err)
		}
		gotJSON, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("m=%d: merged report differs from unsharded run (lens %d vs %d)",
				m, len(gotJSON), len(wantJSON))
		}
	}
	// Partials themselves must be byte-stable across worker counts.
	a, err := ExecuteShard(plan, 1, 3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteShard(plan, 1, 3, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if !bytes.Equal(aj, bj) {
		t.Fatal("partial bytes depend on worker count")
	}
}

// TestPlanRoundTrip proves plan files survive serialization: parse(JSON(p))
// validates and fingerprints identically, and tampered files are refused.
func TestPlanRoundTrip(t *testing.T) {
	plan, err := NewPlan(matrixSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != plan.Fingerprint {
		t.Fatalf("fingerprint changed across round trip: %s vs %s", back.Fingerprint, plan.Fingerprint)
	}
	if len(back.Slots) != len(plan.Slots) || len(back.Cells) != len(plan.Cells) {
		t.Fatal("plan shape changed across round trip")
	}
	// Tampering with content (the seed range) must be caught by the
	// fingerprint.
	tampered := bytes.Replace(b, []byte(`"first": 1`), []byte(`"first": 9`), 1)
	if _, err := ParsePlan(tampered); err == nil {
		t.Fatal("tampered plan accepted")
	}
	// Garbage and unknown fields must fail with context, not panic.
	if _, err := ParsePlan([]byte(`{nope`)); err == nil {
		t.Fatal("garbage plan accepted")
	}
	if _, err := ParsePlan([]byte(`{"name":"x","bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestShardValidation covers the shard partition function's edges.
func TestShardValidation(t *testing.T) {
	plan, err := NewPlan(matrixSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Shard(0, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := plan.Shard(3, 3); err == nil {
		t.Error("i=m accepted")
	}
	if _, err := plan.Shard(-1, 3); err == nil {
		t.Error("negative shard accepted")
	}
	// m larger than the slot count: some shards are empty, union still exact.
	total := 0
	for i := 0; i < len(plan.Slots)+5; i++ {
		s, err := plan.Shard(i, len(plan.Slots)+5)
		if err != nil {
			t.Fatal(err)
		}
		total += len(s)
	}
	if total != len(plan.Slots) {
		t.Errorf("oversharded union covers %d slots, want %d", total, len(plan.Slots))
	}
}

// TestMergeRejections: merge must refuse overlapping, missing, and
// mismatched-plan partials with actionable errors.
func TestMergeRejections(t *testing.T) {
	spec := matrixSpec()
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i, m int) *Partial {
		pt, err := ExecuteShard(plan, i, m, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	p0, p1 := mk(0, 2), mk(1, 2)

	if _, err := Merge(plan, nil); err == nil {
		t.Error("empty partial list accepted")
	}
	if _, err := Merge(plan, []*Partial{p0}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing coverage not rejected: %v", err)
	}
	if _, err := Merge(plan, []*Partial{p0, p1, p0}); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlap not rejected: %v", err)
	}

	// A partial from a different plan (changed steps ⇒ different
	// fingerprint) must be refused even though its shape is right.
	other := spec
	other.Steps = 4_000
	otherPlan, err := NewPlan(other)
	if err != nil {
		t.Fatal(err)
	}
	op, err := ExecuteShard(otherPlan, 0, 2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(plan, []*Partial{op, p1}); err == nil || !strings.Contains(err.Error(), "different plan") {
		t.Errorf("mismatched plan not rejected: %v", err)
	}

	// Corrupted slot index and seed must be caught.
	bad := *p0
	bad.Results = append([]SlotResult(nil), p0.Results...)
	bad.Results[0].Slot = len(plan.Slots) + 7
	if _, err := Merge(plan, []*Partial{&bad, p1}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	bad.Results[0] = p0.Results[0]
	bad.Results[0].Result.Seed += 99
	if _, err := Merge(plan, []*Partial{&bad, p1}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed mismatch not rejected: %v", err)
	}

	// Shards that disagreed on trace capture must be refused: the traced
	// shard's annotations would silently break byte identity.
	traced := *p1
	traced.Traced = true
	if _, err := Merge(plan, []*Partial{p0, &traced}); err == nil || !strings.Contains(err.Error(), "trace capture") {
		t.Errorf("mixed trace capture not rejected: %v", err)
	}

	// And the happy path still holds after all that.
	if _, err := Merge(plan, []*Partial{p0, p1}); err != nil {
		t.Fatalf("valid merge failed: %v", err)
	}
}

// escalatingSpec reliably trips the escalation predicate: stormy cells have
// spread-out convergence times, and the CV trigger is set low.
func escalatingSpec() Spec {
	sp := matrixSpec()
	sp.Name = "escalating"
	sp.Escalation = EscalationSpec{Rounds: 2, Factor: 2, CV: 0.0001}
	return sp
}

// TestEscalationReproducible is the acceptance criterion for adaptive
// escalation: the full escalated report is byte-identical run-to-run under
// fixed seeds, and identical again when every round is executed as merged
// shards instead of unsharded.
func TestEscalationReproducible(t *testing.T) {
	spec := escalatingSpec()
	a, err := RunEscalated(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEscalated(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("escalated report differs run-to-run")
	}
	if len(a.Rounds) == 0 {
		t.Fatal("escalation never triggered (vacuous test — tighten the spec)")
	}

	// Sharded escalation: execute every round as 3 merged shards and
	// assemble; must reproduce the in-process pipeline byte for byte.
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	runSharded := func(p *Plan) *Report {
		var parts []*Partial
		for i := 0; i < 3; i++ {
			pt, err := ExecuteShard(p, i, 3, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, pt)
		}
		rep, err := Merge(p, parts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := runSharded(plan)
	var rounds []*Report
	prevPlan, prevRep := plan, base
	for {
		next, err := EscalationPlan(prevPlan, prevRep)
		if err != nil {
			t.Fatal(err)
		}
		if next == nil {
			break
		}
		rep := runSharded(next)
		rounds = append(rounds, rep)
		prevPlan, prevRep = next, rep
	}
	asm, err := AssembleEscalated(base, rounds...)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := asm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, cj) {
		t.Fatal("sharded escalation differs from in-process RunEscalated")
	}
}

// TestEscalationPlanShape pins the re-planning semantics: only tripped
// cells carry over (keeping their base indices), seed ranges never overlap
// earlier rounds, and the provenance chain is validated.
func TestEscalationPlanShape(t *testing.T) {
	spec := escalatingSpec()
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runPlan(plan, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	next, err := EscalationPlan(plan, rep)
	if err != nil {
		t.Fatal(err)
	}
	if next == nil {
		t.Fatal("no escalation (vacuous test)")
	}
	if next.Round != 1 || next.Parent != plan.Fingerprint {
		t.Fatalf("round/parent wrong: %d %s", next.Round, next.Parent)
	}
	if len(next.Cells) >= len(plan.Cells) {
		t.Errorf("escalation did not shrink the grid: %d of %d cells", len(next.Cells), len(plan.Cells))
	}
	norm := spec.normalized()
	if next.Seeds.First != norm.Seeds.First+int64(norm.Seeds.Count) {
		t.Errorf("round 1 seeds start at %d, want %d", next.Seeds.First, norm.Seeds.First+int64(norm.Seeds.Count))
	}
	if next.Seeds.Count != norm.Seeds.Count*norm.Escalation.Factor {
		t.Errorf("round 1 seed count %d, want %d", next.Seeds.Count, norm.Seeds.Count*norm.Escalation.Factor)
	}
	// Escalated cells keep their base index for cross-round joins.
	seen := map[int]bool{}
	for _, c := range plan.Cells {
		seen[c.Index] = true
	}
	for _, c := range next.Cells {
		if !seen[c.Index] {
			t.Errorf("escalated cell has unknown base index %d", c.Index)
		}
	}
	// A report from the wrong plan must be refused.
	if _, err := EscalationPlan(next, rep); err == nil {
		t.Error("EscalationPlan accepted a report from a different plan")
	}
	// Rounds are capped.
	done := &Plan{Name: plan.Name, Spec: plan.Spec, Round: norm.Escalation.Rounds,
		Seeds: plan.Seeds, Cells: plan.Cells}
	done.enumerate()
	done.Fingerprint = done.fingerprint()
	if p, err := EscalationPlan(done, nil); err != nil || p != nil {
		t.Errorf("round limit not enforced: %v %v", p, err)
	}
	// AssembleEscalated rejects broken chains.
	if _, err := AssembleEscalated(rep, rep); err == nil {
		t.Error("AssembleEscalated accepted a base report as round 1")
	}
}

// TestSlotReplayIsExact: re-running a slot with extra instrumentation
// attached, as outlier trace capture does, reproduces the recorded run
// exactly. The replay's result is identical, and a monitor attached at the
// replay counts the grants the original run recorded.
func TestSlotReplayIsExact(t *testing.T) {
	plan, err := NewPlan(matrixSpec())
	if err != nil {
		t.Fatal(err)
	}
	ws := newWorkerState()
	for _, slot := range plan.Slots {
		cell := plan.Cells[slot.Cell]
		rt, err := newCellRuntime(plan.Spec, cell)
		if err != nil {
			t.Fatal(err)
		}
		want := runSlot(plan.Spec, cell, rt, slot, ws, nil)
		if want.Seed != slot.Seed {
			t.Errorf("slot %d: result seed %d, want %d", slot.Index, want.Seed, slot.Seed)
		}
		var replayed *checker.Run
		got := runSlot(plan.Spec, cell, rt, slot, ws, func(s *sim.Sim) { replayed = checker.NewRun(s) })
		if got != want {
			t.Errorf("slot %d: replay %+v differs from the recorded run %+v", slot.Index, got, want)
		}
		if replayed.Total() != want.Grants {
			t.Errorf("slot %d: replay saw %d grants, original run recorded %d",
				slot.Index, replayed.Total(), want.Grants)
		}
	}
}

// TestTraceCaptureAnnotatesOutliers: with a trace directory configured, the
// outlier predicate writes per-slot trace files, references them from the
// report, and the annotation is identical across sharded and unsharded
// execution (the acceptance-criterion byte identity with capture on).
func TestTraceCaptureAnnotatesOutliers(t *testing.T) {
	spec := matrixSpec()
	spec.Name = "traced"
	// Every cell's worst run waits ≥ a tiny fraction of the Theorem 2 bound,
	// so captures are guaranteed; diverged runs are captured too.
	spec.Trace = TraceSpec{WaitingFraction: 0.0001, Diverged: true, Cap: 500}

	dirA := t.TempDir()
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	unsharded, err := ExecuteShard(plan, 0, 1, Options{Workers: 4, TraceDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	repA, err := Merge(plan, []*Partial{unsharded})
	if err != nil {
		t.Fatal(err)
	}
	var traced int
	for _, cr := range repA.Results {
		for _, rr := range cr.Runs {
			if rr.Trace == "" {
				continue
			}
			traced++
			if !strings.HasPrefix(rr.Trace, "traced-r0-c") {
				t.Errorf("unexpected trace filename %q", rr.Trace)
			}
			st, err := os.Stat(filepath.Join(dirA, rr.Trace))
			if err != nil {
				t.Errorf("referenced trace missing: %v", err)
			} else if st.Size() == 0 {
				t.Errorf("trace %s is empty", rr.Trace)
			}
		}
	}
	if traced == 0 {
		t.Fatal("no traces captured (vacuous test)")
	}

	// Sharded execution with capture must produce the identical report.
	dirB := t.TempDir()
	var parts []*Partial
	for i := 0; i < 3; i++ {
		pt, err := ExecuteShard(plan, i, 3, Options{Workers: 2, TraceDir: dirB})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, pt)
	}
	repB, err := Merge(plan, parts)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := repA.JSON()
	bj, _ := repB.JSON()
	if !bytes.Equal(aj, bj) {
		t.Fatal("trace-annotated report differs between sharded and unsharded execution")
	}
}

// TestTraceFileNameSanitized: spec names are user input; a name with path
// separators must not let capture write outside the trace directory.
func TestTraceFileNameSanitized(t *testing.T) {
	plan := &Plan{
		Name:  "../../evil name/..x",
		Cells: []Cell{{Index: 3}},
	}
	got := traceFileName(plan, Slot{Cell: 0, Seed: 7})
	if strings.ContainsAny(got, "/\\ ") || strings.HasPrefix(got, ".") {
		t.Errorf("unsafe trace filename %q", got)
	}
	if want := "______evil_name___x-r0-c003-s7.trace"; got != want {
		t.Errorf("traceFileName = %q, want %q", got, want)
	}
	if got := traceFileName(&Plan{Cells: []Cell{{}}}, Slot{}); !strings.HasPrefix(got, "campaign-") {
		t.Errorf("empty name not defaulted: %q", got)
	}
}

// TestBoundedTopologyKind covers the bounded-degree family on the campaign
// axis: build, size, degree bound, label, validation, and an end-to-end run.
func TestBoundedTopologyKind(t *testing.T) {
	ts := TopologySpec{Kind: "bounded", N: 12, Degree: 3, Seed: 4}
	tr, err := ts.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 12 {
		t.Errorf("N = %d, want 12", tr.N())
	}
	for p := 0; p < tr.N(); p++ {
		if tr.Degree(p) > 3 {
			t.Errorf("process %d has degree %d > 3", p, tr.Degree(p))
		}
	}
	if got, want := ts.Label(), "bounded-12-d3-s4"; got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
	// Same cell ⇒ same tree.
	a, _ := ts.Build()
	b, _ := ts.Build()
	if a.String() != b.String() {
		t.Error("bounded topology not deterministic in its cell seed")
	}
	for _, bad := range []TopologySpec{
		{Kind: "bounded", N: 1, Degree: 3},
		{Kind: "bounded", N: 8, Degree: 1},
		{Kind: "bounded", N: 64, Degree: 2}, // rejection-infeasible
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("%+v: expected error", bad)
		}
	}
	rep, err := Run(Spec{
		Name:       "bounded-run",
		Topologies: []TopologySpec{ts},
		KL:         []KL{{K: 2, L: 3}},
		Seeds:      SeedRange{First: 1, Count: 1},
		Steps:      8_000,
		Workload:   WorkloadSpec{Hold: 2, Think: 4},
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].TotalGrants == 0 {
		t.Error("bounded-degree cell served no grants")
	}
}
