package adversary

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

func validScript() *Script {
	return &Script{
		Version: SchemaVersion,
		Name:    "t",
		Phases: []Phase{
			{Name: "warmup", Steps: 100},
			{Name: "storm", Steps: 200, Events: []Event{
				{Kind: "corrupt", Target: Target{Kind: "proc", Proc: 0}, Every: 50},
				{Kind: "garbage", At: 10, Count: 2},
			}},
		},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Script)
		want string
	}{
		{"version", func(sc *Script) { sc.Version = 2 }, "schema version"},
		{"no-phases", func(sc *Script) { sc.Phases = nil }, "no phases"},
		{"open-not-last", func(sc *Script) { sc.Phases[0].Steps = 0 }, "not the last phase"},
		{"open-repeat", func(sc *Script) { sc.Phases[1].Steps = 0; sc.Repeat = true }, "cannot repeat"},
		{"bad-kind", func(sc *Script) { sc.Phases[1].Events[0].Kind = "melt" }, "unknown kind"},
		{"at-and-every", func(sc *Script) { sc.Phases[1].Events[1].Every = 5 }, "mutually exclusive"},
		{"at-outside", func(sc *Script) { sc.Phases[1].Events[1].At = 200 }, "outside the phase"},
		{"bad-token", func(sc *Script) { sc.Phases[1].Events[0].Token = "gold" }, "unknown token"},
		{"bad-target", func(sc *Script) { sc.Phases[1].Events[0].Target.Kind = "moon" }, "unknown target"},
		{"storm-target", func(sc *Script) {
			sc.Phases[1].Events[0] = Event{Kind: "storm", Every: 50, Target: Target{Kind: "proc"}}
		}, "takes no target"},
		{"storm-oneshot", func(sc *Script) { sc.Phases[1].Events[0] = Event{Kind: "storm", At: 5} }, "needs a period"},
		{"neg-budget", func(sc *Script) { sc.Budget.Events = -1 }, "negative"},
		{"zero-cycle-repeat", func(sc *Script) {
			sc.Phases = []Phase{{Steps: 0}}
			sc.Repeat = true
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScript()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("validate accepted a malformed script")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := validScript().Validate(); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	sc := validScript()
	b, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip changed the script:\n%s\nvs\n%s", b, b2)
	}
	if _, err := Parse([]byte(`{"version":1,"phasess":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestCompileWindows(t *testing.T) {
	sc := validScript()
	sched, err := Compile(sc, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 0 [0,100) has no events; phase 1 [100,300): corrupt every 50
	// (150, 200, 250), garbage one-shot at 110.
	var got []string
	for _, tr := range sched.Triggers {
		got = append(got, fmt.Sprintf("%d/p%de%d", tr.Step, tr.Phase, tr.Event))
	}
	want := "110/p1e1 150/p1e0 200/p1e0 250/p1e0"
	if strings.Join(got, " ") != want {
		t.Fatalf("triggers = %v, want %s", got, want)
	}

	sc.Repeat = true
	sched, err = Compile(sc, 650)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle length 300: the second cycle contributes 410, 450, 500, 550;
	// the third cycle only reaches its event-free warmup ([600,650)) before
	// the horizon.
	got = got[:0]
	for _, tr := range sched.Triggers {
		got = append(got, fmt.Sprintf("%d", tr.Step))
	}
	want = "110 150 200 250 410 450 500 550"
	if strings.Join(got, " ") != want {
		t.Fatalf("repeat triggers = %v, want %s", got, want)
	}

	// An open final phase fills the rest of the run.
	open := &Script{Version: 1, Phases: []Phase{
		{Steps: 100},
		{Steps: 0, Events: []Event{{Kind: "reorder", Every: 300}}},
	}}
	sched, err = Compile(open, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Triggers) != 2 || sched.Triggers[0].Step != 400 || sched.Triggers[1].Step != 700 {
		t.Fatalf("open-phase triggers = %+v", sched.Triggers)
	}

	if _, err := Compile(&Script{Version: 1, Phases: []Phase{
		{Steps: 0, Events: []Event{{Kind: "reorder", Every: 1}}},
	}}, 10_000_000); err == nil {
		t.Fatal("overdense script compiled")
	}
}

// TestCompileHostileScripts: phase lengths, event offsets and horizons are
// untrusted input; values near MaxInt64 must neither hang Compile (window
// arithmetic overflow) nor allocate an oversized schedule before the
// trigger cap trips.
func TestCompileHostileScripts(t *testing.T) {
	huge := int64(1) << 62
	hostile := []*Script{
		// Overflowing repeat cycle: start+Steps wraps without clamping.
		{Version: 1, Repeat: true, Phases: []Phase{{Steps: 1}, {Steps: huge * 3}}},
		// Overflowing one-shot offset inside an open window.
		{Version: 1, Phases: []Phase{{Steps: 0, Events: []Event{{Kind: "reorder", At: huge * 3}}}}},
		// Overflowing period: start+Every wraps negative.
		{Version: 1, Phases: []Phase{{Steps: 0, Events: []Event{{Kind: "reorder", Every: huge * 3}}}}},
	}
	for i, sc := range hostile {
		if err := sc.Validate(); err != nil {
			continue // rejection is fine too
		}
		done := make(chan struct{})
		go func() {
			Compile(sc, 5_000)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("hostile script %d hung Compile", i)
		}
	}
	// A dense event must hit the trigger cap incrementally, not after
	// materializing the whole oversized schedule: with a 2^40-step horizon
	// the full expansion would be ~10^12 triggers (tens of TB).
	dense := &Script{Version: 1, Phases: []Phase{{Steps: 0, Events: []Event{{Kind: "reorder", Every: 1}}}}}
	if _, err := Compile(dense, 1<<40); err == nil {
		t.Fatal("dense script at a huge horizon compiled")
	}
}

func newSim(t *testing.T, tr *tree.Tree, seed int64) *sim.Sim {
	t.Helper()
	cfg := core.Config{K: 2, L: 3, N: tr.N(), CMAX: 4, Features: core.Full()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: seed})
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%cfg.K, 2, 5, 0))
	}
	return s
}

func TestExecutorBudgets(t *testing.T) {
	sc := &Script{
		Version: SchemaVersion,
		Budget:  Budget{Events: 3, MinGap: 150},
		Phases: []Phase{{
			Steps:  0,
			Events: []Event{{Kind: "garbage", Every: 100, Count: 1}},
		}},
	}
	s := newSim(t, tree.Paper(), 1)
	e := MustNewExecutor(s, MustCompile(sc, 2_000), 1)
	e.Run(2_000)
	// Triggers at 100..1900; MinGap 150 admits 100, 300, 500 — then the
	// 3-event cap holds.
	if e.Fired() != 3 {
		t.Fatalf("fired %d events, want 3", e.Fired())
	}
	if e.Suppressed() != 19-3 {
		t.Fatalf("suppressed %d events, want %d", e.Suppressed(), 19-3)
	}
}

func TestExecutorPhaseBudgetPerInstance(t *testing.T) {
	sc := &Script{
		Version: SchemaVersion,
		Repeat:  true,
		Phases: []Phase{{
			Steps:  500,
			Budget: Budget{Events: 1},
			Events: []Event{{Kind: "garbage", Every: 100, Count: 1}},
		}},
	}
	s := newSim(t, tree.Paper(), 1)
	e := MustNewExecutor(s, MustCompile(sc, 2_000), 1)
	e.Run(2_000)
	// 4 phase instances × 4 triggers each; each instance's budget admits 1.
	if e.Fired() != 4 {
		t.Fatalf("fired %d events, want 4 (one per phase instance)", e.Fired())
	}
}

// TestExecutorDeterminism: same (script, topology, seed) → identical fault
// effects and schedule; different seed → (almost surely) different.
func TestExecutorDeterminism(t *testing.T) {
	sc, _ := Lookup("budgeted-random")
	run := func(seed int64) string {
		s := newSim(t, tree.Broom(4, 4), seed)
		var trace []string
		s.AddStepHook(func(s *sim.Sim) { trace = append(trace, s.LastAction.String()) })
		e := MustNewExecutor(s, MustCompile(sc, 10_000), seed)
		e.Run(10_000)
		return fmt.Sprintf("fired=%d census=%v n=%d trace=%v", e.Fired(), s.Census(), len(trace), trace[len(trace)-5:])
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different executions")
	}
	if run(7) == run(8) {
		t.Fatal("different seeds produced identical executions (suspicious)")
	}
}

// TestTargets checks each target kind resolves to the expected victims on
// the paper tree (r(a(b c) d(e f g)); ids r=0 a=1 d=2 b=3 c=4 e=5 f=6 g=7).
func TestTargets(t *testing.T) {
	s := newSim(t, tree.Paper(), 1)
	procsOf := func(tg Target) []int {
		sel, ok := tg.resolveStatic(s)
		if !ok {
			t.Fatalf("target %+v did not resolve statically", tg)
		}
		return sel.procs
	}
	if got := procsOf(Target{Kind: "subtree", Proc: 1}); fmt.Sprint(got) != "[1 3 4]" {
		t.Fatalf("subtree(a) = %v, want [1 3 4]", got)
	}
	if got := procsOf(Target{Kind: "proc", Proc: 2}); fmt.Sprint(got) != "[2]" {
		t.Fatalf("proc(d) = %v", got)
	}
	// The Euler tour starts r a b a c a r d …: positions 0..2 visit r, a, b.
	if got := procsOf(Target{Kind: "ring", From: 0, Len: 3}); fmt.Sprint(got) != "[0 1 3]" {
		t.Fatalf("ring[0,3) = %v, want [0 1 3]", got)
	}
	sel, _ := Target{Kind: "channel", Proc: 0, Peer: 2}.resolveStatic(s)
	if len(sel.chans) != 2 {
		t.Fatalf("channel target resolved %d channels, want 2", len(sel.chans))
	}
	for _, c := range sel.chans {
		if e := c.Ends(); !(e.From == 0 && e.To == 2 || e.From == 2 && e.To == 0) {
			t.Fatalf("channel target picked %v", c)
		}
	}
	sel, _ = Target{Kind: "subtree", Proc: 2}.resolveStatic(s)
	for _, c := range sel.chans {
		if e := c.Ends(); e.From == 0 || e.To == 0 || e.From == 1 || e.To == 1 {
			t.Fatalf("subtree(d) channels leak outside the subtree: %v", c)
		}
	}
	if len(sel.chans) != 6 {
		t.Fatalf("subtree(d) has %d internal directed channels, want 6", len(sel.chans))
	}
}

func TestValidateForRejects(t *testing.T) {
	tr := tree.Paper()
	bad := []Target{
		{Kind: "proc", Proc: 99},
		{Kind: "subtree", Proc: 8},
		{Kind: "ring", From: 99, Len: 1},
		{Kind: "ring", From: 0, Len: 0},
		{Kind: "channel", Proc: 0, Peer: 7}, // r and g are not neighbors
	}
	for _, tg := range bad {
		sc := &Script{Version: 1, Phases: []Phase{{Steps: 10, Events: []Event{
			{Kind: "corrupt", Target: tg, At: 1},
		}}}}
		if err := sc.ValidateFor(tr); err == nil {
			t.Errorf("target %+v accepted on the paper tree", tg)
		}
	}
}

func TestBuiltinsCompileEverywhere(t *testing.T) {
	trees := []*tree.Tree{tree.Paper(), tree.Chain(2), tree.Star(16), tree.Broom(5, 5)}
	for _, b := range Builtins() {
		if b.Script.Name != b.Name {
			t.Errorf("builtin %q script is named %q", b.Name, b.Script.Name)
		}
		sched, err := Compile(b.Script, 200_000)
		if err != nil {
			t.Fatalf("builtin %q: %v", b.Name, err)
		}
		if len(sched.Triggers) == 0 {
			t.Errorf("builtin %q compiles to an empty schedule", b.Name)
		}
		for _, tr := range trees {
			if err := b.Script.ValidateFor(tr); err != nil {
				t.Errorf("builtin %q invalid on %d-process tree: %v", b.Name, tr.N(), err)
			}
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup invented a scenario")
	}
}
