package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kofl/internal/channel"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

func fullCfg(k, l int) core.Config {
	return core.Config{K: k, L: l, CMAX: 4, Features: core.Full()}
}

func TestNewValidation(t *testing.T) {
	if _, err := sim.New(tree.Chain(4), core.Config{K: 0, L: 1}, sim.Options{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := sim.New(tree.Chain(4), fullCfg(1, 1), sim.Options{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// ℓ+1 must fit the controller frame's 16-bit count.
	if _, err := sim.New(tree.Chain(4), fullCfg(1, core.MaxL+1), sim.Options{}); err == nil {
		t.Errorf("ℓ=%d accepted although the frame cannot carry ℓ+1", core.MaxL+1)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	sim.MustNew(tree.Chain(4), core.Config{K: 0, L: 0}, sim.Options{})
}

func TestChannelWiring(t *testing.T) {
	tr := tree.Paper()
	s := sim.MustNew(tr, fullCfg(2, 3), sim.Options{})
	// out[p][ch] and in[q][toCh] must be the same channel object.
	for p := 0; p < tr.N(); p++ {
		for ch := 0; ch < tr.Degree(p); ch++ {
			q := tr.Neighbor(p, ch)
			toCh := tr.ChannelTo(q, p)
			if s.Out(p, ch) != s.In(q, toCh) {
				t.Fatalf("channel %d:%d not wired to %d:%d", p, ch, q, toCh)
			}
		}
	}
	// Count distinct channels: 2(n-1).
	seen := map[channel.Ref]bool{}
	for p := 0; p < tr.N(); p++ {
		for ch := 0; ch < tr.Degree(p); ch++ {
			seen[s.Out(p, ch)] = true
		}
	}
	if len(seen) != tr.RingLen() {
		t.Errorf("%d channels, want %d", len(seen), tr.RingLen())
	}
}

// TestChannelLabelOutOfRange pins the boundary check of the channel
// accessors: a label outside 0..Degree(p)-1, or a process that does not
// exist, panics naming what was asked for instead of aliasing whichever
// channel sits at that position of the table.
func TestChannelLabelOutOfRange(t *testing.T) {
	tr := tree.Chain(3) // degrees 1, 2, 1
	s := sim.MustNew(tr, fullCfg(1, 1), sim.Options{})
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"Out past the root's degree", func() { s.Out(0, 1) }, "process 0 has no channel 1 (degree 1)"},
		{"In below zero", func() { s.In(1, -1) }, "process 1 has no channel -1 (degree 2)"},
		{"In past a middle process's degree", func() { s.In(1, 2) }, "process 1 has no channel 2 (degree 2)"},
		{"Out past the leaf's degree", func() { s.Out(2, 1) }, "process 2 has no channel 1 (degree 1)"},
		{"Seed past the root's degree", func() { s.Seed(0, 1, message.NewRes()) }, "process 0 has no channel 1 (degree 1)"},
		{"Peek past the root's degree", func() { s.Peek(sim.Action{Kind: sim.ActDeliver, Proc: 0, Ch: 1}) }, "process 0 has no channel 1 (degree 1)"},
		{"In on a process past n", func() { s.In(3, 0) }, "no process 3"},
		{"Out on a negative process", func() { s.Out(-1, 0) }, "no process -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, tc.want) {
					t.Errorf("panic %v, want one naming %q", r, tc.want)
				}
			}()
			tc.call()
		})
	}
	if got := s.Census(); got != (sim.Census{}) {
		t.Errorf("a rejected Seed queued something: %v", got)
	}
}

// TestNodeOutOfRange: the id-speaking accessors of one process panic for an
// id that names no process, naming it and n, as In and Out do.
func TestNodeOutOfRange(t *testing.T) {
	s := sim.MustNew(tree.Chain(3), fullCfg(1, 1), sim.Options{})
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"Node past n", func() { s.Node(3) }, "no process 3 (n=3)"},
		{"Node below zero", func() { s.Node(-1) }, "no process -1 (n=3)"},
		{"Handle past n", func() { s.Handle(4) }, "no process 4 (n=3)"},
		{"RestoreNode below zero", func() { s.RestoreNode(-2, core.Snapshot{}) }, "no process -2 (n=3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, tc.want) {
					t.Errorf("panic %v, want one naming %q", r, tc.want)
				}
			}()
			tc.call()
		})
	}
	if n := s.Node(2); n.ID() != 2 {
		t.Errorf("Node(2).ID() = %d", n.ID())
	}
}

// pollCounter wraps a Fixed cycle and counts how often the kernel reads its
// Enabled, against the events that may change it: Act, EnterCS, and the
// first read at or after the wake time it last returned.
type pollCounter struct {
	*workload.Cycle
	wake                           int64
	enabled, acts, enters, wakeups int
}

func (c *pollCounter) Enabled(now int64) bool {
	c.enabled++
	if now >= c.wake {
		c.wakeups++
		c.wake = sim.NoWake
	}
	return c.Cycle.Enabled(now)
}

func (c *pollCounter) WakeAt(now int64) int64 {
	c.wake = c.Cycle.WakeAt(now)
	return c.wake
}

func (c *pollCounter) Act(h sim.Handle) { c.acts++; c.Cycle.Act(h) }
func (c *pollCounter) EnterCS()         { c.enters++; c.Cycle.EnterCS() }

// TestNoColdPoll pins the App contract the kernel relies on: once a run has
// converged, an application's Enabled is read after its own events and at
// its wake times only — not after every step at its process, which would
// touch the caller's application object once per step.
func TestNoColdPoll(t *testing.T) {
	tr := tree.Prufer(1023, rand.New(rand.NewSource(7)))
	s := sim.MustNew(tr, core.Config{K: 2, L: 8, N: tr.N(), CMAX: 4, Features: core.Full()}, sim.Options{Seed: 7})
	apps := make([]*pollCounter, tr.N())
	for p := range apps {
		apps[p] = &pollCounter{Cycle: workload.Attach(s, p, workload.Fixed(1+p%2, 2, 4, 0)), wake: sim.NoWake}
		s.AttachApp(p, apps[p])
	}
	s.Run(200_000)
	if !s.TokensCorrect() {
		t.Fatal("not converged after 200k steps")
	}
	for _, a := range apps {
		a.enabled, a.acts, a.enters, a.wakeups = 0, 0, 0, 0
	}
	const steps = 100_000
	s.Run(steps)
	var enabled, events int
	for _, a := range apps {
		enabled += a.enabled
		events += a.acts + a.enters + a.wakeups
	}
	if enabled > events {
		t.Errorf("%d Enabled reads over %d steps, but only %d events (Act, EnterCS, wake-ups) that can change it",
			enabled, steps, events)
	}
	if enabled >= steps {
		t.Errorf("%d Enabled reads over %d steps: the kernel polls every step", enabled, steps)
	}
	t.Logf("%d Enabled reads, %d events, %d steps", enabled, events, steps)
}

func TestDeterminism(t *testing.T) {
	// Identical (topology, config, seed, workload) must yield identical
	// event traces and metrics.
	run := func() (string, int64) {
		tr := tree.Paper()
		s := sim.MustNew(tr, fullCfg(3, 5), sim.Options{Seed: 99})
		var events []string
		s.AddObserver(func(e core.Event) {
			events = append(events, fmt.Sprint(e))
		})
		for p := 0; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1+p%3, 3, 7, 0))
		}
		s.Run(30_000)
		return fmt.Sprint(events), s.Delivered[message.Res]
	}
	t1, d1 := run()
	t2, d2 := run()
	if t1 != t2 || d1 != d2 {
		t.Error("identical seeds produced different executions")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) int64 {
		tr := tree.Paper()
		s := sim.MustNew(tr, fullCfg(3, 5), sim.Options{Seed: seed})
		for p := 0; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1+p%3, 3, 7, 0))
		}
		s.Run(30_000)
		return s.Delivered[message.Res]
	}
	if run(1) == run(2) {
		t.Skip("seeds coincided (unlikely but legal); not a failure")
	}
}

func TestQuiescenceWithoutController(t *testing.T) {
	tr := tree.Chain(3)
	cfg := core.Config{K: 1, L: 1, Features: core.Naive()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})
	// Nothing seeded, no apps: immediately quiescent.
	if !s.Quiescent() {
		t.Error("empty naive system not quiescent")
	}
	if s.Step() {
		t.Error("Step on quiescent naive system returned true")
	}
	if n := s.Run(100); n != 0 {
		t.Errorf("Run executed %d steps on quiescent system", n)
	}
}

func TestTimeoutFastForward(t *testing.T) {
	// An empty full-protocol system is never stuck: the clock jumps to the
	// timeout and the controller bootstraps the tokens.
	tr := tree.Chain(3)
	s := sim.MustNew(tr, fullCfg(1, 1), sim.Options{Seed: 1, TimeoutTicks: 500})
	if !s.Step() {
		t.Fatal("Step returned false with the controller enabled")
	}
	if s.Now() < 500 {
		t.Errorf("clock = %d, want fast-forward past the 500-tick timeout", s.Now())
	}
	if s.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", s.Timeouts)
	}
}

func TestDefaultTimeoutTicksApplied(t *testing.T) {
	tr := tree.Star(8)
	s := sim.MustNew(tr, fullCfg(2, 3), sim.Options{Seed: 1})
	want := sim.DefaultTimeoutTicks(tr.RingLen(), 3)
	if s.TimeoutTicks() != want {
		t.Errorf("TimeoutTicks = %d, want default %d", s.TimeoutTicks(), want)
	}
	s2 := sim.MustNew(tr, fullCfg(2, 3), sim.Options{Seed: 1, TimeoutTicks: 123})
	if s2.TimeoutTicks() != 123 {
		t.Errorf("TimeoutTicks = %d, want override 123", s2.TimeoutTicks())
	}
}

func TestSeedLegitimatePopulation(t *testing.T) {
	tr := tree.Paper()
	cfg := core.Config{K: 2, L: 4, Features: core.NonStabilizing()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})
	s.SeedLegitimate()
	c := s.Census()
	if c.Res() != 4 || c.FreePush != 1 || c.Prio() != 1 {
		t.Errorf("seeded census = %v", c)
	}
	if !s.TokensCorrect() {
		t.Error("seeded population not legitimate")
	}
}

func TestSeedLegitimateRespectsFeatures(t *testing.T) {
	tr := tree.Chain(3)
	cfg := core.Config{K: 1, L: 2, Features: core.Naive()}
	s := sim.MustNew(tr, cfg, sim.Options{})
	s.SeedLegitimate()
	c := s.Census()
	if c.Res() != 2 || c.FreePush != 0 || c.Prio() != 0 {
		t.Errorf("naive seeding = %v, want tokens only", c)
	}
}

func TestCensusCountsReservedAndHeld(t *testing.T) {
	tr := tree.Chain(3)
	cfg := core.Config{K: 2, L: 2, Features: core.NonStabilizing()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})
	workload.Attach(s, 2, workload.Fixed(2, 1<<40, 0, 1)) // hold forever
	s.SeedLegitimate()
	s.Run(5_000)
	c := s.Census()
	if c.ReservedRes != 2 || c.InCS != 1 || c.UnitsInUse != 2 {
		t.Errorf("census = %v, want 2 reserved units in use by one process", c)
	}
	if c.Res() != 2 {
		t.Errorf("token conservation broken: %v", c)
	}
}

func TestTokensCorrectDetectsDrift(t *testing.T) {
	tr := tree.Chain(3)
	s := sim.MustNew(tr, fullCfg(1, 2), sim.Options{Seed: 1})
	s.Seed(0, 0, message.NewRes(), message.NewRes(), message.NewPush(), message.NewPrio())
	if !s.TokensCorrect() {
		t.Fatal("correct population reported incorrect")
	}
	s.Seed(0, 0, message.NewRes()) // one too many
	if s.TokensCorrect() {
		t.Error("excess token not detected")
	}
}

func TestTokensCorrectFlagsResetCtrl(t *testing.T) {
	tr := tree.Chain(3)
	s := sim.MustNew(tr, fullCfg(1, 1), sim.Options{Seed: 1})
	s.Seed(0, 0, message.NewRes(), message.NewPush(), message.NewPrio())
	if !s.TokensCorrect() {
		t.Fatal("baseline incorrect")
	}
	s.Seed(0, 0, message.NewCtrl(0, true, 0, 0))
	if s.TokensCorrect() {
		t.Error("in-flight reset ctrl not flagged")
	}
}

func TestHandleRequestIsExternalTransition(t *testing.T) {
	tr := tree.Chain(3)
	s := sim.MustNew(tr, fullCfg(1, 1), sim.Options{Seed: 1})
	h := s.Handle(2)
	if h.ID() != 2 {
		t.Errorf("Handle.ID = %d", h.ID())
	}
	if err := h.Request(1); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if n := s.Node(2); n.State() != core.Req {
		t.Error("external request did not transition the node")
	}
	if err := h.Request(1); err == nil {
		t.Error("double request accepted")
	}
}

func TestStepHookSeesLastAction(t *testing.T) {
	tr := tree.Chain(3)
	cfg := core.Config{K: 1, L: 1, Features: core.Naive()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 1})
	s.Seed(0, 0, message.NewRes())
	var kinds []message.Kind
	s.AddStepHook(func(s *sim.Sim) {
		if s.LastAction.Kind == sim.ActDeliver {
			kinds = append(kinds, s.LastMsg.Kind)
		}
	})
	s.Run(4)
	if len(kinds) != 4 {
		t.Fatalf("hook saw %d deliveries, want 4", len(kinds))
	}
	for _, k := range kinds {
		if k != message.Res {
			t.Errorf("hook saw %v", k)
		}
	}
}

func TestActionString(t *testing.T) {
	cases := map[string]sim.Action{
		"deliver(p1,ch2)": {Kind: sim.ActDeliver, Proc: 1, Ch: 2},
		"timeout":         {Kind: sim.ActTimeout, Proc: 0},
		"app(p3)":         {Kind: sim.ActApp, Proc: 3},
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestPeekPanicsOnNonDeliver(t *testing.T) {
	tr := tree.Chain(3)
	s := sim.MustNew(tr, fullCfg(1, 1), sim.Options{})
	defer func() {
		if recover() == nil {
			t.Error("Peek on app action did not panic")
		}
	}()
	s.Peek(sim.Action{Kind: sim.ActApp, Proc: 0})
}

func TestRunUntil(t *testing.T) {
	tr := tree.Chain(4)
	s := sim.MustNew(tr, fullCfg(1, 2), sim.Options{Seed: 3, TimeoutTicks: 100})
	ok := s.RunUntil(100_000, s.TokensCorrect)
	if !ok {
		t.Fatal("never reached the legitimate census")
	}
	if !s.TokensCorrect() {
		t.Error("RunUntil returned true but predicate is false")
	}
	// Immediate predicate short-circuits without stepping.
	before := s.Steps
	if !s.RunUntil(10, func() bool { return true }) {
		t.Error("trivial predicate failed")
	}
	if s.Steps != before {
		t.Error("RunUntil stepped despite satisfied predicate")
	}
}
