package core

import (
	"strings"
	"testing"
	"unsafe"

	"kofl/internal/message"
)

// mockEnv records sends and timer restarts.
type mockEnv struct {
	sends    []send
	restarts int
}

type send struct {
	ch int
	m  message.Message
}

func (e *mockEnv) Send(ch int, m message.Message) { e.sends = append(e.sends, send{ch, m}) }
func (e *mockEnv) RestartTimer()                  { e.restarts++ }

func (e *mockEnv) sent(i int) send {
	if i >= len(e.sends) {
		return send{ch: -1}
	}
	return e.sends[i]
}

// mockApp is a controllable application.
type mockApp struct {
	entered int
	inCS    bool
}

func (a *mockApp) EnterCS() {
	a.entered++
	a.inCS = true
}
func (a *mockApp) ReleaseCS() bool { return !a.inCS }

func cfg(k, l int) Config {
	return Config{K: k, L: l, N: 8, CMAX: 4, Features: Full()}
}

func newRoot(t *testing.T, c Config, deg int) (*Node, *mockApp) {
	t.Helper()
	app := &mockApp{}
	n, err := NewNode(c, 0, deg, true, app)
	if err != nil {
		t.Fatal(err)
	}
	return n, app
}

func newLeaf(t *testing.T, c Config, deg int) (*Node, *mockApp) {
	t.Helper()
	app := &mockApp{}
	n, err := NewNode(c, 1, deg, false, app)
	if err != nil {
		t.Fatal(err)
	}
	return n, app
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Config
		ok   bool
	}{
		{"valid", Config{K: 2, L: 3, N: 4, Features: Full()}, true},
		{"mutual-exclusion", Config{K: 1, L: 1, N: 2}, true},
		{"k-zero", Config{K: 0, L: 3, N: 4}, false},
		{"k-gt-l", Config{K: 4, L: 3, N: 4}, false},
		{"n-too-small", Config{K: 1, L: 1, N: 1}, false},
		{"negative-cmax", Config{K: 1, L: 1, N: 2, CMAX: -1}, false},
		{"controller-without-pusher", Config{K: 1, L: 1, N: 2,
			Features: Features{Controller: true, Priority: true}}, false},
		{"controller-without-priority", Config{K: 1, L: 1, N: 2,
			Features: Features{Controller: true, Pusher: true}}, false},
		// The frame's PT field is 16 bits and must carry ℓ+1.
		{"l-at-frame-limit", Config{K: 1, L: MaxL, N: 2}, true},
		{"l-over-frame-limit", Config{K: 1, L: MaxL + 1, N: 2}, false},
		{"l-far-over-frame-limit", Config{K: 1, L: 70000, N: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	err := Config{K: 1, L: 70000, N: 2}.Validate()
	if err == nil || !strings.Contains(err.Error(), "65534") {
		t.Errorf("over-limit ℓ error = %v, want it to name the limit 65534", err)
	}
}

// TestLayoutGuard pins the per-process slot to 24 bytes. If it grows, the
// simulator's bytes/process ceiling (sim.TestBytesPerProcessCeiling) goes
// with it.
func TestLayoutGuard(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 24 {
		t.Fatalf("slot is %d bytes, want ≤ 24", got)
	}
}

// TestSlotAtMaxL drives the 16-bit need and |RSet| fields to the top of
// their domain, k = ℓ = MaxL: a request for every unit, one reservation per
// unit, and a Restore past k, which must clamp rather than wrap.
func TestSlotAtMaxL(t *testing.T) {
	c := Config{K: MaxL, L: MaxL, N: 8, CMAX: 4, Features: Full()}
	n, _ := newLeaf(t, c, 2)
	env := &mockEnv{}
	if err := n.Request(env, MaxL); err != nil {
		t.Fatal(err)
	}
	if n.Need() != MaxL {
		t.Fatalf("Need() = %d after Request(MaxL), want %d", n.Need(), MaxL)
	}
	for i := 0; i < MaxL; i++ {
		n.HandleMessage(1, message.NewRes(), env)
	}
	if res, _, state := n.vars.Probe(0); n.Reserved() != MaxL || res != MaxL || state != In {
		t.Fatalf("after %d reservations: Reserved() = %d, Probe = %d in %v, want %d in In",
			MaxL, n.Reserved(), res, state, MaxL)
	}
	if len(env.sends) != 0 {
		t.Fatalf("%d tokens forwarded while the request was short", len(env.sends))
	}
	for _, over := range []int{MaxL + 1, 1 << 16, 1<<17 + 3} {
		n.Restore(Snapshot{State: Req, Need: over, RSet: make([]int, over), Prio: NoPrio})
		if res, _, _ := n.vars.Probe(0); n.Need() != MaxL || n.Reserved() != MaxL || res != MaxL {
			t.Fatalf("Restore(Need, |RSet| = %d): Need() = %d, Reserved() = %d, Probe = %d, want all %d",
				over, n.Need(), n.Reserved(), res, MaxL)
		}
	}
}

func TestCounterMod(t *testing.T) {
	c := Config{K: 1, L: 1, N: 8, CMAX: 4}
	if got, want := c.CounterMod(), 2*7*5+1; got != want {
		t.Errorf("CounterMod = %d, want %d", got, want)
	}
	c = Config{K: 1, L: 1, N: 2, CMAX: 0}
	if got, want := c.CounterMod(), 3; got != want {
		t.Errorf("CounterMod = %d, want %d", got, want)
	}
}

func TestNewNodeErrors(t *testing.T) {
	if _, err := NewNode(Config{K: 0, L: 1, N: 2}, 0, 1, true, &mockApp{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewNode(cfg(1, 1), 0, 0, true, &mockApp{}); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := NewNode(cfg(1, 1), 0, 1, true, nil); err == nil {
		t.Error("nil app accepted")
	}
}

func TestMustNewNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewNode did not panic")
		}
	}()
	MustNewNode(cfg(1, 1), 0, 0, true, &mockApp{})
}

func TestRequestTransitions(t *testing.T) {
	n, app := newLeaf(t, cfg(2, 3), 2)
	env := &mockEnv{}
	if err := n.Request(env, 2); err != nil {
		t.Fatalf("Request from Out: %v", err)
	}
	if n.State() != Req || n.Need() != 2 {
		t.Fatalf("state after Request: %v need %d", n.State(), n.Need())
	}
	// Req -> Req forbidden.
	if err := n.Request(env, 1); err == nil {
		t.Error("Request while Req accepted")
	}
	// Satisfy it: two tokens.
	n.HandleMessage(0, message.NewRes(), env)
	n.HandleMessage(1, message.NewRes(), env)
	if n.State() != In || app.entered != 1 {
		t.Fatalf("did not enter CS: %v entered=%d", n.State(), app.entered)
	}
	// In -> Req forbidden.
	if err := n.Request(env, 1); err == nil {
		t.Error("Request while In accepted")
	}
}

func TestRequestNeedRange(t *testing.T) {
	n, _ := newLeaf(t, cfg(2, 3), 1)
	env := &mockEnv{}
	if err := n.Request(env, 3); err == nil {
		t.Error("need > k accepted")
	}
	if err := n.Request(env, -1); err == nil {
		t.Error("negative need accepted")
	}
}

func TestZeroNeedEntersImmediately(t *testing.T) {
	n, app := newLeaf(t, cfg(2, 3), 1)
	env := &mockEnv{}
	if err := n.Request(env, 0); err != nil {
		t.Fatal(err)
	}
	if n.State() != In || app.entered != 1 {
		t.Errorf("zero-need request: state %v, entered %d", n.State(), app.entered)
	}
}

func TestReleaseOnPoll(t *testing.T) {
	n, app := newLeaf(t, cfg(1, 1), 3)
	env := &mockEnv{}
	if err := n.Request(env, 1); err != nil {
		t.Fatal(err)
	}
	n.HandleMessage(1, message.NewRes(), env)
	if n.State() != In || n.Reserved() != 1 {
		t.Fatalf("not in CS: %v reserved=%d", n.State(), n.Reserved())
	}
	app.inCS = false // application finishes
	n.Poll(env)
	if n.State() != Out || n.Reserved() != 0 {
		t.Errorf("after release: %v reserved=%d", n.State(), n.Reserved())
	}
	// The token from channel 1 must continue on channel 2 (DFS rule).
	last := env.sends[len(env.sends)-1]
	if last.m.Kind != message.Res || last.ch != 2 {
		t.Errorf("released token went to channel %d (%v), want 2", last.ch, last.m)
	}
	if n.Need() != 0 {
		t.Errorf("Need not cleared: %d", n.Need())
	}
}

func TestReleaseWrapsAroundDegree(t *testing.T) {
	// A leaf (degree 1) releases tokens back to its only channel (0).
	n, app := newLeaf(t, cfg(1, 1), 1)
	env := &mockEnv{}
	_ = n.Request(env, 1)
	n.HandleMessage(0, message.NewRes(), env)
	app.inCS = false
	n.Poll(env)
	if got := env.sent(0); got.ch != 0 || got.m.Kind != message.Res {
		t.Errorf("leaf release went to %v, want channel 0", got)
	}
}

func TestRootReleaseCountsRingStart(t *testing.T) {
	// The root releasing a token reserved from its last channel crosses ring
	// START: SToken must increment.
	n, app := newRoot(t, cfg(2, 3), 2)
	env := &mockEnv{}
	_ = n.Request(env, 2)
	n.HandleMessage(1, message.NewRes(), env) // from last channel
	n.HandleMessage(0, message.NewRes(), env)
	if n.State() != In {
		t.Fatal("not in CS")
	}
	app.inCS = false
	n.Poll(env)
	if got := n.Snapshot().SToken; got != 1 {
		t.Errorf("SToken = %d, want 1 (one token crossed START)", got)
	}
}

func TestSnapshotRestoreClamps(t *testing.T) {
	n, _ := newLeaf(t, cfg(2, 5), 3)
	n.Restore(Snapshot{
		State: State(9), Need: 99, MyC: 1 << 30, Succ: 77,
		RSet: []int{0, 1, 2, 9, -1, 4, 5}, Prio: 42,
		SToken: 99, SPrio: 9, SPush: 9,
	})
	if n.State() != In {
		t.Errorf("State = %v, want clamp to In", n.State())
	}
	if n.Need() != 2 {
		t.Errorf("Need = %d, want clamp to k=2", n.Need())
	}
	if n.MyC() >= cfg(2, 5).CounterMod() || n.MyC() < 0 {
		t.Errorf("MyC = %d outside domain", n.MyC())
	}
	if n.Succ() != 2 {
		t.Errorf("Succ = %d, want clamp to deg-1=2", n.Succ())
	}
	if n.Reserved() != 2 {
		t.Errorf("|RSet| = %d, want clamp to k=2", n.Reserved())
	}
	for _, ch := range n.RSet() {
		if ch < 0 || ch > 2 {
			t.Errorf("RSet entry %d outside channels", ch)
		}
	}
	if n.Prio() != 2 {
		t.Errorf("Prio = %d, want clamp to deg-1", n.Prio())
	}
	// Non-root must not adopt root-only counters.
	s := n.Snapshot()
	if s.SToken != 0 || s.SPrio != 0 || s.SPush != 0 {
		t.Errorf("non-root adopted root counters: %+v", s)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	n, _ := newRoot(t, cfg(2, 5), 3)
	want := Snapshot{
		State: Req, Need: 2, MyC: 7, Succ: 1, RSet: []int{0, 2},
		Prio: 1, Reset: true, SToken: 3, SPrio: 1, SPush: 2,
	}
	n.Restore(want)
	got := n.Snapshot()
	if got.State != want.State || got.Need != want.Need || got.MyC != want.MyC ||
		got.Succ != want.Succ || got.Prio != want.Prio || got.Reset != want.Reset ||
		got.SToken != want.SToken || got.SPrio != want.SPrio || got.SPush != want.SPush {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	if len(got.RSet) != 2 || got.RSet[0] != 0 || got.RSet[1] != 2 {
		t.Errorf("RSet round trip: %v", got.RSet)
	}
	if got.Prio != 1 {
		t.Errorf("Prio: %d", got.Prio)
	}
	// NoPrio round-trips too.
	n.Restore(Snapshot{Prio: NoPrio})
	if n.Prio() != NoPrio {
		t.Errorf("NoPrio restore: %d", n.Prio())
	}
}

func TestObserverEvents(t *testing.T) {
	n, app := newLeaf(t, cfg(1, 1), 2)
	var events []EventKind
	n.SetObserver(func(e Event) {
		if e.P != 1 {
			t.Errorf("event carries P=%d, want 1", e.P)
		}
		events = append(events, e.Kind)
	})
	env := &mockEnv{}
	_ = n.Request(env, 1)
	n.HandleMessage(0, message.NewRes(), env)
	app.inCS = false
	n.Poll(env)
	want := []EventKind{EvRequest, EvReserve, EvEnterCS, EvExitCS}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestStringSummaries(t *testing.T) {
	n, _ := newRoot(t, cfg(1, 1), 2)
	if s := n.String(); !strings.Contains(s, "root0") || !strings.Contains(s, "Out") {
		t.Errorf("String = %q", s)
	}
	for st, want := range map[State]string{Out: "Out", Req: "Req", In: "In", State(7): "State(7)"} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	n, _ := newRoot(t, cfg(2, 3), 4)
	if n.ID() != 0 || !n.IsRoot() || n.Degree() != 4 {
		t.Error("basic accessors wrong")
	}
	if n.HoldsPrio() {
		t.Error("fresh node holds prio")
	}
	if n.ResetFlag() {
		t.Error("fresh node has reset set")
	}
	// RSet() returns a copy.
	env := &mockEnv{}
	_ = n.Request(env, 2)
	n.HandleMessage(1, message.NewRes(), env)
	rs := n.RSet()
	rs[0] = 99
	if n.RSet()[0] == 99 {
		t.Error("RSet aliases internal storage")
	}
}

func TestNopApp(t *testing.T) {
	var a NopApp
	a.EnterCS()
	if !a.ReleaseCS() {
		t.Error("NopApp must always report released")
	}
}
