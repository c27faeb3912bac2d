package core

import (
	"testing"

	"kofl/internal/message"
)

// rootCfg: k=2, ℓ=3 on an 8-process topology (CounterMod = 71).
func rootCfg() Config { return Config{K: 2, L: 3, N: 8, CMAX: 4, Features: Full()} }

func TestRootCtrlValidAdvancesSucc(t *testing.T) {
	n, _ := newRoot(t, rootCfg(), 3)
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(0, false, 1, 0), env)
	if n.Succ() != 1 {
		t.Errorf("Succ = %d, want 1", n.Succ())
	}
	if env.restarts != 1 {
		t.Errorf("restarts = %d, want 1", env.restarts)
	}
	got := env.sent(0)
	if got.m.Kind != message.Ctrl || got.ch != 1 {
		t.Fatalf("forwarded %v on channel %d", got.m, got.ch)
	}
	if got.m.C != 0 || got.m.R || got.m.PT != 1 || got.m.PPr != 0 {
		t.Errorf("forwarded ctrl = %v, want ⟨ctrl,0,0,1,0⟩", got.m)
	}
}

func TestRootCtrlInvalidIgnored(t *testing.T) {
	cases := []struct {
		name string
		q    int
		c    int
	}{
		{"wrong-channel", 1, 0},
		{"wrong-flag", 0, 5},
		{"both-wrong", 2, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := newRoot(t, rootCfg(), 3) // succ = 0, myC = 0
			env := &mockEnv{}
			n.HandleMessage(tc.q, message.NewCtrl(tc.c, false, 0, 0), env)
			if len(env.sends) != 0 || env.restarts != 0 || n.Succ() != 0 {
				t.Errorf("invalid ctrl processed: sends=%v restarts=%d succ=%d",
					env.sends, env.restarts, n.Succ())
			}
		})
	}
}

func TestRootCtrlCountsPassedTokens(t *testing.T) {
	n, _ := newRoot(t, rootCfg(), 3)
	// Two tokens parked at the root from channel 0, one from channel 1.
	n.Restore(Snapshot{State: Req, Need: 2, RSet: []int{0, 0}, Prio: 0})
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(0, false, 0, 0), env)
	got := env.sent(0).m
	if got.PT != 2 {
		t.Errorf("PT = %d, want 2 (both channel-0 tokens passed)", got.PT)
	}
	if got.PPr != 1 {
		t.Errorf("PPr = %d, want 1 (prio from channel 0 passed)", got.PPr)
	}
}

func TestRootCompletionCorrectCountNoAction(t *testing.T) {
	n, _ := newRoot(t, rootCfg(), 2) // ℓ = 3
	n.Restore(Snapshot{Succ: 1, SToken: 1, SPrio: 1, SPush: 1, Prio: NoPrio})
	env := &mockEnv{}
	// PT=2 + SToken=1 = 3 = ℓ; PPr=0 + SPrio=1 = 1; SPush=1: all correct.
	n.HandleMessage(1, message.NewCtrl(0, false, 2, 0), env)
	if n.Succ() != 0 {
		t.Errorf("Succ = %d, want wrap to 0", n.Succ())
	}
	if n.MyC() != 1 {
		t.Errorf("myC = %d, want 1", n.MyC())
	}
	if n.ResetFlag() {
		t.Error("reset raised on a correct census")
	}
	// Only the new ctrl goes out; no token creation.
	if len(env.sends) != 1 {
		t.Fatalf("sends = %v, want just the new ctrl", env.sends)
	}
	got := env.sent(0)
	if got.ch != 0 || got.m.Kind != message.Ctrl || got.m.C != 1 || got.m.PT != 0 || got.m.R {
		t.Errorf("new circulation ctrl = %v on %d", got.m, got.ch)
	}
	// Counters zeroed for the new circulation.
	s := n.Snapshot()
	if s.SToken != 0 || s.SPrio != 0 || s.SPush != 0 {
		t.Errorf("counters not zeroed: %+v", s)
	}
}

func TestRootCompletionCreatesMissingTokens(t *testing.T) {
	n, _ := newRoot(t, rootCfg(), 2) // ℓ = 3
	n.Restore(Snapshot{Succ: 1, Prio: NoPrio})
	var created Event
	n.SetObserver(func(e Event) {
		if e.Kind == EvCreate {
			created = e
		}
	})
	env := &mockEnv{}
	// Census: 1 resource token, 0 prio, 0 push → create 2 res, 1 prio, 1 push.
	n.HandleMessage(1, message.NewCtrl(0, false, 1, 0), env)
	var res, prio, push, ctrl int
	for _, s := range env.sends {
		switch s.m.Kind {
		case message.Res:
			res++
		case message.Prio:
			prio++
		case message.Push:
			push++
		case message.Ctrl:
			ctrl++
		}
		if s.m.Kind != message.Ctrl && s.ch != 0 {
			t.Errorf("token created on channel %d, want 0 (ring START)", s.ch)
		}
	}
	if res != 2 || prio != 1 || push != 1 || ctrl != 1 {
		t.Errorf("created res=%d prio=%d push=%d ctrl=%d, want 2/1/1/1", res, prio, push, ctrl)
	}
	if created.N1 != 2 || created.N2 != 1 || created.N3 != 1 {
		t.Errorf("EvCreate = %+v", created)
	}
}

func TestRootCompletionExcessTriggersReset(t *testing.T) {
	cases := []struct {
		name                   string
		pt, stoken, ppr, sprio int
		spush                  int
	}{
		{"too-many-res", 3, 1, 0, 1, 1},
		{"res-saturated", 4, 0, 0, 1, 1},
		{"too-many-prio", 2, 1, 1, 1, 1},
		{"too-many-push", 2, 1, 0, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := newRoot(t, rootCfg(), 2)
			n.Restore(Snapshot{
				Succ: 1, SToken: tc.stoken, SPrio: tc.sprio, SPush: tc.spush,
				State: Req, Need: 2, RSet: []int{0}, Prio: 0,
			})
			// The parked channel-0 token/prio are NOT counted at a
			// completion from channel 1, so the census is exactly the
			// fields above.
			env := &mockEnv{}
			n.HandleMessage(1, message.NewCtrl(0, false, tc.pt, tc.ppr), env)
			if !n.ResetFlag() {
				t.Fatal("reset not raised")
			}
			if n.Reserved() != 0 || n.HoldsPrio() {
				t.Error("root kept reservations/prio entering reset")
			}
			if len(env.sends) != 1 {
				t.Fatalf("sends = %v, want only the reset ctrl", env.sends)
			}
			if got := env.sent(0).m; !got.R || got.PT != 0 {
				t.Errorf("reset ctrl = %v, want R=true PT=0", got)
			}
		})
	}
}

func TestRootResetTraversalEndRecreatesTokens(t *testing.T) {
	n, _ := newRoot(t, rootCfg(), 2) // ℓ = 3
	n.Restore(Snapshot{Succ: 1, Reset: true, MyC: 5, Prio: NoPrio})
	env := &mockEnv{}
	// The reset traversal returns with zero counts (everything was erased).
	n.HandleMessage(1, message.NewCtrl(5, false, 0, 0), env)
	if n.ResetFlag() {
		t.Error("reset still set after clean count")
	}
	var res, prio, push int
	for _, s := range env.sends {
		switch s.m.Kind {
		case message.Res:
			res++
		case message.Prio:
			prio++
		case message.Push:
			push++
		}
	}
	if res != 3 || prio != 1 || push != 1 {
		t.Errorf("recreated res=%d prio=%d push=%d, want ℓ=3/1/1", res, prio, push)
	}
	// The new ctrl must carry R=false.
	last := env.sends[len(env.sends)-1]
	if last.m.Kind != message.Ctrl || last.m.R {
		t.Errorf("post-reset ctrl = %v", last.m)
	}
}

func TestCountOrderErratum(t *testing.T) {
	// A token parked at the root from its LAST channel at completion time.
	// Census: 2 free tokens counted in PT, the parked one makes ℓ=3.
	setup := func(paperOrder bool) (*Node, *mockEnv) {
		c := rootCfg()
		c.Errata.PaperCountOrder = paperOrder
		n := MustNewNode(c, 0, 2, true, &mockApp{})
		n.Restore(Snapshot{Succ: 1, State: Req, Need: 2, RSet: []int{1}, Prio: NoPrio})
		env := &mockEnv{}
		n.HandleMessage(1, message.NewCtrl(0, false, 2, 0), env)
		return n, env
	}

	// Corrected order: the parked token is counted into the ending
	// circulation → census = 3 = ℓ → no creation, next ctrl PT = 0.
	n, env := setup(false)
	if n.ResetFlag() {
		t.Error("corrected: spurious reset")
	}
	for _, s := range env.sends {
		if s.m.Kind == message.Res {
			t.Error("corrected: spurious token created")
		}
	}
	if got := env.sends[len(env.sends)-1].m; got.PT != 0 {
		t.Errorf("corrected: next PT = %d, want 0", got.PT)
	}

	// Paper order: the parked token is missed → census 2 < ℓ → one token
	// spuriously created; and the next circulation starts with PT = 1, so
	// the parked token will be double counted when released.
	n2, env2 := setup(true)
	if n2.ResetFlag() {
		t.Error("paper: unexpected reset at this completion")
	}
	created := 0
	for _, s := range env2.sends {
		if s.m.Kind == message.Res {
			created++
		}
	}
	if created != 1 {
		t.Errorf("paper: created %d tokens, want 1 (the undercount)", created)
	}
	if got := env2.sends[len(env2.sends)-1].m; got.PT != 1 {
		t.Errorf("paper: next PT = %d, want 1 (parked token recounted)", got.PT)
	}
}

func TestMyCWrapsAroundDomain(t *testing.T) {
	c := rootCfg()
	mod := c.CounterMod()
	n := MustNewNode(c, 0, 1, true, &mockApp{})
	n.Restore(Snapshot{MyC: mod - 1, Succ: 0, SToken: 3, SPrio: 1, SPush: 1, Prio: NoPrio})
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(mod-1, false, 0, 0), env)
	if n.MyC() != 0 {
		t.Errorf("myC = %d, want wrap to 0 (mod %d)", n.MyC(), mod)
	}
}

func TestPTSaturatesAtLPlusOne(t *testing.T) {
	n, _ := newRoot(t, rootCfg(), 3) // ℓ = 3 → saturation 4
	n.Restore(Snapshot{State: Req, Need: 2, RSet: []int{0, 0}, Prio: NoPrio})
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(0, false, 3, 0), env)
	if got := env.sent(0).m.PT; got != 4 {
		t.Errorf("PT = %d, want saturation at ℓ+1=4", got)
	}
}

func TestNodeCtrlAdoptFromParent(t *testing.T) {
	n, _ := newLeaf(t, rootCfg(), 3)
	n.Restore(Snapshot{MyC: 0, Succ: 2, State: Req, Need: 2, RSet: []int{0}, Prio: NoPrio})
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(7, false, 1, 0), env)
	if n.MyC() != 7 {
		t.Errorf("myC = %d, want adopted 7", n.MyC())
	}
	if n.Succ() != 1 {
		t.Errorf("Succ = %d, want min(1, deg-1) = 1", n.Succ())
	}
	got := env.sent(0)
	if got.ch != 1 || got.m.C != 7 {
		t.Errorf("forwarded %v on %d, want C=7 on channel 1", got.m, got.ch)
	}
	// The channel-0 reservation was passed: PT = 1 + 1.
	if got.m.PT != 2 {
		t.Errorf("PT = %d, want 2", got.m.PT)
	}
	if n.Reserved() != 1 {
		t.Error("non-reset adoption cleared RSet")
	}
}

func TestNodeCtrlAdoptWithResetClearsState(t *testing.T) {
	n, _ := newLeaf(t, rootCfg(), 3)
	n.Restore(Snapshot{MyC: 0, State: Req, Need: 2, RSet: []int{0, 1}, Prio: 2})
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(9, true, 0, 0), env)
	if n.Reserved() != 0 || n.HoldsPrio() {
		t.Error("reset adoption kept reservations/prio")
	}
	// RSet cleared BEFORE counting: the reset controller reports 0 passed.
	if got := env.sent(0).m; got.PT != 0 || !got.R {
		t.Errorf("reset ctrl forwarded as %v, want PT=0 R=true", got)
	}
	if n.State() != Req {
		t.Error("reset must not touch the application State variable")
	}
}

func TestNodeCtrlDuplicateFromParentForwarded(t *testing.T) {
	// Same flag value from the parent: not processed, but retransmitted "to
	// prevent deadlock" (Algorithm 2, case q=0 with myC=C).
	n, _ := newLeaf(t, rootCfg(), 3)
	n.Restore(Snapshot{MyC: 4, Succ: 2, State: Req, Need: 2, RSet: []int{1}, Prio: 1})
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(4, false, 0, 0), env)
	if n.Succ() != 2 {
		t.Errorf("Succ changed to %d on duplicate", n.Succ())
	}
	if n.Reserved() != 1 {
		t.Error("duplicate cleared RSet")
	}
	got := env.sent(0)
	if got.ch != 2 || got.m.C != 4 {
		t.Errorf("duplicate forwarded as %v on %d, want C=4 on Succ=2", got.m, got.ch)
	}
}

func TestNodeCtrlFromSuccContinuesDFS(t *testing.T) {
	n, _ := newLeaf(t, rootCfg(), 3)
	n.Restore(Snapshot{MyC: 4, Succ: 1, Prio: NoPrio})
	env := &mockEnv{}
	n.HandleMessage(1, message.NewCtrl(4, false, 2, 1), env)
	if n.Succ() != 2 {
		t.Errorf("Succ = %d, want 2", n.Succ())
	}
	got := env.sent(0)
	if got.ch != 2 || got.m.PT != 2 || got.m.PPr != 1 {
		t.Errorf("forwarded %v on %d", got.m, got.ch)
	}
}

func TestNodeCtrlSuccWrapForwardsToParent(t *testing.T) {
	// From the last child the DFS returns to the parent (Succ wraps to 0).
	n, _ := newLeaf(t, rootCfg(), 3)
	n.Restore(Snapshot{MyC: 4, Succ: 2, Prio: NoPrio})
	env := &mockEnv{}
	n.HandleMessage(2, message.NewCtrl(4, false, 0, 0), env)
	if n.Succ() != 0 {
		t.Errorf("Succ = %d, want wrap to 0", n.Succ())
	}
	if got := env.sent(0); got.ch != 0 {
		t.Errorf("forwarded on channel %d, want 0 (parent)", got.ch)
	}
}

func TestNodeCtrlInvalidIgnored(t *testing.T) {
	cases := []struct {
		name string
		q    int
		c    int
		succ int
	}{
		{"from-succ-wrong-flag", 1, 9, 1},
		{"from-non-succ-child", 2, 4, 1},
		{"succ-zero-case-handled-by-parent-branch-only", 1, 4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := newLeaf(t, rootCfg(), 3)
			n.Restore(Snapshot{MyC: 4, Succ: tc.succ, Prio: NoPrio})
			env := &mockEnv{}
			n.HandleMessage(tc.q, message.NewCtrl(tc.c, false, 0, 0), env)
			if len(env.sends) != 0 {
				t.Errorf("invalid ctrl forwarded: %v", env.sends)
			}
		})
	}
}

func TestLeafBouncesCtrlToParent(t *testing.T) {
	n, _ := newLeaf(t, rootCfg(), 1) // leaf: only the parent channel
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(3, false, 1, 0), env)
	if n.Succ() != 0 {
		t.Errorf("leaf Succ = %d, want min(1, 0) = 0", n.Succ())
	}
	if got := env.sent(0); got.ch != 0 || got.m.C != 3 {
		t.Errorf("leaf bounced %v on %d", got.m, got.ch)
	}
}

func TestNodeCtrlCountsPrioWhenPassed(t *testing.T) {
	n, _ := newLeaf(t, rootCfg(), 2)
	n.Restore(Snapshot{MyC: 0, State: Req, Need: 2, Prio: 0, RSet: []int{0}})
	env := &mockEnv{}
	n.HandleMessage(0, message.NewCtrl(8, false, 0, 1), env)
	got := env.sent(0).m
	if got.PPr != 2 {
		t.Errorf("PPr = %d, want 2 (incoming 1 + passed prio)", got.PPr)
	}
	// Saturation at 2.
	n2, _ := newLeaf(t, rootCfg(), 2)
	n2.Restore(Snapshot{MyC: 0, State: Req, Need: 2, Prio: 0})
	env2 := &mockEnv{}
	n2.HandleMessage(0, message.NewCtrl(8, false, 0, 2), env2)
	if got := env2.sent(0).m.PPr; got != 2 {
		t.Errorf("PPr = %d, want saturation at 2", got)
	}
}

func TestHandleTimeout(t *testing.T) {
	n, _ := newRoot(t, rootCfg(), 3)
	n.Restore(Snapshot{MyC: 6, Succ: 2, Reset: true})
	env := &mockEnv{}
	n.HandleTimeout(env)
	got := env.sent(0)
	if got.ch != 2 {
		t.Errorf("timeout retransmission on channel %d, want Succ=2", got.ch)
	}
	if got.m.C != 6 || !got.m.R || got.m.PT != 0 || got.m.PPr != 0 {
		t.Errorf("timeout ctrl = %v, want ⟨ctrl,6,1,0,0⟩", got.m)
	}
	if env.restarts != 1 {
		t.Errorf("restarts = %d", env.restarts)
	}
}

func TestHandleTimeoutNoOpCases(t *testing.T) {
	// Non-root.
	n, _ := newLeaf(t, rootCfg(), 2)
	env := &mockEnv{}
	n.HandleTimeout(env)
	if len(env.sends) != 0 {
		t.Error("non-root reacted to timeout")
	}
	// Variant without controller.
	c := Config{K: 1, L: 1, N: 4, Features: Naive()}
	n2 := MustNewNode(c, 0, 2, true, &mockApp{})
	env2 := &mockEnv{}
	n2.HandleTimeout(env2)
	if len(env2.sends) != 0 {
		t.Error("naive variant reacted to timeout")
	}
}

func TestCirculationEventCensus(t *testing.T) {
	n, _ := newRoot(t, rootCfg(), 2)
	n.Restore(Snapshot{Succ: 1, SToken: 1, SPrio: 0, SPush: 1, Prio: NoPrio})
	var circ Event
	n.SetObserver(func(e Event) {
		if e.Kind == EvCirculation {
			circ = e
		}
	})
	env := &mockEnv{}
	n.HandleMessage(1, message.NewCtrl(0, false, 2, 1), env)
	if circ.N1 != 3 || circ.N2 != 1 || circ.N3 != 1 || circ.Flag {
		t.Errorf("EvCirculation = %+v, want res=3 prio=1 push=1 reset=false", circ)
	}
}

// TestLegitimatePopulation is the population rule's table, over the counts
// both callers produce: the simulator's exact global census and the root's
// saturating one, which reads an over-full population as ℓ+1 resource tokens
// or 2 priority/pusher tokens and raises the reset flag with it. A feature
// that is off leaves its count unread.
func TestLegitimatePopulation(t *testing.T) {
	const l = 3
	full := Config{K: 2, L: l, Features: Full()}
	nonstab := Config{K: 2, L: l, Features: NonStabilizing()}
	pusher := Config{K: 2, L: l, Features: PusherOnly()}
	naive := Config{K: 2, L: l, Features: Naive()}
	for _, tc := range []struct {
		name            string
		cfg             Config
		res, prio, push int
		reset           bool
		want            bool
	}{
		{"exact", full, l, 1, 1, false, true},
		{"reset pending", full, l, 1, 1, true, false},
		{"resource short", full, l - 1, 1, 1, false, false},
		{"resource saturated", full, l + 1, 1, 1, true, false},
		{"resource saturated, no flag", full, l + 1, 1, 1, false, false},
		{"priority missing", full, l, 0, 1, false, false},
		{"priority saturated", full, l, 2, 1, true, false},
		{"priority saturated, no flag", full, l, 2, 1, false, false},
		{"pusher missing", full, l, 1, 0, false, false},
		{"pusher saturated", full, l, 1, 2, false, false},
		{"nonstab exact", nonstab, l, 1, 1, false, true},
		{"nonstab priority duplicated", nonstab, l, 2, 1, false, false},
		{"pusher-only ignores priority", pusher, l, 0, 1, false, true},
		{"pusher-only ignores two priority", pusher, l, 2, 1, false, true},
		{"pusher-only pusher missing", pusher, l, 0, 0, false, false},
		{"naive ignores both", naive, l, 2, 0, false, true},
		{"naive resource saturated", naive, l + 1, 0, 0, false, false},
		{"naive reset pending", naive, l, 0, 0, true, false},
	} {
		if got := tc.cfg.LegitimatePopulation(tc.res, tc.prio, tc.push, tc.reset); got != tc.want {
			t.Errorf("%s: LegitimatePopulation(%d, %d, %d, %v) = %v, want %v",
				tc.name, tc.res, tc.prio, tc.push, tc.reset, got, tc.want)
		}
	}
}
