package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/tree"
)

func testCfg(k, l int) core.Config {
	return core.Config{K: k, L: l, CMAX: 4, Features: core.Full()}
}

// emptySet returns the action set of a fresh simulation over tr, which is
// empty: nothing is in flight, no application is attached and the clock has
// not reached the timeout. The set decodes deliveries through the
// simulation's process lines, so it is built the way New builds it.
func emptySet(tr *tree.Tree) *ActionSet {
	return MustNew(tr, testCfg(1, 1), Options{}).actions
}

// TestActionSetOrdinalRoundTrip checks encode/decode agree over the whole
// ordinal space of an irregular topology.
func TestActionSetOrdinalRoundTrip(t *testing.T) {
	tr := tree.Caterpillar(4, 2)
	as := emptySet(tr)
	if as.e != tr.RingLen() {
		t.Fatalf("e = %d, want %d", as.e, tr.RingLen())
	}
	for ord := 0; ord < as.m; ord++ {
		a := as.actionOf(ord)
		if got := as.ordinal(a); got != ord {
			t.Fatalf("ordinal(actionOf(%d)) = %d (%v)", ord, got, a)
		}
	}
	// Out-of-range encodings are rejected, not aliased.
	bad := []Action{
		{Kind: ActDeliver, Proc: 0, Ch: tr.Degree(0)},
		{Kind: ActDeliver, Proc: tr.N(), Ch: 0},
		{Kind: ActDeliver, Proc: -1, Ch: 0},
		{Kind: ActTimeout, Proc: 1},
		{Kind: ActApp, Proc: tr.N()},
	}
	for _, a := range bad {
		if as.ordinal(a) != -1 {
			t.Errorf("ordinal(%v) = %d, want -1", a, as.ordinal(a))
		}
	}
}

// TestActionSetCanonicalOrder verifies At/AppendAll enumerate in old-scan
// order regardless of insertion order.
func TestActionSetCanonicalOrder(t *testing.T) {
	tr := tree.Paper()
	as := emptySet(tr)
	ords := rand.New(rand.NewSource(3)).Perm(as.m)
	for _, ord := range ords {
		addOrd(as, ord)
	}
	if as.Len() != as.m {
		t.Fatalf("Len = %d, want %d", as.Len(), as.m)
	}
	var all []Action
	all = as.AppendAll(all)
	for i, a := range all {
		if got := as.At(i); got != a {
			t.Fatalf("At(%d) = %v, AppendAll[%d] = %v", i, got, i, a)
		}
		if got := as.ordinal(a); got != i {
			t.Fatalf("enumeration out of canonical order at %d: %v (ord %d)", i, a, got)
		}
	}
}

// TestActionSetSwapRemove exercises add/remove/clear against a model map (the
// name dates from the swap-remove index the bitmap replaced).
func TestActionSetSwapRemove(t *testing.T) {
	tr := tree.Star(6)
	as := emptySet(tr)
	model := map[int]bool{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10_000; i++ {
		ord := rng.Intn(as.m)
		if rng.Intn(2) == 0 {
			addOrd(as, ord)
			model[ord] = true
		} else {
			removeOrd(as, ord)
			delete(model, ord)
		}
	}
	if as.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", as.Len(), len(model))
	}
	var want []int
	for ord := range model {
		want = append(want, ord)
	}
	sort.Ints(want)
	got := as.AppendAll(nil)
	for i, ord := range want {
		if as.ordinal(got[i]) != ord {
			t.Fatalf("mismatch at %d: got %v want ordinal %d", i, got[i], ord)
		}
	}
	as.clear()
	if as.Len() != 0 || len(as.AppendAll(nil)) != 0 {
		t.Error("clear left members behind")
	}
	if !bitmapsZero(as) {
		t.Error("clear left a bit or a count behind")
	}
	// The cleared set is as good as new: refill it and it must select
	// exactly as before.
	for _, ord := range want {
		addOrd(as, ord)
	}
	for i, ord := range want {
		if got := as.ordinal(as.At(i)); got != ord {
			t.Fatalf("after clear and refill: At(%d) = ordinal %d, want %d", i, got, ord)
		}
	}
}

// checkForms compares every accessor of as with a naive model: the sorted
// slice of enabled ordinals.
func checkForms(t *testing.T, as *ActionSet, model []int, dense bool) {
	t.Helper()
	if as.dense != dense {
		t.Fatalf("dense = %v with %d members, want %v", as.dense, len(model), dense)
	}
	if !dense && !bitmapsZero(as) {
		t.Fatal("a bitmap or count is nonzero while the set is in its small form")
	}
	if as.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", as.Len(), len(model))
	}
	in := make([]bool, as.m)
	want := make([]Action, 0, len(model))
	for i, ord := range model {
		in[ord] = true
		want = append(want, as.actionOf(ord))
		if got := as.At(i); got != want[i] {
			t.Fatalf("At(%d) = %v, want %v", i, got, want[i])
		}
	}
	if got := as.AppendAll(make([]Action, 0, len(model))); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendAll = %v, want %v", got, want)
	}
	for ord := 0; ord < as.m; ord++ {
		if got := as.Contains(as.actionOf(ord)); got != in[ord] {
			t.Fatalf("Contains(%v) = %v, want %v", as.actionOf(ord), got, in[ord])
		}
	}
}

// addOrd and removeOrd drive a set by ordinal alone, finding where each
// action lives the way the dense form does.
func addOrd(as *ActionSet, ord int)    { as.add(ord, as.locate(ord)) }
func removeOrd(as *ActionSet, ord int) { as.remove(ord, as.locate(ord)) }

// bitmapsZero reports whether the whole dense form is zero — the invariant
// of the small form.
func bitmapsZero(as *ActionSet) bool {
	zero := true
	for _, w := range as.words {
		zero = zero && w == 0
	}
	for _, c := range as.cnt1 {
		zero = zero && c == 0
	}
	for _, c := range as.cnt2 {
		zero = zero && c == 0
	}
	return zero
}

// TestActionSetForms walks one set through both forms and both crossings —
// empty → smallCap (sorted array) → smallCap+1 (spilled into the bitmaps) →
// smallCap/2 (extracted back) → clear — by random insertions and removals,
// duplicates included, and checks every accessor against the model after
// every mutation.
func TestActionSetForms(t *testing.T) {
	tr := tree.Caterpillar(6, 2) // 18 processes, 34 channels, 53 ordinals
	as := emptySet(tr)
	rng := rand.New(rand.NewSource(5))
	var model []int
	for _, leg := range []struct {
		name   string
		size   int // mutate until the set has this many members; -1: clear()
		dense  bool
		spills int64
	}{
		{"fill to the cap", smallCap, false, 0},
		{"spill", smallCap + 1, true, 1},
		{"grow dense", smallCap + 12, true, 1},
		{"shrink to just above half", smallCap/2 + 1, true, 1},
		{"unspill", smallCap / 2, false, 1},
		{"shrink small", 2, false, 1},
		{"spill again", smallCap + 3, true, 2},
		{"clear a dense set", -1, false, 2},
		{"refill small", 7, false, 2},
		{"clear a small set", -1, false, 2},
	} {
		if leg.size < 0 {
			as.clear()
			model = model[:0]
			checkForms(t, as, model, false)
		}
		for len(model) != max(leg.size, 0) {
			ord := rng.Intn(as.m)
			i := sort.SearchInts(model, ord)
			present := i < len(model) && model[i] == ord
			wasDense := as.dense
			if len(model) < leg.size {
				addOrd(as, ord)
				if !present {
					model = append(model, 0)
					copy(model[i+1:], model[i:])
					model[i] = ord
				}
			} else {
				removeOrd(as, ord)
				if present {
					model = append(model[:i], model[i+1:]...)
				}
			}
			// The form only changes at the two thresholds.
			dense := wasDense
			if len(model) > smallCap {
				dense = true
			} else if len(model) <= smallCap/2 {
				dense = false
			}
			checkForms(t, as, model, dense)
		}
		if as.dense != leg.dense || as.spills != leg.spills {
			t.Fatalf("%s: dense = %v, spills = %d, want %v, %d", leg.name, as.dense, as.spills, leg.dense, leg.spills)
		}
	}
}

// toggleApp is an application whose enablement the test sets directly.
type toggleApp struct {
	core.NopApp
	on   bool
	wake int64
}

func (a *toggleApp) Enabled(int64) bool { return a.on }
func (a *toggleApp) Act(Handle)         {}
func (a *toggleApp) WakeAt(int64) int64 { return a.wake }

// checkKnownState asserts what the kernel remembers about the set instead of
// asking it — each application's appOn and the timeout's timeoutOn — agrees
// with the set, and the set with a fresh scan.
func checkKnownState(t *testing.T, s *Sim) {
	t.Helper()
	checkAgainstScan(t, s)
	for p := 0; p < s.Tree.N(); p++ {
		pr := &s.procs[s.actions.slotOf[p]]
		on := pr.simApp().Enabled(s.clock)
		if got := s.actions.Contains(Action{Kind: ActApp, Proc: p}); got != on || (pr.wakeAt == appOn) != on {
			t.Fatalf("process %d: application enabled = %v, in the set = %v, wakeAt = %d", p, on, got, pr.wakeAt)
		}
	}
	timeout := s.actions.Contains(Action{Kind: ActTimeout})
	if on := s.timerExpired(); timeout != on || s.timeoutOn != on {
		t.Fatalf("timer expired = %v, timeout in the set = %v, timeoutOn = %v", on, timeout, s.timeoutOn)
	}
}

// TestCallerKnownState covers the three places that reset what the kernel
// remembers about application and timeout membership: AttachApp over an
// enabled application, ResyncActions after mutations no hook saw, and the
// quiescent fast-forward.
func TestCallerKnownState(t *testing.T) {
	tr := tree.Paper()
	s := MustNew(tr, testCfg(2, 3), Options{Seed: 4, TimeoutTicks: 50})
	apps := make([]*toggleApp, tr.N())
	for p := range apps {
		apps[p] = &toggleApp{on: p%2 == 0, wake: NoWake}
		s.AttachApp(p, apps[p])
		checkKnownState(t, s)
	}
	// Over an enabled application: a disabled one, an enabled one, and a
	// disabled one with a wake time, which must then fire.
	s.AttachApp(0, &toggleApp{wake: NoWake})
	checkKnownState(t, s)
	s.AttachApp(2, &toggleApp{on: true, wake: NoWake})
	checkKnownState(t, s)
	sleeper := &toggleApp{wake: s.clock + 3}
	s.AttachApp(4, sleeper)
	checkKnownState(t, s)
	sleeper.on = true // from its wake time on, as its WakeAt promised
	for i := 0; i < 3; i++ {
		s.Step()
	}
	checkKnownState(t, s)
	if !s.actions.Contains(Action{Kind: ActApp, Proc: 4}) {
		t.Error("the application attached over an enabled one never woke")
	}

	// Out-of-band: flip applications and the timer behind the kernel's back,
	// empty the set, resync.
	for p, a := range apps {
		a.on = p%3 == 0
	}
	s.lastRestart = s.clock - s.timeoutTicks // expired
	s.actions.clear()
	s.ResyncActions()
	checkKnownState(t, s)
	s.lastRestart = s.clock // restarted
	s.ResyncActions()
	checkKnownState(t, s)

	// Quiescent fast-forward: nothing in flight, no application enabled.
	q := MustNew(tr, testCfg(2, 3), Options{Seed: 4, TimeoutTicks: 50})
	if !q.Quiescent() {
		t.Fatal("an empty system with no application is not quiescent")
	}
	q.Step() // jumps to the timeout and fires it
	if q.Timeouts != 1 || q.clock != 51 {
		t.Fatalf("fast-forward: %d timeouts at clock %d, want 1 at 51", q.Timeouts, q.clock)
	}
	checkKnownState(t, q)
	for i := 0; i < 200; i++ {
		q.Step()
		checkKnownState(t, q)
	}
}

// checkAgainstScan asserts the incrementally maintained set matches the
// naive full scan exactly (content and canonical order).
func checkAgainstScan(t *testing.T, s *Sim) {
	t.Helper()
	s.syncActions()
	got := s.actions.AppendAll(nil)
	want := s.scanEnabled(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ActionSet diverged from naive scan:\n  set:  %v\n  scan: %v", got, want)
	}
}

// TestActionSetTracksSimMutations drives a live simulation through seeding,
// stepping, fault-style Replace mutations and resyncs, checking the set
// against the naive scan after every operation.
func TestActionSetTracksSimMutations(t *testing.T) {
	tr := tree.Paper()
	s := MustNew(tr, testCfg(2, 3), Options{Seed: 4, TimeoutTicks: 50})
	rng := rand.New(rand.NewSource(8))
	checkAgainstScan(t, s)
	for i := 0; i < 2_000; i++ {
		switch rng.Intn(10) {
		case 0:
			p := rng.Intn(tr.N())
			s.Seed(p, rng.Intn(tr.Degree(p)), message.Random(rng, 11, 3))
		case 1:
			p := rng.Intn(tr.N())
			c := s.Out(p, rng.Intn(tr.Degree(p)))
			var msgs []message.Message
			for j := rng.Intn(3); j > 0; j-- {
				msgs = append(msgs, message.Random(rng, 11, 3))
			}
			c.Replace(msgs)
		case 2:
			s.ResyncActions()
		case 3:
			stormThenResync(s, rng, rng.Intn(3))
		default:
			s.Step()
		}
		checkAgainstScan(t, s)
	}
}

// stormThenResync rewrites every channel to hold depth random messages —
// the shape of an adversary storm — then empties the action set behind the
// kernel's back and resyncs: the full-rebuild path, which must recover the
// set from the bulk-zeroed bitmaps alone.
func stormThenResync(s *Sim, rng *rand.Rand, depth int) {
	msgs := make([]message.Message, depth)
	for c := range s.chans {
		for i := range msgs {
			msgs[i] = message.Random(rng, 11, 3)
		}
		s.hub.Chan(int32(c)).Replace(msgs)
	}
	s.actions.clear()
	s.ResyncActions()
}

// FuzzActionSet feeds random add/remove/resync/step sequences to the
// incremental kernel and cross-checks the maintained set against the naive
// scan after every mutation — the enabled-set invariant under arbitrary
// interleavings of protocol steps and out-of-band channel rewrites. The tree
// has 34 channels, so the bulk ops take the set across smallCap and back
// below smallCap/2: both forms and both crossings are in reach of every
// other op.
func FuzzActionSet(f *testing.F) {
	f.Add([]byte{0x00, 0x51, 0xa2, 0xf3})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Add([]byte{0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07})
	f.Add([]byte{0xe0, 0xc0, 0xe5, 0xc0, 0xe0, 0x80, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // bound the scan cost per input
		}
		tr := tree.Caterpillar(6, 2)
		s := MustNew(tr, testCfg(2, 3), Options{Seed: 1, TimeoutTicks: 40})
		rng := rand.New(rand.NewSource(2))
		for _, b := range data {
			op, arg := b>>5, int(b&0x1f)
			p := arg % tr.N()
			ch := (arg / tr.N()) % tr.Degree(p)
			switch op {
			case 0, 1: // seed one message
				s.Seed(p, ch, message.Random(rng, 11, 3))
			case 2: // pop out-of-band (hooks must fire)
				if c := s.In(p, ch); c.Len() > 0 {
					c.Pop()
				}
			case 3: // replace with arg%3 messages
				var msgs []message.Message
				for j := 0; j < arg%3; j++ {
					msgs = append(msgs, message.Random(rng, 11, 3))
				}
				s.In(p, ch).Replace(msgs)
			case 4: // full resync
				s.ResyncActions()
			case 5: // storm, then clear() + resync
				stormThenResync(s, rng, arg%3)
			case 6: // protocol step
				s.Step()
			default:
				if arg%2 == 0 { // bulk add: a message into every empty channel
					for c := range s.chans {
						if s.hub.Chan(int32(c)).Len() == 0 {
							s.hub.Chan(int32(c)).Seed(message.Random(rng, 11, 3))
						}
					}
				} else { // bulk remove: empty all but the first arg/2 < smallCap/2 channels
					for c := arg / 2; c < len(s.chans); c++ {
						s.hub.Chan(int32(c)).Replace(nil)
					}
				}
			}
			s.syncActions()
			got := s.actions.AppendAll(nil)
			want := s.scanEnabled(nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: set %v, scan %v", op, got, want)
			}
		}
	})
}
