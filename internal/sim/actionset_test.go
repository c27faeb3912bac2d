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

// TestActionSetOrdinalRoundTrip checks encode/decode agree over the whole
// ordinal space of an irregular topology.
func TestActionSetOrdinalRoundTrip(t *testing.T) {
	tr := tree.Caterpillar(4, 2)
	as := newActionSet(tr)
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
	as := newActionSet(tr)
	ords := rand.New(rand.NewSource(3)).Perm(as.m)
	for _, ord := range ords {
		as.add(ord)
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
	as := newActionSet(tr)
	model := map[int]bool{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10_000; i++ {
		ord := rng.Intn(as.m)
		if rng.Intn(2) == 0 {
			as.add(ord)
			model[ord] = true
		} else {
			as.remove(ord)
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
	for p := 0; p < tr.N(); p++ {
		if as.perProc[p] != 0 {
			t.Errorf("perProc[%d] = %d after clear", p, as.perProc[p])
		}
	}
	if as.NextProc(0) != -1 {
		t.Error("clear left a process marked in the summary bitmaps")
	}
	// The cleared set is as good as new: refill it and the count hierarchy
	// must select exactly as before.
	for _, ord := range want {
		as.add(ord)
	}
	for i, ord := range want {
		if got := as.ordinal(as.At(i)); got != ord {
			t.Fatalf("after clear and refill: At(%d) = ordinal %d, want %d", i, got, ord)
		}
	}
}

// TestActionSetProcQueries pins NextProc/MinDeliver/EachDeliver semantics.
func TestActionSetProcQueries(t *testing.T) {
	tr := tree.Paper() // r(a(b c) d(e f g)): degrees r=2 a=3 d=4 leaves=1
	as := newActionSet(tr)
	if as.NextProc(0) != -1 {
		t.Error("NextProc on empty set != -1")
	}
	as.add(as.ordDeliver(2, 3)) // d's channel 3
	as.add(as.ordDeliver(2, 1))
	as.add(as.ordApp(5))
	as.add(as.ordTimeout()) // counts for the root
	if got := as.NextProc(3); got != 5 {
		t.Errorf("NextProc(3) = %d, want 5", got)
	}
	if got := as.NextProc(6); got != 0 {
		t.Errorf("NextProc(6) = %d, want 0 (wrap to the root's timeout)", got)
	}
	if got := as.NextProc(1); got != 2 {
		t.Errorf("NextProc(1) = %d, want 2", got)
	}
	if got := as.MinDeliver(2); got != 1 {
		t.Errorf("MinDeliver(2) = %d, want 1", got)
	}
	if got := as.MinDeliver(1); got != -1 {
		t.Errorf("MinDeliver(1) = %d, want -1", got)
	}
	var chans []int
	as.EachDeliver(2, func(ch int) bool { chans = append(chans, ch); return true })
	if !reflect.DeepEqual(chans, []int{1, 3}) {
		t.Errorf("EachDeliver(2) = %v, want [1 3]", chans)
	}
	if !as.TimeoutEnabled() || !as.HasApp(5) || as.HasApp(4) {
		t.Error("membership predicates wrong")
	}
	as.remove(as.ordTimeout())
	if got := as.NextProc(6); got != 2 {
		t.Errorf("NextProc(6) after timeout removal = %d, want 2", got)
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
	for ord := range s.chans {
		for i := range msgs {
			msgs[i] = message.Random(rng, 11, 3)
		}
		s.chans[ord].Replace(msgs)
	}
	s.actions.clear()
	s.ResyncActions()
}

// FuzzActionSet feeds random add/remove/resync/step sequences to the
// incremental kernel and cross-checks the maintained set against the naive
// scan after every mutation — the enabled-set invariant under arbitrary
// interleavings of protocol steps and out-of-band channel rewrites.
func FuzzActionSet(f *testing.F) {
	f.Add([]byte{0x00, 0x51, 0xa2, 0xf3})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Add([]byte{0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // bound the scan cost per input
		}
		tr := tree.Paper()
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
			default: // protocol step
				s.Step()
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
