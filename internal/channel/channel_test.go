package channel

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"kofl/internal/message"
)

func TestFIFOOrder(t *testing.T) {
	c := New(0, 0, 1, 0)
	msgs := []message.Message{
		message.NewRes(), message.NewPush(), message.NewPrio(),
		message.NewCtrl(3, false, 1, 0),
	}
	for _, m := range msgs {
		c.Push(m)
	}
	for i, want := range msgs {
		if got := c.Pop(); got != want {
			t.Fatalf("pop %d: got %v, want %v", i, got, want)
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len after drain = %d", c.Len())
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty channel did not panic")
		}
	}()
	New(0, 0, 1, 0).Pop()
}

func TestPeekDoesNotConsume(t *testing.T) {
	c := New(0, 0, 1, 0)
	c.Push(message.NewRes())
	if c.Peek().Kind != message.Res || c.Len() != 1 {
		t.Error("Peek consumed the message")
	}
	if c.Pop().Kind != message.Res {
		t.Error("Pop after Peek wrong")
	}
}

func TestPeekEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Peek on empty channel did not panic")
		}
	}()
	New(0, 0, 1, 0).Peek()
}

func TestCount(t *testing.T) {
	c := New(0, 0, 1, 0)
	c.Push(message.NewRes())
	c.Push(message.NewRes())
	c.Push(message.NewPush())
	if got := c.Count(message.Res); got != 2 {
		t.Errorf("Count(Res) = %d, want 2", got)
	}
	if got := c.Count(message.Prio); got != 0 {
		t.Errorf("Count(Prio) = %d, want 0", got)
	}
	c.Pop()
	if got := c.Count(message.Res); got != 1 {
		t.Errorf("Count(Res) after pop = %d, want 1", got)
	}
}

func TestSnapshotAndReplace(t *testing.T) {
	c := New(0, 0, 1, 0)
	c.Push(message.NewRes())
	c.Push(message.NewPush())
	c.Pop() // head advances past Res
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Kind != message.Push {
		t.Fatalf("Snapshot = %v", snap)
	}
	// Mutating the snapshot must not affect the channel.
	snap[0] = message.NewPrio()
	if c.Peek().Kind != message.Push {
		t.Error("Snapshot aliases channel storage")
	}
	c.Replace([]message.Message{message.NewPrio(), message.NewRes()})
	if c.Len() != 2 || c.Pop().Kind != message.Prio || c.Pop().Kind != message.Res {
		t.Error("Replace contents wrong")
	}
}

func TestCompactionPreservesOrder(t *testing.T) {
	// Force many pops to trigger internal compaction and check order holds.
	c := New(0, 0, 1, 0)
	const total = 1000
	popped := 0
	for i := 0; i < total; i++ {
		c.Push(message.NewCtrl(i, false, 0, 0))
		// Interleave pops to exercise head movement.
		if i%2 == 1 {
			if got := c.Pop(); got.C != popped {
				t.Fatalf("pop %d: got C=%d", popped, got.C)
			}
			popped++
		}
	}
	for c.Len() > 0 {
		if got := c.Pop(); got.C != popped {
			t.Fatalf("drain pop %d: got C=%d", popped, got.C)
		}
		popped++
	}
	if popped != total {
		t.Errorf("popped %d, want %d", popped, total)
	}
}

func TestFIFOProperty(t *testing.T) {
	// Arbitrary interleavings of push/pop deliver in push order.
	check := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(0, 0, 1, 0)
		next, want := 0, 0
		for i := 0; i < int(ops)%500+50; i++ {
			if c.Len() == 0 || rng.Intn(2) == 0 {
				c.Push(message.NewCtrl(next, false, 0, 0))
				next++
			} else {
				if c.Pop().C != want {
					return false
				}
				want++
			}
		}
		for c.Len() > 0 {
			if c.Pop().C != want {
				return false
			}
			want++
		}
		return next == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	c := New(2, 1, 3, 0)
	c.Push(message.NewRes())
	if got := c.String(); got != "ch(2:1 -> 3:0, 1 in transit)" {
		t.Errorf("String = %q", got)
	}
}

// transition is one report of the emptiness hook.
type transition struct {
	ch       int32
	nonempty bool
}

// recordingHub returns a hub of n channels whose hook appends every
// reported transition to the returned slice.
func recordingHub(n int) (*Hub, *[]transition) {
	var events []transition
	return NewHub(n, func(i int32, nonempty bool) {
		events = append(events, transition{i, nonempty})
	}, nil), &events
}

// TestOnEmptinessTransitions pins the hook contract every mutator shares:
// fire with true on 0→nonzero, with false on nonzero→0, and stay silent on
// every non-transition — the invariant the simulator's incremental
// enabled-action set is built on.
func TestOnEmptinessTransitions(t *testing.T) {
	h, events := recordingHub(8)
	c := h.Chan(7)

	c.Push(message.NewRes())                                          // 0→1: true
	c.Push(message.NewRes())                                          // 1→2: silent
	c.Pop()                                                           // 2→1: silent
	c.Pop()                                                           // 1→0: false
	c.Seed(message.NewPush())                                         // 0→1: true
	c.Replace(nil)                                                    // 1→0: false
	c.Replace([]message.Message{message.NewRes(), message.NewPrio()}) // 0→2: true
	c.Replace([]message.Message{message.NewRes()})                    // 2→1: silent
	c.Pop()                                                           // 1→0: false

	want := []bool{true, false, true, false, true, false}
	if len(*events) != len(want) {
		t.Fatalf("hook fired %d times (%v), want %d (%v)", len(*events), *events, len(want), want)
	}
	for i := range want {
		if (*events)[i] != (transition{7, want[i]}) {
			t.Fatalf("event %d = %v, want {7 %v} (all: %v)", i, (*events)[i], want[i], *events)
		}
	}
}

// TestOnEmptinessSurvivesCompaction checks that long lists built and
// drained through the shared store do not confuse the transition detection.
func TestOnEmptinessSurvivesCompaction(t *testing.T) {
	h, events := recordingHub(1)
	c := h.Chan(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 100; i++ {
			c.Push(message.NewRes())
		}
		for c.Len() > 0 {
			c.Pop()
		}
	}
	if len(*events) != 10 { // one true + one false per round
		t.Errorf("hook fired %d times, want 10", len(*events))
	}
}

// TestNoHookIsFine: a standalone channel and a channel on a hookless hub
// must work unchanged.
func TestNoHookIsFine(t *testing.T) {
	for _, c := range []Ref{New(0, 0, 1, 0), NewHub(3, nil, nil).Chan(2)} {
		c.Push(message.NewRes())
		c.Replace(nil)
		c.Seed(message.NewRes())
		if c.Pop().Kind != message.Res {
			t.Error("hookless channel misbehaved")
		}
	}
}

// TestCountsReportEveryContentDelta drives every mutator on two channels of
// one hub and checks the shared Counts reconstruct their joint contents:
// Push/Seed count +1, Pop −1, Replace the removed set then the added set.
// The per-kind population must match what Count reports at every point.
func TestCountsReportEveryContentDelta(t *testing.T) {
	h := NewHub(2, nil, nil)
	c, d := h.Chan(0), h.Chan(1)
	check := func(when string) {
		t.Helper()
		for _, k := range []message.Kind{message.Res, message.Push, message.Prio, message.Ctrl} {
			if got, want := h.Counts.Kinds[k], int64(c.Count(k)+d.Count(k)); got != want {
				t.Fatalf("%s: Counts[%v]=%d but the channels hold %d", when, k, got, want)
			}
		}
	}
	c.Push(message.NewRes())
	d.Push(message.NewRes())
	c.Seed(message.NewPush())
	c.Push(message.NewCtrl(3, true, 1, 0))
	check("after push/seed")
	c.Pop()
	check("after pop")
	c.Replace([]message.Message{message.NewPrio(), message.NewPrio(), message.NewRes()})
	check("after replace")
	c.Replace(nil)
	d.Pop()
	check("after emptying")
	if h.Counts != (Counts{}) {
		t.Errorf("counts %+v after emptying, want zero", h.Counts)
	}
}

// TestLayoutGuard pins the header to four words with no pointer among
// them: four headers to a cache line, and a table the garbage collector
// never scans. If it grows, the simulator's bytes/process ceiling
// (sim.TestBytesPerProcessCeiling) goes with it; if it gains a pointer,
// so does every GC cycle's mark work at big n.
func TestLayoutGuard(t *testing.T) {
	if got := unsafe.Sizeof(Channel{}); got > 16 {
		t.Fatalf("Channel header is %d bytes, want ≤ 16", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Channel{}), reflect.TypeOf(node{})} {
		if f, ok := pointerField(typ); ok {
			t.Errorf("%v holds a pointer in field %s", typ, f)
		}
	}
}

// pointerField returns the first field path of typ that holds a pointer.
func pointerField(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if sub, ok := pointerField(f.Type); ok {
				return strings.TrimSuffix(f.Name+"."+sub, "."), true
			}
		}
		return "", false
	case reflect.Array:
		return pointerField(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return "", true
	}
	return "", false
}
