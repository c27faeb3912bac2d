package channel

import (
	"testing"

	"kofl/internal/message"
)

// TestBoundedRetention pins the fix for the historical unbounded-retention
// bug: the old grow-only queue/head scheme pinned every message ever sent
// until a compaction heuristic fired. The ring buffer keeps capacity bounded
// by the high-water mark, not by throughput: N push/pop cycles at depth ≤ d
// must leave capacity at the power of two covering d, no matter how large N.
func TestBoundedRetention(t *testing.T) {
	c := New(0, 0, 1, 0)
	const cycles = 100_000
	for i := 0; i < cycles; i++ {
		c.Push(message.NewRes())
		c.Push(message.NewPrio())
		c.Push(message.NewPush())
		c.Pop()
		c.Pop()
		c.Pop()
	}
	if got := c.Cap(); got > minBufCap {
		t.Fatalf("capacity after %d shallow push/pop cycles = %d, want ≤ %d", cycles, got, minBufCap)
	}
}

// TestSingleFrameNeverOwnsRing pins the inline head slot: a channel that
// never holds more than one frame — every channel of a stabilized system —
// draws no ring however long it runs, attached or standalone.
func TestSingleFrameNeverOwnsRing(t *testing.T) {
	attached := New(0, 0, 1, 0)
	attached.Attach(NewHub(nil), 0)
	for _, c := range []*Channel{New(0, 0, 1, 0), attached} {
		for i := 0; i < 1000; i++ {
			c.Push(message.NewCtrl(i, false, 0, 0))
			if got := c.Pop(); got.C != i {
				t.Fatalf("popped C=%d, want %d", got.C, i)
			}
		}
		if c.Cap() != 0 {
			t.Fatalf("single-frame traffic drew a ring of %d frames", c.Cap())
		}
	}
}

// TestDrainReclaimsBurst checks explicit reclamation: a burst that grows the
// ring past reclaimCap is released the moment the channel drains, while a
// modest ring is kept for reuse.
func TestDrainReclaimsBurst(t *testing.T) {
	c := New(0, 0, 1, 0)
	for i := 0; i < 4*reclaimCap; i++ {
		c.Push(message.NewRes())
	}
	if got := c.Cap(); got < 4*reclaimCap {
		t.Fatalf("burst capacity = %d, want ≥ %d", got, 4*reclaimCap)
	}
	for c.Len() > 0 {
		c.Pop()
	}
	if got := c.Cap(); got != 0 {
		t.Fatalf("capacity after draining a burst = %d, want 0 (released)", got)
	}
	// A small ring survives draining (no thrash on the steady state).
	c.Push(message.NewRes())
	c.Push(message.NewRes())
	c.Pop()
	c.Pop()
	if got := c.Cap(); got == 0 || got > reclaimCap {
		t.Fatalf("steady-state capacity after drain = %d, want (0, %d]", got, reclaimCap)
	}
}

// TestWrapAroundOrder drives the head across the wrap boundary many times and
// checks FIFO order and Snapshot/Count/Peek agreement under partial fills.
func TestWrapAroundOrder(t *testing.T) {
	c := New(0, 0, 1, 0)
	next, expect := 0, 0
	push := func() {
		c.Push(message.NewCtrl(next, false, 0, 0))
		next++
	}
	pop := func() {
		m := c.Pop()
		if m.C != expect {
			t.Fatalf("popped C=%d, want %d", m.C, expect)
		}
		expect++
	}
	for round := 0; round < 1000; round++ {
		push()
		push()
		push()
		pop()
		pop()
		if snap := c.Snapshot(); len(snap) != c.Len() {
			t.Fatalf("snapshot length %d != Len %d", len(snap), c.Len())
		}
		if c.Peek().C != expect {
			t.Fatalf("peek C=%d, want %d", c.Peek().C, expect)
		}
	}
	if got := c.Count(message.Ctrl); got != c.Len() {
		t.Fatalf("Count(ctrl) = %d, want %d", got, c.Len())
	}
}

// TestCountsMaintained checks the attached Counts mirror every mutator's
// content deltas — Push, Seed, Pop, Replace — including the reset-flag split,
// while garbage kinds stay uncounted.
func TestCountsMaintained(t *testing.T) {
	h := NewHub(nil)
	ct := &h.Counts
	c := New(0, 0, 1, 0)
	c.Attach(h, 0)
	c.Push(message.NewRes())
	c.Seed(message.NewCtrl(3, true, 1, 0))
	c.Push(message.NewPush())
	c.Seed(message.Message{Kind: message.Kind(77)}) // garbage: not counted
	if ct.Kinds[message.Res] != 1 || ct.Kinds[message.Ctrl] != 1 || ct.ResetCtrl != 1 || ct.Kinds[message.Push] != 1 {
		t.Fatalf("counts after pushes: %+v", *ct)
	}
	c.Pop() // the Res
	if ct.Kinds[message.Res] != 0 {
		t.Fatalf("Res count after pop = %d, want 0", ct.Kinds[message.Res])
	}
	c.Replace([]message.Message{message.NewPrio()})
	if ct.Kinds[message.Ctrl] != 0 || ct.ResetCtrl != 0 || ct.Kinds[message.Push] != 0 || ct.Kinds[message.Prio] != 1 {
		t.Fatalf("counts after replace: %+v", *ct)
	}
}

// TestTaggedEmptinessHook checks that one hub hook serves many channels:
// each transition arrives under the tag its channel was attached with.
func TestTaggedEmptinessHook(t *testing.T) {
	h, got := recordingHub()
	c, d := New(0, 0, 1, 0), New(1, 0, 0, 0)
	c.Attach(h, 42)
	d.Attach(h, 43)
	c.Push(message.NewRes()) // 0→1: fire true
	d.Push(message.NewRes()) // the other channel, its own tag
	c.Push(message.NewRes()) // 1→2: silent
	c.Pop()                  // 2→1: silent
	c.Pop()                  // 1→0: fire false
	want := []transition{{42, true}, {43, true}, {42, false}}
	if len(*got) != len(want) {
		t.Fatalf("tagged events = %v, want %v", *got, want)
	}
	for i := range want {
		if (*got)[i] != want[i] {
			t.Fatalf("tagged events = %v, want %v", *got, want)
		}
	}
}

// TestArenaRecycles checks the arena reaches a fixed point: rings released on
// drain are handed back on the next growth of the same size class.
func TestArenaRecycles(t *testing.T) {
	h := NewHub(nil)
	a := &h.arena
	c := New(0, 0, 1, 0)
	c.Attach(h, 0)
	burst := func() {
		for i := 0; i < 4*reclaimCap; i++ {
			c.Push(message.NewRes())
		}
		for c.Len() > 0 {
			c.Pop()
		}
	}
	burst()
	cl := arenaClass(4 * reclaimCap)
	if len(a.free[cl]) == 0 {
		t.Fatalf("drained burst ring not returned to arena class %d", cl)
	}
	freeBefore := len(a.free[cl])
	burst()
	if got := len(a.free[cl]); got != freeBefore {
		t.Fatalf("second burst did not recycle: freelist %d → %d", freeBefore, got)
	}
}

// TestArenaClasses checks alloc/release round-trips across the class range,
// including the above-max direct path.
func TestArenaClasses(t *testing.T) {
	a := &arena{}
	for cl := arenaMinClass; cl <= arenaMaxClass; cl++ {
		buf := a.alloc(1 << cl)
		if len(buf) != 1<<cl || cap(buf) != 1<<cl {
			t.Fatalf("class %d: len/cap = %d/%d", cl, len(buf), cap(buf))
		}
		a.release(buf)
		if got := a.alloc(1 << cl); cap(got) != 1<<cl {
			t.Fatalf("class %d: recycled cap %d", cl, cap(got))
		}
	}
	huge := a.alloc(1 << (arenaMaxClass + 1))
	if len(huge) != 1<<(arenaMaxClass+1) {
		t.Fatalf("above-max alloc len = %d", len(huge))
	}
	a.release(huge) // must not be retained
	for cl := range a.free {
		for _, b := range a.free[cl] {
			if cap(b) > 1<<arenaMaxClass {
				t.Fatalf("arena retained an above-max buffer (cap %d)", cap(b))
			}
		}
	}
}
