package channel

import (
	"testing"

	"kofl/internal/message"
)

// storeNodes returns the store's capacity and how many of its nodes are
// free and in use, checking the three agree: every node is on the free list
// or in exactly one channel's list.
func storeNodes(t testing.TB, h *Hub) (capacity, free, live int) {
	t.Helper()
	for n := h.free; n != noNode; n = h.nodes[n].next {
		if free++; free > len(h.nodes) {
			t.Fatalf("free list longer than the store's %d nodes", len(h.nodes))
		}
	}
	for i := range h.chans {
		live += int(h.chans[i].count)
	}
	if live+free != len(h.nodes) {
		t.Fatalf("%d live + %d free nodes, store capacity %d", live, free, len(h.nodes))
	}
	return len(h.nodes), free, live
}

// TestBoundedRetention pins the fix for the historical unbounded-retention
// bug: the old grow-only queue/head scheme pinned every message ever sent
// until a compaction heuristic fired. The store's capacity is bounded by the
// high-water mark, not by throughput: N push/pop cycles at depth ≤ 3 leave
// it at its first capacity, no matter how large N.
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
	if got, _, _ := storeNodes(t, c.h); got > minNodes {
		t.Fatalf("store capacity after %d shallow push/pop cycles = %d, want ≤ %d", cycles, got, minNodes)
	}
}

// TestSingleFrameUsesOneNode pins the last-in first-out free list: a
// channel that never holds more than one frame — every channel of a
// stabilized system — takes the node its last pop freed, so the traffic of
// a whole run stays on one node.
func TestSingleFrameUsesOneNode(t *testing.T) {
	h := NewHub(2, nil, nil)
	c, d := h.Chan(0), h.Chan(1)
	c.Push(message.NewRes())
	c.Pop()
	first := h.free
	for i := 0; i < 1000; i++ {
		d.Push(message.NewCtrl(i, false, 0, 0))
		if got := h.chans[1].tail; got != first {
			t.Fatalf("push %d took node %d, want the freed node %d", i, got, first)
		}
		if got := d.Pop(); got.C != i {
			t.Fatalf("popped C=%d, want %d", got.C, i)
		}
	}
	if capacity, _, live := storeNodes(t, h); capacity != minNodes || live != 0 {
		t.Fatalf("store %d nodes, %d live after single-frame traffic", capacity, live)
	}
}

// TestDrainReclaimsBurst checks that a burst's nodes go back to the store
// the moment they are popped: after draining, every node is free, and a
// second burst of the same size on another channel grows nothing.
func TestDrainReclaimsBurst(t *testing.T) {
	h := NewHub(2, nil, nil)
	const burst = 300
	for _, c := range []Ref{h.Chan(0), h.Chan(1)} {
		for i := 0; i < burst; i++ {
			c.Push(message.NewRes())
		}
		capacity, _, live := storeNodes(t, h)
		if live != burst || capacity < burst || capacity > 2*burst {
			t.Fatalf("%d live nodes in a store of %d during a burst of %d", live, capacity, burst)
		}
		for c.Len() > 0 {
			c.Pop()
		}
		if capacity, free, _ := storeNodes(t, h); free != capacity {
			t.Fatalf("%d of %d nodes free after draining a burst", free, capacity)
		}
	}
}

// TestStoreRecycles checks the store reaches a fixed point: a drained
// burst's nodes serve the next burst, on any channel, without growth.
func TestStoreRecycles(t *testing.T) {
	h := NewHub(4, nil, nil)
	burst := func(c Ref) {
		for i := 0; i < 200; i++ {
			c.Push(message.NewRes())
		}
		for c.Len() > 0 {
			c.Pop()
		}
	}
	burst(h.Chan(0))
	before, _, _ := storeNodes(t, h)
	for i := int32(0); i < 4; i++ {
		burst(h.Chan(i))
	}
	if after, _, _ := storeNodes(t, h); after != before {
		t.Fatalf("second bursts grew the store: %d → %d nodes", before, after)
	}
}

// TestStoreGrowsByDoubling checks the growth rule the memory bound rests
// on: the store starts at minNodes and doubles only when every node is
// live, so it never holds more than twice the peak number of messages.
func TestStoreGrowsByDoubling(t *testing.T) {
	h := NewHub(3, nil, nil)
	for peak := 1; peak <= 5000; peak++ {
		h.Chan(int32(peak % 3)).Push(message.NewRes())
		capacity, _, _ := storeNodes(t, h)
		if capacity != max(minNodes, 1<<bitsFor(peak)) {
			t.Fatalf("%d messages in a store of %d nodes", peak, capacity)
		}
	}
}

// bitsFor returns the least b with 1<<b ≥ n.
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// TestWrapAroundOrder drives the circular lists of two interleaved channels
// through the shared store many times and checks FIFO order and
// Snapshot/Count/Peek agreement under partial fills.
func TestWrapAroundOrder(t *testing.T) {
	h := NewHub(2, nil, nil)
	chans := [2]Ref{h.Chan(0), h.Chan(1)}
	var next, expect [2]int
	push := func(k int) {
		chans[k].Push(message.NewCtrl(next[k], false, 0, 0))
		next[k]++
	}
	pop := func(k int) {
		m := chans[k].Pop()
		if m.C != expect[k] {
			t.Fatalf("channel %d popped C=%d, want %d", k, m.C, expect[k])
		}
		expect[k]++
	}
	for round := 0; round < 1000; round++ {
		k := round % 2
		push(k)
		push(1 - k)
		push(k)
		pop(k)
		pop(1 - k)
		for k, c := range chans {
			if snap := c.Snapshot(); len(snap) != c.Len() {
				t.Fatalf("snapshot length %d != Len %d", len(snap), c.Len())
			}
			if c.Len() > 0 && c.Peek().C != expect[k] {
				t.Fatalf("peek C=%d, want %d", c.Peek().C, expect[k])
			}
		}
	}
	for _, c := range chans {
		if got := c.Count(message.Ctrl); got != c.Len() {
			t.Fatalf("Count(ctrl) = %d, want %d", got, c.Len())
		}
	}
	storeNodes(t, h)
}

// TestCountsMaintained checks the hub's Counts mirror every mutator's
// content deltas — Push, Seed, Pop, Replace — including the reset-flag split,
// while garbage kinds stay uncounted.
func TestCountsMaintained(t *testing.T) {
	h := NewHub(1, nil, nil)
	ct := &h.Counts
	c := h.Chan(0)
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
// each transition arrives under its channel's table index.
func TestTaggedEmptinessHook(t *testing.T) {
	h, got := recordingHub(44)
	c, d := h.Chan(42), h.Chan(43)
	c.Push(message.NewRes()) // 0→1: fire true
	d.Push(message.NewRes()) // the other channel, its own index
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

// FuzzChannelFIFO runs random Push/Seed/Pop/Replace sequences over the
// channels of one hub against a model of one slice per channel, and checks
// after every operation: each channel's contents in FIFO order, the hub's
// Counts against a recount, every emptiness transition reported exactly
// once, and every store node live or free — with the store never above
// twice the peak number of messages in flight.
func FuzzChannelFIFO(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x40, 0x41, 0x80, 0xc3})
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x50, 0x51, 0x52})
	f.Add([]byte{0x03, 0x03, 0x03, 0x03, 0x03, 0xc3, 0x43, 0x43, 0xe1, 0xa1})
	f.Add([]byte{0xff, 0x7f, 0x3f, 0xbf, 0x1f, 0x9f, 0x5f, 0xdf})
	const nch = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		var events []transition
		h := NewHub(nch, func(i int32, nonempty bool) {
			events = append(events, transition{i, nonempty})
		}, nil)
		model := make([][]message.Message, nch)
		peak, seq := 0, 0
		msg := func(b byte) message.Message {
			seq++
			return message.Message{Kind: message.Kind(b % 6), C: seq, R: b&8 != 0}
		}
		for _, b := range data {
			i := int32(b & (nch - 1))
			c := h.Chan(i)
			wasEmpty := len(model[i]) == 0
			switch b >> 6 {
			case 0:
				m := msg(b)
				c.Push(m)
				model[i] = append(model[i], m)
			case 1:
				m := msg(b)
				c.Seed(m)
				model[i] = append(model[i], m)
			case 2:
				if len(model[i]) == 0 {
					continue
				}
				if got, want := c.Pop(), model[i][0]; got != want {
					t.Fatalf("channel %d popped %+v, want %+v", i, got, want)
				}
				model[i] = model[i][1:]
			default:
				msgs := make([]message.Message, int(b>>2)&7)
				for k := range msgs {
					msgs[k] = msg(b + byte(k))
				}
				c.Replace(msgs)
				model[i] = msgs
			}
			if isEmpty := len(model[i]) == 0; isEmpty != wasEmpty {
				if len(events) != 1 || events[0] != (transition{i, !isEmpty}) {
					t.Fatalf("channel %d went empty=%v, hook reported %v", i, isEmpty, events)
				}
			} else if len(events) != 0 {
				t.Fatalf("channel %d stayed empty=%v, hook reported %v", i, isEmpty, events)
			}
			events = events[:0]

			var want Counts
			inFlight := 0
			for k := range model {
				got := h.Chan(int32(k)).Snapshot()
				if len(got) != len(model[k]) {
					t.Fatalf("channel %d holds %d messages, model %d", k, len(got), len(model[k]))
				}
				for j := range got {
					if got[j] != model[k][j] {
						t.Fatalf("channel %d message %d = %+v, model %+v", k, j, got[j], model[k][j])
					}
					want.apply(got[j], +1)
				}
				inFlight += len(got)
			}
			if h.Counts != want {
				t.Fatalf("Counts %+v, recount %+v", h.Counts, want)
			}
			peak = max(peak, inFlight)
			if capacity, _, live := storeNodes(t, h); live != inFlight || capacity > max(minNodes, 2*peak) {
				t.Fatalf("store of %d nodes, %d live, for %d in flight (peak %d)", capacity, live, inFlight, peak)
			}
		}
	})
}
