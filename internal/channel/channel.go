// Package channel implements the reliable FIFO links of the model.
//
// Each bidirectional link of the tree is two directed channels. A channel
// delivers messages in order and never loses one (after transient faults
// stop), but may initially contain up to CMAX arbitrary messages — the
// assumption the paper needs for a bounded-memory self-stabilizing solution
// (Gouda & Multari).
//
// # Memory model
//
// The channels of one simulation live in one Hub: a table of 16-byte
// headers and one message store they all draw from, two slices with no
// pointer in them, so the garbage collector never scans either and copying
// the channel state is copying two slices. A header is four words — the
// message count, the store node holding the channel's last message, and two
// indices for the owner's tables (Rev, ToSlot) — four headers to a cache
// line. A store node is one message and the index of the next node: a
// channel's messages form a circular list through its tail node, whose
// successor is the head, so a push or pop touches the header and one or two
// nodes. Freed nodes go onto one last-in first-out free list, so the node a
// pop frees is the next push's, and the store grows by doubling — from
// minNodes — only when that list is empty: it never holds more than twice
// the peak number of messages in flight, and what a fault storm drew is
// reused by every channel afterwards. Nothing is allocated per channel, and
// a steady state allocates nothing at all.
//
// What every channel of one simulation shares — the population counter, the
// emptiness hook, the naming of endpoints — lives once in the Hub too. A
// channel is addressed by its table index, and handed out as a Ref: the hub
// and the index, a comparable value with the channel's operations.
package channel

import (
	"fmt"

	"kofl/internal/message"
)

// Counts aggregates the in-transit message populations of every channel of
// a Hub, by kind, plus the reset-flagged controller count. Kinds outside the
// protocol's four (initial channel garbage) are not counted, exactly as the
// census snapshot scan ignores them.
type Counts struct {
	Kinds     [8]int64 // by message.Kind; only Res..Ctrl (1..4) are used
	ResetCtrl int64    // ctrl messages in transit with R set
}

func (ct *Counts) apply(m message.Message, delta int64) {
	if !m.Kind.Valid() {
		return
	}
	// Valid() bounds Kind to 1..4; the &7 erases the bounds check.
	ct.Kinds[m.Kind&7] += delta
	if m.Kind == message.Ctrl && m.R {
		ct.ResetCtrl += delta
	}
}

// Channel is the header of one directed FIFO channel in its hub's table. It
// holds no pointer (the layout test pins that and ≤ 16 bytes): the messages
// live in the hub's store, the endpoints in the owner's tables.
type Channel struct {
	count uint32 // messages in transit
	tail  uint32 // store node holding the last message (meaningful while count > 0)

	// Rev and ToSlot are for an owner that keeps its channels and processes
	// in tables: Rev is the table index of the opposite direction, ToSlot
	// the receiver's position.
	Rev, ToSlot int32
}

// Ends names a channel's endpoints: From sends on its channel label FromCh,
// To receives on its label ToCh.
type Ends struct{ From, FromCh, To, ToCh int }

// node is one slot of the message store: a message in transit and the next
// node of its channel's circular list, or the next free node.
type node struct {
	msg  message.Message
	next uint32
}

const (
	// minNodes is the store's first capacity; it doubles from there.
	minNodes = 16
	// noNode ends the free list.
	noNode = ^uint32(0)
)

// Hub owns the channels of one simulation: their header table, the message
// store they share, the population counter every mutator maintains inline,
// the emptiness hook and the endpoint naming. A Hub is not safe for
// concurrent use (it matches the simulator's single-threaded execution
// model).
type Hub struct {
	// Counts is the in-transit population of the hub's channels. Every
	// mutator (Push, Seed, Pop, Replace) applies its content delta here, so
	// reading a census of the channels is O(1). The owner may overwrite it
	// to resynchronize after out-of-band changes.
	Counts Counts

	chans []Channel
	nodes []node
	free  uint32 // first free node, noNode when the store is full

	onEmptiness func(i int32, nonempty bool)
	ends        func(i int32) Ends
}

// NewHub returns a hub of n empty channels, table indices 0..n-1. Every
// emptiness transition is reported to onEmptiness (nil: none) with the
// channel's index: with true when it goes 0 → nonzero messages, with false
// when it drains back to zero. Every mutator reports through this single
// hook, which is what lets the simulator maintain its enabled-action set
// incrementally instead of re-scanning every channel every step. ends names
// a channel's endpoints for Ref.Ends and String (nil: all zero).
func NewHub(n int, onEmptiness func(i int32, nonempty bool), ends func(i int32) Ends) *Hub {
	return &Hub{chans: make([]Channel, n), free: noNode, onEmptiness: onEmptiness, ends: ends}
}

// New returns an empty channel for the directed edge from → to, alone in a
// hub of its own with no emptiness hook.
func New(from, fromCh, to, toCh int) Ref {
	e := Ends{From: from, FromCh: fromCh, To: to, ToCh: toCh}
	return NewHub(1, nil, func(int32) Ends { return e }).Chan(0)
}

// Table returns the header table, for the owner to fill in Rev and ToSlot
// and to read them on its hot path. Its message fields are the hub's.
func (h *Hub) Table() []Channel { return h.chans }

// Chan returns the channel at table index i.
func (h *Hub) Chan(i int32) Ref { return Ref{h: h, i: i} }

// growStore doubles the store, to minNodes when it is empty, and frees the
// new nodes.
func (h *Hub) growStore() {
	old := len(h.nodes)
	nodes := make([]node, max(2*old, minNodes))
	copy(nodes, h.nodes)
	h.nodes = nodes
	for n := len(nodes) - 1; n >= old; n-- { // the lowest index is taken first
		nodes[n].next = h.free
		h.free = uint32(n)
	}
}

// enqueue appends m to c's list, in the first free node n: n goes in
// behind the tail, and becomes it. An empty list's tail is n itself, so the
// new node links to itself. The caller grows a full store first, which
// keeps this inlinable.
func (h *Hub) enqueue(c *Channel, m message.Message) {
	n := h.free
	h.free = h.nodes[n].next
	t := c.tail
	if c.count == 0 {
		t = n
	}
	nd, tl := &h.nodes[n], &h.nodes[t]
	nd.msg, nd.next = m, n
	nd.next, tl.next = tl.next, n
	c.tail = n
	c.count++
}

// dequeue unlinks the head of c's (nonempty) list and frees its node. A
// one-message list is its tail alone, and the unlinking is then a no-op.
func (h *Hub) dequeue(c *Channel) message.Message {
	t := &h.nodes[c.tail]
	hd := t.next
	nd := &h.nodes[hd]
	t.next = nd.next
	nd.next, h.free = h.free, hd
	c.count--
	return nd.msg
}

// Ref is one channel of a hub: a small comparable handle, valid as long as
// the hub is.
type Ref struct {
	h *Hub
	i int32
}

// Index returns the channel's table index.
func (r Ref) Index() int32 { return r.i }

// Ends returns the channel's endpoints as the hub names them.
func (r Ref) Ends() Ends {
	if r.h.ends == nil {
		return Ends{}
	}
	return r.h.ends(r.i)
}

// Len returns the number of messages currently in transit.
func (r Ref) Len() int { return int(r.h.chans[r.i].count) }

// Push enqueues m at the tail.
func (r Ref) Push(m message.Message) {
	h := r.h
	c := &h.chans[r.i]
	if h.free == noNode {
		h.growStore()
	}
	h.enqueue(c, m)
	h.Counts.apply(m, +1)
	if c.count == 1 && h.onEmptiness != nil {
		h.onEmptiness(r.i, true)
	}
}

// Seed enqueues m as part of an initial configuration — channel garbage, or
// the tokens the non-self-stabilizing variants start with. The model
// distinguishes it from a send; the mechanics are Push's.
func (r Ref) Seed(m message.Message) { r.Push(m) }

// Pop dequeues the head message. It panics on an empty channel; callers must
// check Len first (the simulator only schedules non-empty channels).
func (r Ref) Pop() message.Message {
	h := r.h
	c := &h.chans[r.i]
	if c.count == 0 {
		r.emptyPanic("pop")
	}
	m := h.dequeue(c)
	h.Counts.apply(m, -1)
	if c.count == 0 && h.onEmptiness != nil {
		h.onEmptiness(r.i, false)
	}
	return m
}

// Peek returns the head message without consuming it.
func (r Ref) Peek() message.Message {
	h := r.h
	c := &h.chans[r.i]
	if c.count == 0 {
		r.emptyPanic("peek")
	}
	return h.nodes[h.nodes[c.tail].next].msg
}

func (r Ref) emptyPanic(op string) {
	e := r.Ends()
	panic(fmt.Sprintf("channel %d->%d: %s on empty channel", e.From, e.To, op))
}

// each calls f with every in-transit message, head first.
func (r Ref) each(f func(m message.Message)) {
	h := r.h
	c := h.chans[r.i]
	if c.count == 0 {
		return
	}
	for n, k := h.nodes[c.tail].next, c.count; k > 0; k-- {
		f(h.nodes[n].msg)
		n = h.nodes[n].next
	}
}

// Snapshot returns a copy of the in-transit messages, head first.
func (r Ref) Snapshot() []message.Message {
	out := make([]message.Message, 0, r.Len())
	r.each(func(m message.Message) { out = append(out, m) })
	return out
}

// Replace overwrites the in-transit contents with msgs (head first). Used by
// fault injectors to corrupt, drop or duplicate in-flight messages; the
// hub's emptiness hook and Counts stay in sync even for such out-of-band
// mutations (the discarded contents count as −1 each, the new ones as +1).
func (r Ref) Replace(msgs []message.Message) {
	h := r.h
	c := &h.chans[r.i]
	wasEmpty := c.count == 0
	r.each(func(m message.Message) { h.Counts.apply(m, -1) })
	if !wasEmpty { // splice the whole list, head first, onto the free list
		t := &h.nodes[c.tail]
		t.next, h.free = h.free, t.next
		c.count = 0
	}
	for _, m := range msgs {
		if h.free == noNode {
			h.growStore()
		}
		h.enqueue(c, m)
		h.Counts.apply(m, +1)
	}
	if isEmpty := c.count == 0; isEmpty != wasEmpty && h.onEmptiness != nil {
		h.onEmptiness(r.i, !isEmpty)
	}
}

// Count returns the number of in-transit messages of the given kind.
func (r Ref) Count(k message.Kind) int {
	n := 0
	r.each(func(m message.Message) {
		if m.Kind == k {
			n++
		}
	})
	return n
}

// String identifies the channel endpoints.
func (r Ref) String() string {
	e := r.Ends()
	return fmt.Sprintf("ch(%d:%d -> %d:%d, %d in transit)", e.From, e.FromCh, e.To, e.ToCh, r.Len())
}
