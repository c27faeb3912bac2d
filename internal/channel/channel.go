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
// A channel is a one-cache-line header that holds its head message inline;
// what queues behind the head lives in a power-of-two ring buffer (head index
// plus count, wrap by masking). A channel in steady state carries at most one
// frame, so it never owns a ring and a push or pop touches the header alone.
// The ring appears when a second message queues up, grows by doubling when
// full, and is explicitly reclaimed: when it drains and has grown beyond
// reclaimCap, the buffer is released — back to the Hub's arena when the
// channel is attached to one, to the garbage collector otherwise. A channel
// therefore never pins more than reclaimCap frames across a quiet spell, and
// a simulator-owned channel recycles every buffer it ever grew, so the hot
// path neither allocates nor copies.
//
// What all channels of one simulation have in common — the population
// counter, the arena, the emptiness hook — lives once in their Hub, not by
// copy in every header.
package channel

import (
	"fmt"

	"kofl/internal/message"
)

// Counts aggregates the in-transit message populations of every channel that
// shares a Hub, by kind, plus the reset-flagged controller count. Kinds
// outside the protocol's four (initial channel garbage) are not counted,
// exactly as the census snapshot scan ignores them.
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

// Hub is what the channels of one simulation share, held once instead of by
// copy in every header: the population counter every mutator maintains
// inline, the arena ring storage is drawn from and released to, and the
// emptiness hook. A Hub is not safe for concurrent use (it matches the
// simulator's single-threaded execution model).
type Hub struct {
	// Counts is the in-transit population of the attached channels. Every
	// mutator (Push, Seed, Pop, Replace) applies its content delta here, so
	// reading a census of the channels is O(1). The owner may overwrite it
	// to resynchronize after out-of-band changes.
	Counts Counts

	arena       arena
	onEmptiness func(c *Channel, nonempty bool)
}

// NewHub returns a hub whose channels report every emptiness transition to
// onEmptiness (nil: none): with true when a channel goes 0 → nonzero
// messages, with false when it drains back to zero. The hook receives the
// channel itself, whose header — just written, so on a hot line — carries
// the tag it was attached under and the owner's table indices. Every mutator
// reports through this single hook, which is what lets the simulator
// maintain its enabled-action set incrementally instead of re-scanning every
// channel every step.
func NewHub(onEmptiness func(c *Channel, nonempty bool)) *Hub {
	return &Hub{onEmptiness: onEmptiness}
}

const (
	// minBufCap is the smallest ring ever allocated.
	minBufCap = 4
	// reclaimCap is the largest ring a drained channel keeps. Anything
	// bigger was burst growth and is released the moment the channel empties.
	reclaimCap = 64
)

// ring holds what queues behind a channel's head message: count−1 messages
// of a channel holding count.
type ring struct {
	buf  []message.Message // power of two; nil until needed and after reclaim
	head uint32            // index of the first message (always < len(buf))
}

// at returns the i-th message of the ring.
func (r *ring) at(i uint32) message.Message {
	return r.buf[(r.head+i)&uint32(len(r.buf)-1)]
}

// copyInto copies the ring's n messages, first to last, into dst.
func (r *ring) copyInto(dst []message.Message, n int) {
	if n == 0 {
		return
	}
	k := copy(dst[:n], r.buf[r.head:])
	copy(dst[k:n], r.buf)
}

// Channel is one directed FIFO channel. The header is one cache line (the
// layout test pins ≤ 64 bytes) with the head message inline: a simulator
// keeps all its channels in one dense slice, and a delivery touches the
// header of the channel it pops and of the channel it pushes to — nothing
// else per channel unless messages queue up.
type Channel struct {
	hub   *Hub            // shared counts, arena and hook; nil when standalone
	tail  *ring           // messages behind the head; nil until two queue up
	first message.Message // the head message (meaningful while count > 0)

	// From/To identify the directed edge; FromCh/ToCh are the channel labels
	// at the sender resp. receiver. Rev and ToSlot are for an owner that
	// keeps its channels and processes in tables: Rev is the index there of
	// the opposite direction, ToSlot the receiver's position.
	From, FromCh, To, ToCh, Rev, ToSlot int32

	count uint32 // messages in transit, the head included
	tag   int32  // what the hub's emptiness hook is told about this channel
}

// Attach joins c to h: from now on c maintains h.Counts, draws its rings from
// h's arena and reports emptiness transitions to h's hook, which reads tag
// back through Tag. Attach an empty channel (contents already in transit are
// not counted). A nil h records the tag alone.
func (c *Channel) Attach(h *Hub, tag int32) { c.hub, c.tag = h, tag }

// Tag returns the value c was attached under.
func (c *Channel) Tag() int32 { return c.tag }

// New returns an empty standalone channel for the directed edge from → to:
// no hub, so no counts, no hook, and rings from the regular allocator.
func New(from, fromCh, to, toCh int) *Channel {
	return &Channel{From: int32(from), FromCh: int32(fromCh), To: int32(to), ToCh: int32(toCh)}
}

// Len returns the number of messages currently in transit.
func (c *Channel) Len() int { return int(c.count) }

// Cap returns the capacity of the ring behind the inline head slot (0 until
// two messages queue up). It is always a power of two; it grows by doubling
// and is reclaimed down to at most reclaimCap when the ring drains.
func (c *Channel) Cap() int {
	if c.tail == nil {
		return 0
	}
	return len(c.tail.buf)
}

// at returns the i-th in-transit message (i < count), head first.
func (c *Channel) at(i uint32) message.Message {
	if i == 0 {
		return c.first
	}
	return c.tail.at(i - 1)
}

// releaseBuf hands the ring's buffer back to the arena (or the GC).
func (c *Channel) releaseBuf() {
	if c.hub != nil && c.tail.buf != nil {
		c.hub.arena.release(c.tail.buf)
	}
	c.tail.buf = nil
}

// grow re-linearizes the ring's queued messages into a fresh buffer of
// capacity ≥ queued+1, from the hub's arena when attached.
func (c *Channel) grow(queued int) {
	newCap := minBufCap
	for newCap <= queued {
		newCap <<= 1
	}
	var nb []message.Message
	if c.hub != nil {
		nb = c.hub.arena.alloc(newCap)
	} else {
		nb = make([]message.Message, newCap)
	}
	c.tail.copyInto(nb, queued)
	c.releaseBuf()
	c.tail.buf = nb
	c.tail.head = 0
}

// enqueue appends m: into the head slot of an empty channel, else at the end
// of the ring, created and grown as needed.
func (c *Channel) enqueue(m message.Message) {
	if c.count == 0 {
		c.first, c.count = m, 1
		return
	}
	queued := c.count - 1 // already in the ring
	c.count++
	r := c.tail
	if r == nil {
		if c.hub != nil {
			r = c.hub.arena.newRing()
		} else {
			r = new(ring)
		}
		c.tail = r
	}
	if int(queued) == len(r.buf) {
		c.grow(int(queued))
	}
	r.buf[(r.head+queued)&uint32(len(r.buf)-1)] = m
}

// reclaim releases a burst-grown buffer once nothing queues behind the head.
// Only mutations that touched the ring call it, so a channel back in steady
// state stays on its header line.
func (c *Channel) reclaim() {
	if r := c.tail; r != nil && c.count <= 1 && len(r.buf) > reclaimCap {
		c.releaseBuf()
	}
}

// notify reports an emptiness transition to the hub's hook. wasEmpty is the
// emptiness before the mutation.
func (c *Channel) notify(wasEmpty bool) {
	if isEmpty := c.count == 0; isEmpty != wasEmpty && c.hub != nil && c.hub.onEmptiness != nil {
		c.hub.onEmptiness(c, !isEmpty)
	}
}

// Push enqueues m at the tail.
func (c *Channel) Push(m message.Message) {
	c.enqueue(m)
	if c.hub != nil {
		c.hub.Counts.apply(m, +1)
	}
	c.notify(c.count == 1)
}

// Seed enqueues m as part of an initial configuration — channel garbage, or
// the tokens the non-self-stabilizing variants start with. The model
// distinguishes it from a send; the mechanics are Push's.
func (c *Channel) Seed(m message.Message) { c.Push(m) }

// Pop dequeues the head message. It panics on an empty channel; callers must
// check Len first (the simulator only schedules non-empty channels).
func (c *Channel) Pop() message.Message {
	if c.count == 0 {
		panic(fmt.Sprintf("channel %d->%d: pop on empty channel", c.From, c.To))
	}
	m := c.first
	c.count--
	if c.count > 0 {
		r := c.tail
		c.first = r.buf[r.head]
		r.head = (r.head + 1) & uint32(len(r.buf)-1)
		c.reclaim()
	}
	if c.hub != nil {
		c.hub.Counts.apply(m, -1)
	}
	c.notify(false)
	return m
}

// Peek returns the head message without consuming it.
func (c *Channel) Peek() message.Message {
	if c.count == 0 {
		panic(fmt.Sprintf("channel %d->%d: peek on empty channel", c.From, c.To))
	}
	return c.first
}

// Snapshot returns a copy of the in-transit messages, head first.
func (c *Channel) Snapshot() []message.Message {
	out := make([]message.Message, c.count)
	if c.count > 0 {
		out[0] = c.first
	}
	if c.count > 1 {
		c.tail.copyInto(out[1:], int(c.count)-1)
	}
	return out
}

// Replace overwrites the in-transit contents with msgs (head first). Used by
// fault injectors to corrupt, drop or duplicate in-flight messages; the
// hub's emptiness hook and Counts stay in sync even for such out-of-band
// mutations (the discarded contents count as −1 each, the new ones as +1).
func (c *Channel) Replace(msgs []message.Message) {
	wasEmpty := c.count == 0
	if c.hub != nil {
		for i := uint32(0); i < c.count; i++ {
			c.hub.Counts.apply(c.at(i), -1)
		}
		for _, m := range msgs {
			c.hub.Counts.apply(m, +1)
		}
	}
	c.count = 0
	for _, m := range msgs {
		c.enqueue(m)
	}
	c.reclaim()
	c.notify(wasEmpty)
}

// Count returns the number of in-transit messages of the given kind.
func (c *Channel) Count(k message.Kind) int {
	n := 0
	for i := uint32(0); i < c.count; i++ {
		if c.at(i).Kind == k {
			n++
		}
	}
	return n
}

// String identifies the channel endpoints.
func (c *Channel) String() string {
	return fmt.Sprintf("ch(%d:%d -> %d:%d, %d in transit)", c.From, c.FromCh, c.To, c.ToCh, c.Len())
}
