package channel

import "kofl/internal/message"

const (
	// arenaMinClass/arenaMaxClass bound the pooled buffer sizes: buffers of
	// 1<<2 .. 1<<16 frames are carved from slabs and recycled through
	// freelists; anything larger goes straight to the allocator and is never
	// retained (a channel that deep is a pathological burst, not a steady
	// state worth caching).
	arenaMinClass = 2
	arenaMaxClass = 16
	// arenaSlabFrames is the carving granularity: slabs of 2¹⁵ frames
	// (~768 KiB) amortize allocator pressure across thousands of rings.
	arenaSlabFrames = 1 << 15
	// arenaRingHeaders is how many ring headers are carved from one
	// allocation (8 KiB): a channel draws at most one in its lifetime.
	arenaRingHeaders = 256
)

// arena is the frame-buffer pool of a Hub, shared by all channels of one
// simulation. It hands out power-of-two rings carved from large slabs and
// recycles released rings through per-size-class freelists, so a long run
// reaches a fixed point where every grow/reclaim cycle is served from the
// freelists and the steady state performs no heap allocation at all. The zero
// value is an empty arena.
type arena struct {
	free [arenaMaxClass + 1][][]message.Message
	slab []message.Message // tail of the current slab, carved front to back

	rings []ring // tail of the current slab of ring headers, carved likewise
}

// newRing returns a fresh ring header. Headers are never returned: a channel
// keeps the one it drew.
func (a *arena) newRing() *ring {
	if len(a.rings) == 0 {
		a.rings = make([]ring, arenaRingHeaders)
	}
	r := &a.rings[0]
	a.rings = a.rings[1:]
	return r
}

// class returns the size class of a power-of-two frame count.
func arenaClass(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// alloc returns a ring of exactly n frames (n a power of two ≥ minBufCap).
func (a *arena) alloc(n int) []message.Message {
	cl := arenaClass(n)
	if cl > arenaMaxClass {
		return make([]message.Message, n)
	}
	if fl := a.free[cl]; len(fl) > 0 {
		buf := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		a.free[cl] = fl[:len(fl)-1]
		return buf
	}
	if n > len(a.slab) {
		if n >= arenaSlabFrames {
			return make([]message.Message, n)
		}
		a.slab = make([]message.Message, arenaSlabFrames)
	}
	buf := a.slab[:n:n]
	a.slab = a.slab[n:]
	return buf
}

// release returns a ring obtained from alloc to its freelist. Buffers above
// the pooled classes are dropped for the GC to collect.
func (a *arena) release(buf []message.Message) {
	cl := arenaClass(cap(buf))
	if cl > arenaMaxClass || 1<<cl != cap(buf) {
		return
	}
	a.free[cl] = append(a.free[cl], buf[:cap(buf)])
}
