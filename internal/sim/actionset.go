package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"kofl/internal/channel"
	"kofl/internal/tree"
)

// ActionSet is the persistent set of currently enabled actions, maintained
// incrementally by the kernel: channels report emptiness transitions, and the
// kernel adds or removes the timeout and application ordinals when — and only
// when — their enablement changes, so a step costs O(changes), not O(E+n).
//
// Every possible action of a topology has a fixed ordinal:
//
//	[0, e)        deliveries, lexicographic by (receiver, channel)
//	e             the root timeout
//	[e+1, e+1+n)  application actions by process id
//
// where e = 2(n-1) is the number of directed channels. Ordinal order IS the
// order the historical full-scan kernel enumerated enabled actions in, and
// all ordered accessors (At, AppendAll) follow it — the determinism contract
// that makes every seeded experiment reproduce byte-identically across the
// scan and incremental kernels. Ordinals are ids' order; the tables a step
// touches are in slot order (see the package comment), so each member also
// carries where its action lives — the channel's table index for a delivery,
// the process's slot otherwise — and a draw reaches the channel header and
// the process line without a lookup. The set keeps no copy of what those
// lines hold: a delivery's receiver id and label are read off the receiver's
// process line (its id and first table index), and a
// channel's ordinal is one per-slot offset plus its table index.
//
// The set has two forms, selected by its size. The protocol's legitimate
// configuration holds ℓ resource tokens, one pusher, one priority token and
// one controller, so once a run has converged the set holds a handful of
// members whatever n is. While size ≤ smallCap the set IS the sorted array
// small[:size]: At(i) decodes small[i], add and remove are one pass over
// a few cache lines, and no bitmap is read or written (they are all zero).
// The insertion that would exceed smallCap spills the array into the dense
// form — an ordinal bitmap under a two-level population-count hierarchy
// (counts per 512 and 32768 ordinals), which bounds At by the hierarchy
// height when the set is large: the first ~n steps after New while every
// application drains its first request, arbitrary-start garbage, fault
// storms on big trees. The dense form is that bitmap and its counts and
// nothing else: it holds ordinals only, so it finds where a member lives
// when it decodes it (locate). A removal that brings a dense set down to smallCap/2 extracts it back into
// the array; the gap between the two thresholds keeps a set hovering at the
// cap from thrashing.
type ActionSet struct {
	n    int        // processes
	e    int        // deliver ordinals (directed channels)
	m    int        // total ordinals: e + 1 + n
	tree *tree.Tree // deliver ordinal of (p, ch): tree.ChannelOffset(p) + ch

	// The second numbering: slotOf[p] is process p's slot, its position in
	// DFS preorder (ring order). procs are the simulator's process lines by
	// slot: the line at slot s names its process (id) and the table index of
	// the first channel into it (ob).
	slotOf []int32
	procs  []proc

	// chans is the hub's channel table, CSR by receiver slot:
	// chans[procs[s].ob+ch] is the channel INTO the process at slot s
	// with label ch. Its header names the receiver's slot (ToSlot), whose
	// line a delivery touches anyway and which gives the receiver's id and
	// label, and its Rev is the table index of the channel OUT of (receiver,
	// label). odelta[s] is the deliver ordinal of a channel into slot s minus
	// its table index, one offset for all of the slot's channels.
	chans  []channel.Channel
	odelta []int32

	size   int             // enabled ordinals, in either form
	dense  bool            // the bitmaps hold the set, small is unused
	small  [smallCap]entry // !dense: the enabled actions, ascending, in small[:size]
	spills int64           // small → dense transitions so far

	// The dense form; all zero while !dense.
	words []uint64 // membership bitmap over ordinals
	cnt1  []int16  // enabled ordinals per 8 words (512 ordinals)
	cnt2  []int32  // enabled ordinals per 64 cnt1 groups (32768 ordinals)
}

// smallCap is the largest set kept as a sorted array; see ActionSet.
const smallCap = 32

// entry is one member of the small form: the ordinal in the high half, so
// entries sort as their ordinals do, and where the action lives in the low
// half — the channel's table index for a delivery, the process's slot for
// an application action, the root's slot (0) for the timeout.
type entry int64

func pack(ord int, at int32) entry { return entry(ord)<<32 | entry(uint32(at)) }

func (v entry) ord() int  { return int(v >> 32) }
func (v entry) at() int32 { return int32(v) }

// newActionSet sizes an empty set for topology t, numbers its processes in
// ring order and lays out hub's channel table (t.RingLen() channels). It
// gives each of the process lines procs (one per process, by slot) its id
// and first table index, and then hands process p and its slot to bind, in
// slot order, so the caller fills the lines front to back.
func newActionSet(t *tree.Tree, hub *channel.Hub, procs []proc, bind func(p int, slot int32) error) (*ActionSet, error) {
	n := t.N()
	as := &ActionSet{
		n:      n,
		e:      t.RingLen(),
		tree:   t,
		slotOf: make([]int32, n),
		procs:  procs,
		chans:  hub.Table(),
		odelta: make([]int32, n),
	}
	as.m = as.e + 1 + n
	// Slots: DFS preorder with children in label order — the order in which
	// a token lap first reaches each process. The walk needs no stack: back
	// from child c, the parent's next child follows c in its ascending list.
	// Each process's channels take the next stretch of the table as the walk
	// reaches it, and each tree edge is laid out, both directions, when the
	// walk first crosses it.
	if err := as.place(0, 0, 0, bind); err != nil { // the root: slot 0, table indices from 0
		return nil, err
	}
	off := int32(t.Degree(0))
	for p, next, s := 0, 0, int32(1); ; {
		if kids := t.Children(p); next < len(kids) {
			c := kids[next]
			if err := as.place(c, s, off, bind); err != nil {
				return nil, err
			}
			off += int32(t.Degree(c))
			s++
			pch := next // c's label at p: children follow the parent's label 0
			if p != 0 {
				pch++
			}
			as.link(p, pch, c, 0)
			p, next = c, 0
			continue
		}
		if p == 0 {
			break
		}
		q := t.Parent(p)
		next = sort.SearchInts(t.Children(q), p) + 1
		p = q
	}
	as.words = make([]uint64, (as.m+63)/64)
	as.cnt1 = make([]int16, (len(as.words)+7)/8)
	as.cnt2 = make([]int32, (len(as.cnt1)+63)/64)
	return as, nil
}

// place gives process p slot s, whose channels start at table index ob, and
// hands both to bind.
func (as *ActionSet) place(p int, s, ob int32, bind func(p int, slot int32) error) error {
	as.slotOf[p] = s
	as.procs[s].id, as.procs[s].ob = int32(p), ob
	as.odelta[s] = int32(as.ordDeliver(p, 0)) - ob
	return bind(p, s)
}

// link lays out both directions of the tree edge between p, where it has
// label pch, and q, where it has label qch; both processes have slots.
func (as *ActionSet) link(p, pch, q, qch int) {
	sp, sq := as.slotOf[p], as.slotOf[q]
	intoP, intoQ := as.procs[sp].ob+int32(pch), as.procs[sq].ob+int32(qch)
	as.chans[intoP].ToSlot, as.chans[intoP].Rev = sp, intoQ
	as.chans[intoQ].ToSlot, as.chans[intoQ].Rev = sq, intoP
}

// ordAt returns the deliver ordinal of the channel at table index i.
func (as *ActionSet) ordAt(i int32) int { return int(as.odelta[as.chans[i].ToSlot] + i) }

// ends names the endpoints of the channel at table index i: its receiver's,
// and those of its reverse, which leaves the sender.
func (as *ActionSet) ends(i int32) channel.Ends {
	to, from := as.deliver(i), as.deliver(as.chans[i].Rev)
	return channel.Ends{From: from.Proc, FromCh: from.Ch, To: to.Proc, ToCh: to.Ch}
}

// deliver decodes the delivery that pops the channel at table index at: the
// receiver's process line names the process and its first table index.
func (as *ActionSet) deliver(at int32) Action {
	pr := &as.procs[as.chans[at].ToSlot]
	return Action{Kind: ActDeliver, Proc: int(pr.id), Ch: int(at - pr.ob)}
}

// ordDeliver returns the ordinal of delivering into (p, ch).
func (as *ActionSet) ordDeliver(p, ch int) int { return as.tree.ChannelOffset(p) + ch }

// ordTimeout returns the ordinal of the root timeout.
func (as *ActionSet) ordTimeout() int { return as.e }

// ordApp returns the ordinal of process p's application action.
func (as *ActionSet) ordApp(p int) int { return as.e + 1 + p }

// where returns where a (valid) action lives: the table index of the channel
// a delivery pops, the slot of the process otherwise (the root's, 0, for the
// timeout).
func (as *ActionSet) where(a Action) int32 {
	switch a.Kind {
	case ActDeliver:
		return as.procs[as.slotOf[a.Proc]].ob + int32(a.Ch)
	case ActTimeout:
		return 0
	default:
		return as.slotOf[a.Proc]
	}
}

// locate returns where the action with ordinal ord lives: what a small-form
// entry carries, recomputed for the dense form, which stores ordinals only.
func (as *ActionSet) locate(ord int) int32 {
	if ord < as.e {
		p := as.tree.ChannelOwner(ord)
		return as.where(Action{Kind: ActDeliver, Proc: p, Ch: ord - as.tree.ChannelOffset(p)})
	}
	return as.where(as.action(pack(ord, 0)))
}

// action decodes an entry; a delivery's process and label follow from the
// header of the channel it pops.
func (as *ActionSet) action(v entry) Action {
	switch ord := v.ord(); {
	case ord < as.e:
		return as.deliver(v.at())
	case ord == as.e:
		return Action{Kind: ActTimeout, Proc: 0}
	default:
		return Action{Kind: ActApp, Proc: ord - as.e - 1}
	}
}

// actionOf decodes an ordinal.
func (as *ActionSet) actionOf(ord int) Action { return as.action(pack(ord, as.locate(ord))) }

// ordinal encodes a (valid) action; it returns -1 for out-of-range ones.
func (as *ActionSet) ordinal(a Action) int {
	switch a.Kind {
	case ActDeliver:
		if a.Proc < 0 || a.Proc >= as.n || a.Ch < 0 || a.Ch >= as.tree.Degree(a.Proc) {
			return -1
		}
		return as.ordDeliver(a.Proc, a.Ch)
	case ActTimeout:
		if a.Proc != 0 {
			return -1
		}
		return as.e
	case ActApp:
		if a.Proc < 0 || a.Proc >= as.n {
			return -1
		}
		return as.ordApp(a.Proc)
	}
	return -1
}

// has reports whether ordinal ord is enabled.
func (as *ActionSet) has(ord int) bool {
	if as.dense {
		return as.denseHas(ord)
	}
	for _, v := range as.small[:as.size] {
		if v.ord() == ord {
			return true
		}
	}
	return false
}

// add inserts ordinal ord, which lives at at (idempotent). The small form
// does it in one pass with no data-dependent branch — at these sizes one
// mispredicted loop exit costs more than the whole pass: every member above
// ord moves up one place, every other is rewritten where it is, and the new
// entry lands in the gap. The comparisons are sign bits of differences,
// which cannot overflow because entries are non-negative int64s; an ordinal
// always lives at the same place, so entries compare as their ordinals do.
func (as *ActionSet) add(ord int, at int32) {
	if as.dense {
		as.denseAdd(ord)
		return
	}
	n := as.size
	if n == smallCap {
		if !as.has(ord) {
			as.spill()
			as.denseAdd(ord)
		}
		return
	}
	s, o := as.small[:n+1], pack(ord, at)
	above, absent := 0, 1
	for j := n; j > 0; j-- {
		v := s[j-1]
		up := int(uint64(o-v) >> 63) // 1 iff v > o
		s[j-1+up] = v
		above += up
		absent &= ne(v, o)
	}
	if absent == 0 { // already a member: close the gap again
		copy(s[n-above:n], s[n-above+1:])
		return
	}
	s[n-above] = o
	as.size = n + 1
}

// ne returns 1 if a != b and 0 otherwise, without a branch.
func ne(a, b entry) int { return int((uint64(a-b) | uint64(b-a)) >> 63) }

// remove deletes ordinal ord, which lives at at (idempotent). The small form
// compacts the array over it in one pass, again without a data-dependent
// branch.
func (as *ActionSet) remove(ord int, at int32) {
	if as.dense {
		as.denseRemove(ord)
		if as.size == smallCap/2 {
			as.unspill()
		}
		return
	}
	s, o := as.small[:as.size], pack(ord, at)
	k := 0
	for _, v := range s {
		s[k] = v
		k += ne(v, o)
	}
	as.size = k
}

// spill moves a full small array into the bitmaps.
func (as *ActionSet) spill() {
	as.size = 0
	for _, v := range as.small {
		as.denseAdd(v.ord())
	}
	as.dense = true
	as.spills++
}

// unspill extracts a dense set back into the small array, lowest ordinal
// first, clearing each bit it takes: the bitmaps are left all zero.
func (as *ActionSet) unspill() {
	n := as.size
	for i := 0; i < n; i++ {
		ord := as.denseSelect(0)
		as.denseRemove(ord)
		as.small[i] = pack(ord, as.locate(ord))
	}
	as.size = n
	as.dense = false
}

func (as *ActionSet) denseHas(ord int) bool {
	return as.words[ord>>6]&(1<<(uint(ord)&63)) != 0
}

// denseAdd sets ordinal ord.
func (as *ActionSet) denseAdd(ord int) {
	if as.denseHas(ord) {
		return
	}
	as.words[ord>>6] |= 1 << (uint(ord) & 63)
	as.size++
	as.cnt1[ord>>9]++
	as.cnt2[ord>>15]++
}

// denseRemove clears ordinal ord.
func (as *ActionSet) denseRemove(ord int) {
	if !as.denseHas(ord) {
		return
	}
	as.words[ord>>6] &^= 1 << (uint(ord) & 63)
	as.size--
	as.cnt1[ord>>9]--
	as.cnt2[ord>>15]--
}

// set forces membership of ord, which lives at at, to enabled.
func (as *ActionSet) set(ord int, at int32, enabled bool) {
	if enabled {
		as.add(ord, at)
	} else {
		as.remove(ord, at)
	}
}

// clear empties the set. A dense set pays a bulk zeroing of the bitmaps and
// counters — only full rebuilds (ResyncActions, the FullRescan oracle) clear,
// and they scan every channel and application anyway.
func (as *ActionSet) clear() {
	as.size = 0
	if !as.dense {
		return
	}
	as.dense = false
	clear(as.words)
	clear(as.cnt1)
	clear(as.cnt2)
}

// Len returns the number of enabled actions.
func (as *ActionSet) Len() int { return as.size }

// Contains reports whether a is currently enabled.
func (as *ActionSet) Contains(a Action) bool {
	ord := as.ordinal(a)
	return ord >= 0 && as.has(ord)
}

// At returns the i-th enabled action in canonical (old-scan) order: all
// deliveries lexicographic by (process, channel), then the timeout, then
// application actions by process. It panics when i is out of range — exactly
// as the historical kernel panicked on an out-of-range scheduler pick.
func (as *ActionSet) At(i int) Action { return as.action(as.entryAt(i)) }

// entryAt is At for the kernel: the i-th member with where it lives.
func (as *ActionSet) entryAt(i int) entry {
	if i < 0 || i >= as.size {
		panic(fmt.Sprintf("sim: scheduler picked %d of %d actions", i, as.size))
	}
	if as.dense {
		ord := as.denseSelect(i)
		return pack(ord, as.locate(ord))
	}
	return as.small[i]
}

// denseSelect returns the rank-th enabled ordinal (rank < size) of the dense
// form: it descends the count hierarchy — supergroup, group — then
// popcount-scans at most 8 words and bit-selects within the final
// word, so the cost is bounded by the hierarchy height, not the bitmap
// length.
func (as *ActionSet) denseSelect(rank int) int {
	g2 := 0
	for int(as.cnt2[g2]) <= rank {
		rank -= int(as.cnt2[g2])
		g2++
	}
	g1 := g2 << 6
	for int(as.cnt1[g1]) <= rank {
		rank -= int(as.cnt1[g1])
		g1++
	}
	w := g1 << 3
	for {
		if w >= len(as.words) {
			panic("sim: ActionSet bitmap out of sync with its size")
		}
		word := as.words[w]
		c := bits.OnesCount64(word)
		if rank < c {
			return w<<6 + select64(word, rank)
		}
		rank -= c
		w++
	}
}

// select64 returns the position of the rank-th set bit of w (rank <
// OnesCount64(w)): halving popcounts narrow to a byte, whose lower set bits
// are then cleared one by one — at most seven times.
func select64(w uint64, rank int) int {
	pos := 0
	if c := bits.OnesCount32(uint32(w)); rank >= c {
		rank -= c
		w >>= 32
		pos = 32
	}
	if c := bits.OnesCount16(uint16(w)); rank >= c {
		rank -= c
		w >>= 16
		pos += 16
	}
	if c := bits.OnesCount8(uint8(w)); rank >= c {
		rank -= c
		w >>= 8
		pos += 8
	}
	for ; rank > 0; rank-- {
		w &= w - 1
	}
	return pos + bits.TrailingZeros64(w)
}

// AppendAll appends every enabled action to dst in canonical order. In the
// dense form, groups with no enabled ordinal are skipped via the count
// hierarchy, so the cost is O(enabled + nonempty groups) rather than a full
// bitmap scan.
func (as *ActionSet) AppendAll(dst []Action) []Action {
	if !as.dense {
		for _, v := range as.small[:as.size] {
			dst = append(dst, as.action(v))
		}
		return dst
	}
	for g, c := range as.cnt1 {
		if c == 0 {
			continue
		}
		w1 := min((g+1)<<3, len(as.words))
		for w := g << 3; w < w1; w++ {
			word := as.words[w]
			for ; word != 0; word &= word - 1 {
				dst = append(dst, as.actionOf(w<<6+bits.TrailingZeros64(word)))
			}
		}
	}
	return dst
}
