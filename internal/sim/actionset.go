package sim

import (
	"fmt"
	"math/bits"

	"kofl/internal/channel"
	"kofl/internal/tree"
)

// ActionSet is the persistent set of currently enabled actions, maintained
// incrementally by the kernel: channels report emptiness transitions, the
// timeout bit is synced from the clock, and applications register wake times
// instead of being polled — so a step costs O(changes), not O(E+n).
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
// scan and incremental kernels.
//
// Internally the set is an ordinal bitmap — membership is the bit, the size
// a counter — paired with a per-process bitmap. Order-statistic selection
// (At) descends a three-level population-count hierarchy over the ordinal
// bitmap — counts per 512, 32768 and 2097152 ordinals — so selecting the
// i-th enabled action costs O(levels + 64) words examined instead of a
// linear popcount scan over the whole bitmap: at n = 2²⁰ that is a few
// hundred loads, not fifty thousand. Next-enabled-process queries descend a
// matching two-level summary bitmap over procWords.
type ActionSet struct {
	n    int     // processes
	e    int     // deliver ordinals (directed channels)
	m    int     // total ordinals: e + 1 + n
	base []int32 // base[p]: first deliver ordinal of process p; base[n] = e

	// chans[ord] is the channel whose delivery is deliver ordinal ord — the
	// channel INTO (receiver, label) in lexicographic order. Its header's
	// To/ToCh decode the ordinal, on the line a delivery touches anyway, and
	// its Rev is the ordinal of the channel OUT of (receiver, label).
	chans []channel.Channel

	size  int      // enabled ordinals
	words []uint64 // membership bitmap over ordinals
	cnt1  []int16  // enabled ordinals per 8 words (512 ordinals)
	cnt2  []int32  // enabled ordinals per 64 cnt1 groups (32768 ordinals)
	cnt3  []int32  // enabled ordinals per 64 cnt2 groups (2097152 ordinals)

	perProc   []int32  // enabled actions per process (timeout counts for the root)
	procWords []uint64 // bitmap of processes with perProc > 0
	procSum   []uint64 // bitmap of nonzero procWords words
	procSum2  []uint64 // bitmap of nonzero procSum words
}

// newActionSet sizes an empty set for topology t and lays out its channel
// table (endpoints only; the simulator attaches the hub).
func newActionSet(t *tree.Tree) *ActionSet {
	n := t.N()
	as := &ActionSet{
		n:    n,
		base: make([]int32, n+1),
	}
	off := int32(0)
	for p := 0; p < n; p++ {
		as.base[p] = off
		off += int32(t.Degree(p))
	}
	as.base[n] = off
	as.e = int(off)
	as.m = as.e + 1 + n
	as.chans = make([]channel.Channel, as.e)
	for p := 0; p < n; p++ {
		for ch := 0; ch < t.Degree(p); ch++ {
			q := t.Neighbor(p, ch)
			c := &as.chans[as.ordDeliver(p, ch)]
			qch := t.ChannelTo(q, p)
			c.From, c.FromCh, c.To, c.ToCh = int32(q), int32(qch), int32(p), int32(ch)
			c.Rev = int32(as.ordDeliver(q, qch))
		}
	}
	as.words = make([]uint64, (as.m+63)/64)
	as.cnt1 = make([]int16, (len(as.words)+7)/8)
	as.cnt2 = make([]int32, (len(as.cnt1)+63)/64)
	as.cnt3 = make([]int32, (len(as.cnt2)+63)/64)
	as.perProc = make([]int32, n)
	as.procWords = make([]uint64, (n+63)/64)
	as.procSum = make([]uint64, (len(as.procWords)+63)/64)
	as.procSum2 = make([]uint64, (len(as.procSum)+63)/64)
	return as
}

// ordDeliver returns the ordinal of delivering into (p, ch).
func (as *ActionSet) ordDeliver(p, ch int) int { return int(as.base[p]) + ch }

// ordTimeout returns the ordinal of the root timeout.
func (as *ActionSet) ordTimeout() int { return as.e }

// ordApp returns the ordinal of process p's application action.
func (as *ActionSet) ordApp(p int) int { return as.e + 1 + p }

// procOf returns the process an ordinal belongs to (the root for the
// timeout).
func (as *ActionSet) procOf(ord int) int {
	if ord >= as.e {
		if ord == as.e {
			return 0 // the timeout belongs to the root
		}
		return ord - as.e - 1
	}
	return int(as.chans[ord].To)
}

// actionOf decodes an ordinal.
func (as *ActionSet) actionOf(ord int) Action {
	switch {
	case ord < as.e:
		c := &as.chans[ord]
		return Action{Kind: ActDeliver, Proc: int(c.To), Ch: int(c.ToCh)}
	case ord == as.e:
		return Action{Kind: ActTimeout, Proc: 0}
	default:
		return Action{Kind: ActApp, Proc: ord - as.e - 1}
	}
}

// ordinal encodes a (valid) action; it returns -1 for out-of-range ones.
func (as *ActionSet) ordinal(a Action) int {
	switch a.Kind {
	case ActDeliver:
		if a.Proc < 0 || a.Proc >= as.n || a.Ch < 0 {
			return -1
		}
		ord := int(as.base[a.Proc]) + a.Ch
		if ord >= int(as.base[a.Proc+1]) {
			return -1
		}
		return ord
	case ActTimeout:
		if a.Proc != 0 {
			return -1
		}
		return as.e
	case ActApp:
		if a.Proc < 0 || a.Proc >= as.n {
			return -1
		}
		return as.e + 1 + a.Proc
	}
	return -1
}

// has reports whether ordinal ord is enabled.
func (as *ActionSet) has(ord int) bool {
	return as.words[ord>>6]&(1<<(uint(ord)&63)) != 0
}

// procMark records that process p gained its first enabled action,
// propagating the 0→nonzero word transitions up the summary bitmaps.
func (as *ActionSet) procMark(p int) {
	w := p >> 6
	if as.procWords[w] == 0 {
		sw := w >> 6
		if as.procSum[sw] == 0 {
			as.procSum2[sw>>6] |= 1 << (uint(sw) & 63)
		}
		as.procSum[sw] |= 1 << (uint(w) & 63)
	}
	as.procWords[w] |= 1 << (uint(p) & 63)
}

// procUnmark records that process p lost its last enabled action.
func (as *ActionSet) procUnmark(p int) {
	w := p >> 6
	as.procWords[w] &^= 1 << (uint(p) & 63)
	if as.procWords[w] == 0 {
		sw := w >> 6
		as.procSum[sw] &^= 1 << (uint(w) & 63)
		if as.procSum[sw] == 0 {
			as.procSum2[sw>>6] &^= 1 << (uint(sw) & 63)
		}
	}
}

// add inserts ordinal ord (idempotent).
func (as *ActionSet) add(ord int) {
	if as.has(ord) {
		return
	}
	as.words[ord>>6] |= 1 << (uint(ord) & 63)
	as.size++
	as.cnt1[ord>>9]++
	as.cnt2[ord>>15]++
	as.cnt3[ord>>21]++
	p := as.procOf(ord)
	if as.perProc[p]++; as.perProc[p] == 1 {
		as.procMark(p)
	}
}

// remove deletes ordinal ord (idempotent).
func (as *ActionSet) remove(ord int) {
	if !as.has(ord) {
		return
	}
	as.words[ord>>6] &^= 1 << (uint(ord) & 63)
	as.size--
	as.cnt1[ord>>9]--
	as.cnt2[ord>>15]--
	as.cnt3[ord>>21]--
	p := as.procOf(ord)
	if as.perProc[p]--; as.perProc[p] == 0 {
		as.procUnmark(p)
	}
}

// set forces membership of ord to enabled.
func (as *ActionSet) set(ord int, enabled bool) {
	if enabled {
		as.add(ord)
	} else {
		as.remove(ord)
	}
}

// clear empties the set: a bulk zeroing of the bitmaps and counters, paid
// only by full rebuilds (ResyncActions, the FullRescan oracle), which scan
// every channel and application anyway.
func (as *ActionSet) clear() {
	as.size = 0
	clear(as.words)
	clear(as.cnt1)
	clear(as.cnt2)
	clear(as.cnt3)
	clear(as.perProc)
	clear(as.procWords)
	clear(as.procSum)
	clear(as.procSum2)
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
//
// Selection descends the count hierarchy — hypergroup, supergroup, group —
// then popcount-scans at most 8 words and bit-selects within the final
// word, so the cost is bounded by the hierarchy height, not the bitmap
// length.
func (as *ActionSet) At(i int) Action {
	if i < 0 || i >= as.size {
		panic(fmt.Sprintf("sim: scheduler picked %d of %d actions", i, as.size))
	}
	rank := i
	g3 := 0
	for int(as.cnt3[g3]) <= rank {
		rank -= int(as.cnt3[g3])
		g3++
	}
	g2 := g3 << 6
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
			return as.actionOf(w<<6 + select64(word, rank))
		}
		rank -= c
		w++
	}
}

// selectInByte[b][r] is the position of the rank-r set bit of byte b (0xff
// where r ≥ OnesCount8(b), never read). 2 KiB, resident in L1 on the hot
// path; it turns the within-byte select into a single load.
var selectInByte = func() (t [256][8]uint8) {
	for b := 0; b < 256; b++ {
		r := 0
		for pos := 0; pos < 8; pos++ {
			if b&(1<<pos) != 0 {
				t[b][r] = uint8(pos)
				r++
			}
		}
		for ; r < 8; r++ {
			t[b][r] = 0xff
		}
	}
	return
}()

// select64 returns the position of the rank-th set bit of w (rank <
// OnesCount64(w)): halving popcounts narrow to a byte, a table lookup
// finishes — constant ~10 ops with no data-dependent loop.
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
	return pos + int(selectInByte[uint8(w)][rank&7])
}

// AppendAll appends every enabled action to dst in canonical order. Groups
// with no enabled ordinal are skipped via the count hierarchy, so the cost
// is O(enabled + nonempty groups) rather than a full bitmap scan.
func (as *ActionSet) AppendAll(dst []Action) []Action {
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

// NextProc returns the first process, scanning cyclically from `from`, that
// has at least one enabled action (the root timeout counts as the root's),
// or -1 when the set is empty.
func (as *ActionSet) NextProc(from int) int {
	if as.size == 0 {
		return -1
	}
	if from >= as.n || from < 0 {
		from = 0
	}
	// [from, n) then the wrap-around [0, from).
	if p := as.scanProcs(from, as.n); p >= 0 {
		return p
	}
	return as.scanProcs(0, from)
}

// scanProcs returns the first process in [lo, hi) with an enabled action.
// Runs of all-zero procWords words are skipped through the two-level summary
// bitmap, so a sparse set at big n does not pay a linear word scan.
func (as *ActionSet) scanProcs(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	w := lo >> 6
	word := as.procWords[w] &^ ((1 << (uint(lo) & 63)) - 1)
	for {
		if word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			if p < hi {
				return p
			}
			return -1
		}
		w = as.nextProcWord(w + 1)
		if w < 0 || w<<6 >= hi {
			return -1
		}
		word = as.procWords[w]
	}
}

// nextProcWord returns the first index ≥ w with a nonzero procWords word, or
// -1, via the summary bitmaps.
func (as *ActionSet) nextProcWord(w int) int {
	if w >= len(as.procWords) {
		return -1
	}
	sw := w >> 6
	word := as.procSum[sw] &^ ((1 << (uint(w) & 63)) - 1)
	for {
		if word != 0 {
			return sw<<6 + bits.TrailingZeros64(word)
		}
		sw = as.nextSumWord(sw + 1)
		if sw < 0 {
			return -1
		}
		word = as.procSum[sw]
	}
}

// nextSumWord returns the first index ≥ sw with a nonzero procSum word, or
// -1, via the top-level summary.
func (as *ActionSet) nextSumWord(sw int) int {
	if sw >= len(as.procSum) {
		return -1
	}
	t := sw >> 6
	word := as.procSum2[t] &^ ((1 << (uint(sw) & 63)) - 1)
	for {
		if word != 0 {
			return t<<6 + bits.TrailingZeros64(word)
		}
		t++
		if t >= len(as.procSum2) {
			return -1
		}
		word = as.procSum2[t]
	}
}

// MinDeliver returns the lowest enabled deliver channel of process p, or -1.
func (as *ActionSet) MinDeliver(p int) int {
	lo, hi := int(as.base[p]), int(as.base[p+1])
	for w := lo >> 6; hi > 0 && w <= (hi-1)>>6; w++ {
		word := as.words[w]
		if w == lo>>6 {
			word &^= (1 << (uint(lo) & 63)) - 1
		}
		if word == 0 {
			continue
		}
		ord := w<<6 + bits.TrailingZeros64(word)
		if ord < hi {
			return ord - lo
		}
		return -1
	}
	return -1
}

// EachDeliver calls f with every enabled deliver channel of process p in
// ascending order, stopping early when f returns false.
func (as *ActionSet) EachDeliver(p int, f func(ch int) bool) {
	lo, hi := int(as.base[p]), int(as.base[p+1])
	for w := lo >> 6; hi > 0 && w <= (hi-1)>>6; w++ {
		word := as.words[w]
		if w == lo>>6 {
			word &^= (1 << (uint(lo) & 63)) - 1
		}
		for ; word != 0; word &= word - 1 {
			ord := w<<6 + bits.TrailingZeros64(word)
			if ord >= hi {
				return
			}
			if !f(ord - lo) {
				return
			}
		}
	}
}

// HasApp reports whether process p's application action is enabled.
func (as *ActionSet) HasApp(p int) bool { return as.has(as.ordApp(p)) }

// TimeoutEnabled reports whether the root timeout is enabled.
func (as *ActionSet) TimeoutEnabled() bool { return as.has(as.ordTimeout()) }
