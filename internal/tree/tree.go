// Package tree implements the oriented rooted trees the protocol runs on.
//
// An oriented tree has a distinguished root process and every non-root
// process knows which neighbor is its parent. Channels incident to a process
// p are labeled 0..Degree(p)-1; a non-root process always labels the channel
// to its parent 0, and its children follow in construction order. The root's
// children occupy labels 0..Degree(root)-1.
//
// Token circulation follows DFS order: a token received on channel i leaves
// on channel i+1 (mod Degree). The resulting closed walk over the tree's
// directed edges is the "virtual ring" of the paper (Figure 4); it has
// exactly 2(n-1) positions.
//
// Trees store children in compressed-sparse-row form — one shared buffer
// plus per-process offsets instead of n little slices — and every
// construction path (validation, Prüfer decode, the shape generators) is
// O(n) with exact-capacity allocations, so building a topology of 2²⁰
// processes costs two dozen megabytes and milliseconds, not quadratic time.
package tree

import (
	"fmt"
	"math/rand"
	"strings"
)

// NoParent marks the root's parent slot.
const NoParent = -1

// Tree is an immutable oriented rooted tree over processes 0..N()-1.
// Process 0 is always the root.
type Tree struct {
	parent []int // parent[p]; parent[root] == NoParent

	// Children in CSR form: childBuf[childOff[p]:childOff[p+1]] are p's
	// children in channel-label (ascending id) order.
	childOff []int32
	childBuf []int

	names []string
}

// New builds a tree from a parent array. parents[0] must be NoParent (process
// 0 is the root); every other entry must point to an existing process such
// that the graph is a tree rooted at 0. Children are labeled in order of
// process id.
func New(parents []int) (*Tree, error) {
	n := len(parents)
	if n < 2 {
		return nil, fmt.Errorf("tree: need at least 2 processes, got %d", n)
	}
	if parents[0] != NoParent {
		return nil, fmt.Errorf("tree: process 0 must be the root (parent %d)", parents[0])
	}
	t := &Tree{
		parent:   make([]int, n),
		childOff: make([]int32, n+1),
		childBuf: make([]int, n-1),
	}
	copy(t.parent, parents)
	for p := 1; p < n; p++ {
		pp := parents[p]
		if pp < 0 || pp >= n {
			return nil, fmt.Errorf("tree: process %d has out-of-range parent %d", p, pp)
		}
		if pp == p {
			return nil, fmt.Errorf("tree: process %d is its own parent", p)
		}
		t.childOff[pp+1]++
	}
	for p := 0; p < n; p++ {
		t.childOff[p+1] += t.childOff[p]
	}
	// Fill in ascending child id order using the offsets as cursors, then
	// shift them back down one slot.
	for p := 1; p < n; p++ {
		pp := parents[p]
		t.childBuf[t.childOff[pp]] = p
		t.childOff[pp]++
	}
	for p := n; p > 0; p-- {
		t.childOff[p] = t.childOff[p-1]
	}
	t.childOff[0] = 0
	// Verify connectivity with one BFS from the root: n-1 parent edges and
	// every process reached means a tree; anything unreached sits on a cycle
	// disconnected from the root.
	seen := make([]bool, n)
	seen[0] = true
	queue := make([]int, 1, n)
	reached := 1
	for head := 0; head < len(queue); head++ {
		for _, c := range t.Children(queue[head]) {
			if !seen[c] {
				seen[c] = true
				reached++
				queue = append(queue, c)
			}
		}
	}
	if reached != n {
		for p := 1; p < n; p++ {
			if !seen[p] {
				return nil, fmt.Errorf("tree: cycle through process %d", p)
			}
		}
	}
	return t, nil
}

// MustNew is New but panics on invalid input; for tests and fixed fixtures.
func MustNew(parents []int) *Tree {
	t, err := New(parents)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of processes.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root process id (always 0).
func (t *Tree) Root() int { return 0 }

// IsRoot reports whether p is the root.
func (t *Tree) IsRoot(p int) bool { return p == 0 }

// Parent returns p's parent, or NoParent for the root.
func (t *Tree) Parent(p int) int { return t.parent[p] }

// Children returns p's children in channel-label order. The returned slice
// must not be modified.
func (t *Tree) Children(p int) []int { return t.childBuf[t.childOff[p]:t.childOff[p+1]] }

// nChildren returns the number of children of p without materializing the
// slice header.
func (t *Tree) nChildren(p int) int { return int(t.childOff[p+1] - t.childOff[p]) }

// Degree returns ∆p, the number of channels (neighbors) of p.
func (t *Tree) Degree(p int) int {
	if t.IsRoot(p) {
		return t.nChildren(p)
	}
	return t.nChildren(p) + 1
}

// Neighbor returns the process at the far end of p's channel ch.
func (t *Tree) Neighbor(p, ch int) int {
	if t.IsRoot(p) {
		return t.childBuf[int(t.childOff[p])+ch]
	}
	if ch == 0 {
		return t.parent[p]
	}
	return t.childBuf[int(t.childOff[p])+ch-1]
}

// ChannelTo returns the label of p's channel leading to neighbor q.
// It panics if q is not a neighbor of p.
func (t *Tree) ChannelTo(p, q int) int {
	if !t.IsRoot(p) && t.parent[p] == q {
		return 0
	}
	base := 0
	if !t.IsRoot(p) {
		base = 1
	}
	for i, c := range t.Children(p) {
		if c == q {
			return base + i
		}
	}
	panic(fmt.Sprintf("tree: %d is not a neighbor of %d", q, p))
}

// ChannelOffset returns how many channels processes 0..p-1 have together
// (0 ≤ p ≤ N()): p's channel ch is number ChannelOffset(p)+ch of all 2(n-1)
// in lexicographic (process, label) order, and ChannelOffset(N()) is
// RingLen(). It is read off the child offsets the tree keeps anyway, so a
// caller numbering channels this way needs no table of its own.
func (t *Tree) ChannelOffset(p int) int {
	if p == 0 {
		return 0
	}
	return int(t.childOff[p]) + p - 1
}

// ChannelOwner inverts ChannelOffset: the process owning channel number i
// (0 ≤ i < RingLen()) in lexicographic (process, label) order, found by
// binary search — every process has at least one channel, so the offsets
// strictly increase.
func (t *Tree) ChannelOwner(i int) int {
	lo, hi := 0, t.N()-1 // ChannelOffset(lo) ≤ i < ChannelOffset(hi+1)
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if t.ChannelOffset(mid) <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// IsLeaf reports whether p has no children.
func (t *Tree) IsLeaf(p int) bool { return t.nChildren(p) == 0 }

// Depth returns the number of edges between p and the root.
func (t *Tree) Depth(p int) int {
	d := 0
	for q := p; q != 0; q = t.parent[q] {
		d++
	}
	return d
}

// Height returns the maximum depth over all processes, in one BFS.
func (t *Tree) Height() int {
	n := t.N()
	depth := make([]int32, n)
	queue := make([]int, 1, n)
	h := int32(0)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, c := range t.Children(p) {
			depth[c] = depth[p] + 1
			if depth[c] > h {
				h = depth[c]
			}
			queue = append(queue, c)
		}
	}
	return int(h)
}

// SetName attaches a display name to process p (used in traces and figures).
func (t *Tree) SetName(p int, name string) {
	if t.names == nil {
		t.names = make([]string, t.N())
	}
	t.names[p] = name
}

// Name returns the display name of p, defaulting to "p<id>".
func (t *Tree) Name(p int) string {
	if t.names != nil && t.names[p] != "" {
		return t.names[p]
	}
	return fmt.Sprintf("p%d", p)
}

// String renders the tree as nested parent(child...) notation.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(p int)
	rec = func(p int) {
		b.WriteString(t.Name(p))
		if t.IsLeaf(p) {
			return
		}
		b.WriteByte('(')
		for i, c := range t.Children(p) {
			if i > 0 {
				b.WriteByte(' ')
			}
			rec(c)
		}
		b.WriteByte(')')
	}
	rec(0)
	return b.String()
}

// RingLen returns the length of the virtual ring, 2(n-1).
func (t *Tree) RingLen() int { return 2 * (t.N() - 1) }

// Visit is one position of the virtual ring: process From sends on channel
// FromCh, and process To receives on channel ToCh.
type Visit struct {
	From   int
	FromCh int
	To     int
	ToCh   int
}

// EulerTour returns the virtual ring as the cyclic sequence of directed
// edges a token traverses under the DFS rule, starting with the root's
// channel 0. Its length is exactly RingLen().
func (t *Tree) EulerTour() []Visit {
	ring := make([]Visit, 0, t.RingLen())
	p, ch := 0, 0
	for {
		q := t.Neighbor(p, ch)
		in := t.ChannelTo(q, p)
		ring = append(ring, Visit{From: p, FromCh: ch, To: q, ToCh: in})
		// The receiver forwards on channel in+1 (mod ∆q).
		p, ch = q, (in+1)%t.Degree(q)
		if p == 0 && ch == 0 {
			return ring
		}
		if len(ring) > t.RingLen() {
			panic("tree: Euler tour exceeded ring length (corrupt tree)")
		}
	}
}

// TourNames renders the Euler tour as the sequence of visited process names
// beginning at the root, as printed under Figure 4 of the paper.
func (t *Tree) TourNames() []string {
	ring := t.EulerTour()
	names := make([]string, 0, len(ring))
	for _, v := range ring {
		names = append(names, t.Name(v.From))
	}
	return names
}

// Chain returns a path of n processes rooted at one end:
// 0 - 1 - 2 - ... - n-1.
func Chain(n int) *Tree {
	parents := make([]int, n)
	parents[0] = NoParent
	for p := 1; p < n; p++ {
		parents[p] = p - 1
	}
	return MustNew(parents)
}

// Star returns a star of n processes: root 0 with n-1 leaves.
func Star(n int) *Tree {
	parents := make([]int, n)
	parents[0] = NoParent
	for p := 1; p < n; p++ {
		parents[p] = 0
	}
	return MustNew(parents)
}

// Balanced returns a balanced tree where every internal process has `arity`
// children and leaves sit at distance `depth` from the root.
func Balanced(arity, depth int) *Tree {
	if arity < 1 || depth < 1 {
		panic("tree: Balanced needs arity ≥ 1 and depth ≥ 1")
	}
	total, level := 1, 1
	for d := 0; d < depth; d++ {
		level *= arity
		total += level
	}
	parents := make([]int, 1, total)
	parents[0] = NoParent
	frontier := []int{0}
	for d := 0; d < depth; d++ {
		next := make([]int, 0, len(frontier)*arity)
		for _, p := range frontier {
			for i := 0; i < arity; i++ {
				id := len(parents)
				parents = append(parents, p)
				next = append(next, id)
			}
		}
		frontier = next
	}
	return MustNew(parents)
}

// Caterpillar returns a spine of `spine` processes each carrying `legs`
// leaf children — a worst-ish case mixing depth and fanout.
func Caterpillar(spine, legs int) *Tree {
	if spine < 1 {
		panic("tree: Caterpillar needs spine ≥ 1")
	}
	parents := make([]int, 1, spine*(1+max(legs, 0))+1)
	parents[0] = NoParent
	prev := 0
	for s := 1; s < spine; s++ {
		id := len(parents)
		parents = append(parents, prev)
		prev = id
	}
	for s := 0; s < spine; s++ {
		spineID := s // spine ids are 0..spine-1 in construction order
		for l := 0; l < legs; l++ {
			parents = append(parents, spineID)
		}
	}
	if len(parents) < 2 {
		parents = append(parents, 0)
	}
	return MustNew(parents)
}

// Random returns a uniformly random recursive tree of n processes: process p
// attaches to a uniform parent among 0..p-1.
func Random(n int, rng *rand.Rand) *Tree {
	if n < 2 {
		panic("tree: Random needs n ≥ 2")
	}
	parents := make([]int, n)
	parents[0] = NoParent
	for p := 1; p < n; p++ {
		parents[p] = rng.Intn(p)
	}
	return MustNew(parents)
}

// Prufer returns a uniformly random labeled tree of n processes, rooted at
// process 0, decoded from a uniform Prüfer sequence. Unlike Random (uniform
// over RECURSIVE trees, which biases toward low-id hubs and short depth),
// Prüfer sampling is uniform over all nⁿ⁻² labeled trees — the standard
// null model for sweeping the whole tree space.
func Prufer(n int, rng *rand.Rand) *Tree {
	if n < 2 {
		panic("tree: Prufer needs n ≥ 2")
	}
	seq := make([]int, max(n-2, 0))
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	return pruferDecode(n, seq)
}

// pruferDecode builds the labeled tree encoded by a Prüfer sequence of
// length n-2 and roots it at process 0. The adjacency is CSR over one
// 2(n-1)-entry buffer (final degrees are known from the sequence up front)
// and the rooting BFS runs over a preallocated queue, so decoding is O(n)
// with a handful of exact-size allocations.
func pruferDecode(n int, seq []int) *Tree {
	// deg[v] = 1 + occurrences of v in seq: the final degree of v.
	deg := make([]int32, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range seq {
		deg[v]++
	}
	// CSR adjacency offsets from the final degrees; cur are fill cursors.
	adjOff := make([]int32, n+1)
	for i, d := range deg {
		adjOff[i+1] = adjOff[i] + d
	}
	adjBuf := make([]int32, 2*(n-1))
	cur := make([]int32, n)
	copy(cur, adjOff[:n])
	addEdge := func(u, v int) {
		adjBuf[cur[u]] = int32(v)
		cur[u]++
		adjBuf[cur[v]] = int32(u)
		cur[v]++
	}
	if n == 2 {
		addEdge(0, 1)
	} else {
		// Linear decode: ptr sweeps the labels once; leaf tracks the current
		// smallest-degree-1 label, dropping below ptr only when a removal
		// creates a smaller leaf.
		ptr := 0
		for deg[ptr] != 1 {
			ptr++
		}
		leaf := ptr
		for _, v := range seq {
			addEdge(leaf, v)
			deg[v]--
			if deg[v] == 1 && v < ptr {
				leaf = v
			} else {
				ptr++
				for deg[ptr] != 1 {
					ptr++
				}
				leaf = ptr
			}
		}
		addEdge(leaf, n-1)
	}
	// Root the tree at process 0 via BFS over the CSR adjacency.
	parents := make([]int, n)
	parents[0] = NoParent
	seen := make([]bool, n)
	seen[0] = true
	queue := make([]int32, 1, n)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range adjBuf[adjOff[u]:adjOff[u+1]] {
			if !seen[v] {
				seen[v] = true
				parents[v] = int(u)
				queue = append(queue, v)
			}
		}
	}
	return MustNew(parents)
}

// FromDegreeSequence returns a uniformly random labeled tree realizing the
// exact degree sequence degs (degs[p] is the degree of process p), rooted
// at process 0 — the sharpest of the random-tree null models: hub sizes are
// not just bounded but pinned. A label of degree d appears exactly d-1
// times in a Prüfer sequence, so the trees realizing degs correspond
// one-to-one to the arrangements of that fixed multiset; a uniform shuffle
// of the multiset is therefore a uniform draw from the conditioned set (no
// rejection needed), and rooting does not disturb the distribution. It
// errors unless every degree is ≥ 1 and the degrees sum to 2(n-1) — the
// exact realizability condition for trees.
func FromDegreeSequence(degs []int, rng *rand.Rand) (*Tree, error) {
	n := len(degs)
	if n < 2 {
		return nil, fmt.Errorf("tree: FromDegreeSequence needs ≥ 2 degrees, got %d", n)
	}
	sum := 0
	for p, d := range degs {
		if d < 1 {
			return nil, fmt.Errorf("tree: FromDegreeSequence: process %d has degree %d (every process of a tree has degree ≥ 1)", p, d)
		}
		sum += d
	}
	if sum != 2*(n-1) {
		return nil, fmt.Errorf("tree: FromDegreeSequence: degrees sum to %d, a tree on %d processes needs exactly %d", sum, n, 2*(n-1))
	}
	seq := make([]int, 0, n-2)
	for p, d := range degs {
		for i := 1; i < d; i++ {
			seq = append(seq, p)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return pruferDecode(n, seq), nil
}

// boundedDegreeAttempts caps the rejection loop of BoundedDegree: tight
// constraints (maxDeg = 2 on a large n is asking for one of the n!/2
// labeled paths among nⁿ⁻² trees) would otherwise never terminate.
const boundedDegreeAttempts = 100_000

// BoundedDegree returns a uniformly random labeled tree of n processes
// conditioned on every process having degree at most maxDeg, rooted at
// process 0 — the bounded-degree null model for sweeps where hub sizes must
// stay realistic. Sampling is rejection from the uniform Prüfer
// distribution: a label of degree d appears exactly d-1 times in the
// sequence, so a draw is restarted as soon as any label reaches maxDeg
// occurrences, and an accepted sequence is exactly a uniform draw from the
// conditioned set. Rooting does not disturb the distribution. It returns an
// error (rather than looping forever) when the constraint is so tight that
// boundedDegreeAttempts restarts all fail — in practice maxDeg ≥ 3 accepts
// within a few attempts for any n.
func BoundedDegree(n, maxDeg int, rng *rand.Rand) (*Tree, error) {
	if n < 2 {
		return nil, fmt.Errorf("tree: BoundedDegree needs n ≥ 2, got %d", n)
	}
	if maxDeg < 2 {
		// Any tree of n ≥ 3 has an internal process of degree ≥ 2, and for
		// n = 2 the degree-1 path is the whole space; require 2 uniformly.
		return nil, fmt.Errorf("tree: BoundedDegree needs maxDeg ≥ 2, got %d", maxDeg)
	}
	seq := make([]int, max(n-2, 0))
	count := make([]int, n)
	for attempt := 0; attempt < boundedDegreeAttempts; attempt++ {
		for i := range count {
			count[i] = 0
		}
		ok := true
		for i := range seq {
			v := rng.Intn(n)
			count[v]++
			if count[v] > maxDeg-1 { // degree(v) = occurrences(v) + 1
				ok = false
				break
			}
			seq[i] = v
		}
		if ok {
			return pruferDecode(n, seq), nil
		}
	}
	return nil, fmt.Errorf("tree: BoundedDegree(n=%d, maxDeg=%d): rejection sampling failed after %d attempts (constraint too tight)",
		n, maxDeg, boundedDegreeAttempts)
}

// Broom returns a path of `handle` processes rooted at one end, with
// `bristles` leaf children attached to the far end — the classic pathological
// shape mixing maximum depth with a late fanout burst (tokens crawl the
// handle, then contend at the brush).
func Broom(handle, bristles int) *Tree {
	if handle < 1 || bristles < 0 || handle+bristles < 2 {
		panic("tree: Broom needs handle ≥ 1 and handle+bristles ≥ 2")
	}
	parents := make([]int, 0, handle+bristles)
	parents = append(parents, NoParent)
	for p := 1; p < handle; p++ {
		parents = append(parents, p-1)
	}
	for b := 0; b < bristles; b++ {
		parents = append(parents, handle-1)
	}
	return MustNew(parents)
}

// Spider returns a root with `legs` disjoint paths of `legLen` processes
// each — maximum branching at the root combined with depth on every branch,
// the worst case for the virtual ring's root-centric circulation.
func Spider(legs, legLen int) *Tree {
	if legs < 1 || legLen < 1 {
		panic("tree: Spider needs legs ≥ 1 and legLen ≥ 1")
	}
	parents := make([]int, 1, 1+legs*legLen)
	parents[0] = NoParent
	for l := 0; l < legs; l++ {
		prev := 0
		for d := 0; d < legLen; d++ {
			id := len(parents)
			parents = append(parents, prev)
			prev = id
		}
	}
	return MustNew(parents)
}

// Paper returns the 8-process tree of Figures 1, 2 and 4 of the paper:
//
//	r has children a and d; a has children b and c; d has children e, f, g.
//
// Names follow the paper. Its Euler tour is
// r a b a c a r d e d f d g d (Figure 4).
func Paper() *Tree {
	// ids: r=0 a=1 d=2 b=3 c=4 e=5 f=6 g=7
	t := MustNew([]int{NoParent, 0, 0, 1, 1, 2, 2, 2})
	for p, name := range map[int]string{0: "r", 1: "a", 2: "d", 3: "b", 4: "c", 5: "e", 6: "f", 7: "g"} {
		t.SetName(p, name)
	}
	return t
}

// PaperID resolves a paper process name (r, a, b, ...) on the Paper tree.
func PaperID(name string) int {
	ids := map[string]int{"r": 0, "a": 1, "d": 2, "b": 3, "c": 4, "e": 5, "f": 6, "g": 7}
	id, ok := ids[name]
	if !ok {
		panic("tree: unknown paper process " + name)
	}
	return id
}

// Named builds the topology the command-line tools call topo: chain, star
// and random (drawn from seed) with n processes, the smallest balanced
// binary tree with at least n, a caterpillar of about n, or the paper's
// tree (n ignored).
func Named(topo string, n int, seed int64) (*Tree, error) {
	if n < 2 && topo != "paper" {
		return nil, fmt.Errorf("-n %d: need at least 2 processes", n)
	}
	switch topo {
	case "chain":
		return Chain(n), nil
	case "star":
		return Star(n), nil
	case "paper":
		return Paper(), nil
	case "balanced":
		d := 1
		for size := 3; size < n; size = size*2 + 1 {
			d++
		}
		return Balanced(2, d), nil
	case "caterpillar":
		return Caterpillar((n+3)/4, 3), nil
	case "random":
		return Random(n, rand.New(rand.NewSource(seed))), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (chain|star|paper|balanced|caterpillar|random)", topo)
	}
}
