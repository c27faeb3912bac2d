package tree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadInput(t *testing.T) {
	cases := []struct {
		name    string
		parents []int
	}{
		{"empty", nil},
		{"single", []int{NoParent}},
		{"root-has-parent", []int{0, 0}},
		{"parent-out-of-range", []int{NoParent, 5}},
		{"parent-negative", []int{NoParent, -3}},
		{"self-parent", []int{NoParent, 1}},
		{"cycle", []int{NoParent, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.parents); err == nil {
				t.Errorf("New(%v) succeeded, want error", tc.parents)
			}
		})
	}
}

func TestNewAcceptsValidTrees(t *testing.T) {
	cases := [][]int{
		{NoParent, 0},
		{NoParent, 0, 0},
		{NoParent, 0, 1, 2, 3},
		{NoParent, 0, 0, 1, 1, 2, 2},
	}
	for _, parents := range cases {
		if _, err := New(parents); err != nil {
			t.Errorf("New(%v): %v", parents, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew on invalid input did not panic")
		}
	}()
	MustNew([]int{NoParent, 1})
}

func TestDegreeAndNeighbors(t *testing.T) {
	// r(0) with children 1, 2; 1 with children 3, 4.
	tr := MustNew([]int{NoParent, 0, 0, 1, 1})
	if got := tr.Degree(0); got != 2 {
		t.Errorf("Degree(root) = %d, want 2", got)
	}
	if got := tr.Degree(1); got != 3 {
		t.Errorf("Degree(1) = %d, want 3 (parent + 2 children)", got)
	}
	if got := tr.Degree(3); got != 1 {
		t.Errorf("Degree(leaf) = %d, want 1", got)
	}
	// Channel labels: non-root channel 0 is the parent.
	if got := tr.Neighbor(1, 0); got != 0 {
		t.Errorf("Neighbor(1, 0) = %d, want parent 0", got)
	}
	if got := tr.Neighbor(1, 1); got != 3 {
		t.Errorf("Neighbor(1, 1) = %d, want first child 3", got)
	}
	if got := tr.Neighbor(0, 1); got != 2 {
		t.Errorf("Neighbor(root, 1) = %d, want 2", got)
	}
}

func TestChannelToInvertsNeighbor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tr := Random(2+rng.Intn(40), rng)
		for p := 0; p < tr.N(); p++ {
			for ch := 0; ch < tr.Degree(p); ch++ {
				q := tr.Neighbor(p, ch)
				if got := tr.ChannelTo(p, q); got != ch {
					t.Fatalf("ChannelTo(%d, %d) = %d, want %d", p, q, got, ch)
				}
			}
		}
	}
}

// TestChannelOffsetNumbersChannels checks ChannelOffset against a running
// sum of degrees and ChannelOwner against it, channel by channel.
func TestChannelOffsetNumbersChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trees := []*Tree{Paper(), Chain(2), Star(7), Caterpillar(5, 3)}
	for trial := 0; trial < 30; trial++ {
		trees = append(trees, Prufer(2+rng.Intn(60), rng))
	}
	for _, tr := range trees {
		i := 0
		for p := 0; p < tr.N(); p++ {
			if got := tr.ChannelOffset(p); got != i {
				t.Fatalf("%v: ChannelOffset(%d) = %d, want %d", tr, p, got, i)
			}
			for ch := 0; ch < tr.Degree(p); ch++ {
				if got := tr.ChannelOwner(i); got != p {
					t.Fatalf("%v: ChannelOwner(%d) = %d, want %d", tr, i, got, p)
				}
				i++
			}
		}
		if got := tr.ChannelOffset(tr.N()); got != tr.RingLen() {
			t.Fatalf("%v: ChannelOffset(N) = %d, want %d", tr, got, tr.RingLen())
		}
	}
}

func TestChannelToPanicsOnNonNeighbor(t *testing.T) {
	tr := Chain(4)
	defer func() {
		if recover() == nil {
			t.Error("ChannelTo on non-neighbor did not panic")
		}
	}()
	tr.ChannelTo(0, 3)
}

func TestDepthAndHeight(t *testing.T) {
	tr := Chain(5)
	for p := 0; p < 5; p++ {
		if got := tr.Depth(p); got != p {
			t.Errorf("chain Depth(%d) = %d, want %d", p, got, p)
		}
	}
	if got := tr.Height(); got != 4 {
		t.Errorf("chain-5 Height = %d, want 4", got)
	}
	if got := Star(7).Height(); got != 1 {
		t.Errorf("star Height = %d, want 1", got)
	}
}

// eulerTourOK reports whether tr's Euler tour has exactly 2(n-1) positions,
// starts and ends at the root, and traverses every directed edge exactly
// once.
func eulerTourOK(tr *Tree) bool {
	n := tr.N()
	ring := tr.EulerTour()
	if len(ring) != 2*(n-1) || len(ring) != tr.RingLen() {
		return false
	}
	if ring[0].From != tr.Root() || ring[len(ring)-1].To != tr.Root() {
		return false
	}
	seen := map[[2]int]int{}
	for _, v := range ring {
		seen[[2]int{v.From, v.To}]++
	}
	if len(seen) != 2*(n-1) {
		return false
	}
	for _, c := range seen {
		if c != 1 {
			return false
		}
	}
	return true
}

func TestEulerTourLengthProperty(t *testing.T) {
	// Figure 4's tree and the shapes it is contrasted with, then any tree.
	for _, tc := range []struct {
		name string
		tr   *Tree
	}{
		{"paper", Paper()}, {"chain-8", Chain(8)}, {"star-8", Star(8)},
		{"balanced-2x3", Balanced(2, 3)}, {"caterpillar-5x3", Caterpillar(5, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !eulerTourOK(tc.tr) {
				t.Errorf("Euler tour %v is not a closed walk over each directed edge once", tc.tr.EulerTour())
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		check := func(seed int64, size uint8) bool {
			return eulerTourOK(Random(2+int(size)%60, rand.New(rand.NewSource(seed))))
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}

func TestEulerTourIsContinuous(t *testing.T) {
	// Consecutive ring positions chain: the receiver of position i is the
	// sender of position i+1, leaving on channel inCh+1 (mod degree).
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		tr := Random(2+rng.Intn(30), rng)
		ring := tr.EulerTour()
		for i, v := range ring {
			next := ring[(i+1)%len(ring)]
			if next.From != v.To {
				t.Fatalf("position %d: To=%d but next From=%d", i, v.To, next.From)
			}
			if next.FromCh != (v.ToCh+1)%tr.Degree(v.To) {
				t.Fatalf("position %d: DFS rule violated (in %d, out %d, deg %d)",
					i, v.ToCh, next.FromCh, tr.Degree(v.To))
			}
		}
	}
}

func TestPaperTreeMatchesFigures(t *testing.T) {
	tr := Paper()
	if tr.N() != 8 {
		t.Fatalf("paper tree has %d processes, want 8", tr.N())
	}
	if got := strings.Join(tr.TourNames(), " "); got != "r a b a c a r d e d f d g d" {
		t.Errorf("tour = %q, want Figure 4's caption", got)
	}
	if tr.RingLen() != 14 {
		t.Errorf("ring length = %d, want 14", tr.RingLen())
	}
	// Channel labels from Figure 1: r's channels 0,1 to a,d; a's 1,2 to b,c;
	// d's 1,2,3 to e,f,g.
	wantEdges := []struct {
		p, ch int
		q     string
	}{
		{PaperID("r"), 0, "a"}, {PaperID("r"), 1, "d"},
		{PaperID("a"), 1, "b"}, {PaperID("a"), 2, "c"},
		{PaperID("d"), 1, "e"}, {PaperID("d"), 2, "f"}, {PaperID("d"), 3, "g"},
	}
	for _, e := range wantEdges {
		if got := tr.Neighbor(e.p, e.ch); got != PaperID(e.q) {
			t.Errorf("Neighbor(%s, %d) = %s, want %s", tr.Name(e.p), e.ch, tr.Name(got), e.q)
		}
	}
}

func TestPaperIDPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PaperID(unknown) did not panic")
		}
	}()
	PaperID("z")
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name       string
		tr         *Tree
		n, leaves  int
		rootDegree int
	}{
		{"chain-6", Chain(6), 6, 1, 1},
		{"star-6", Star(6), 6, 5, 5},
		{"balanced-2x2", Balanced(2, 2), 7, 4, 2},
		{"balanced-3x1", Balanced(3, 1), 4, 3, 3},
		{"caterpillar-3x2", Caterpillar(3, 2), 9, 6, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.tr.N() != tc.n {
				t.Errorf("N = %d, want %d", tc.tr.N(), tc.n)
			}
			leaves := 0
			for p := 0; p < tc.tr.N(); p++ {
				if tc.tr.IsLeaf(p) {
					leaves++
				}
			}
			if leaves != tc.leaves {
				t.Errorf("leaves = %d, want %d", leaves, tc.leaves)
			}
			if got := tc.tr.Degree(0); got != tc.rootDegree {
				t.Errorf("root degree = %d, want %d", got, tc.rootDegree)
			}
		})
	}
}

func TestCaterpillarSpineOne(t *testing.T) {
	tr := Caterpillar(1, 3)
	if tr.N() != 4 {
		t.Errorf("Caterpillar(1,3).N = %d, want 4", tr.N())
	}
}

func TestRandomTreesAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(100)
		tr := Random(n, rng)
		if tr.N() != n {
			t.Fatalf("Random(%d).N = %d", n, tr.N())
		}
		// Every non-root process reaches the root.
		for p := 1; p < n; p++ {
			if tr.Depth(p) < 1 || tr.Depth(p) >= n {
				t.Fatalf("Depth(%d) = %d out of range", p, tr.Depth(p))
			}
		}
	}
}

func TestNamesAndString(t *testing.T) {
	tr := Chain(3)
	if got := tr.Name(1); got != "p1" {
		t.Errorf("default Name = %q, want p1", got)
	}
	tr.SetName(1, "mid")
	if got := tr.Name(1); got != "mid" {
		t.Errorf("Name after SetName = %q", got)
	}
	if got := tr.String(); got != "p0(mid(p2))" {
		t.Errorf("String = %q, want p0(mid(p2))", got)
	}
}

func TestDegreeSumProperty(t *testing.T) {
	// Handshake lemma: the degrees sum to twice the edge count.
	check := func(seed int64, size uint8) bool {
		n := 2 + int(size)%80
		tr := Random(n, rand.New(rand.NewSource(seed)))
		sum := 0
		for p := 0; p < n; p++ {
			sum += tr.Degree(p)
		}
		return sum == 2*(n-1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIsRootAndParent(t *testing.T) {
	tr := Star(4)
	if !tr.IsRoot(0) || tr.IsRoot(1) {
		t.Error("IsRoot wrong")
	}
	if tr.Parent(0) != NoParent {
		t.Error("root parent should be NoParent")
	}
	for p := 1; p < 4; p++ {
		if tr.Parent(p) != 0 {
			t.Errorf("Parent(%d) = %d", p, tr.Parent(p))
		}
	}
}

func TestChildrenOrderIsChannelOrder(t *testing.T) {
	tr := MustNew([]int{NoParent, 0, 0, 0})
	kids := tr.Children(0)
	want := []int{1, 2, 3}
	if fmt.Sprint(kids) != fmt.Sprint(want) {
		t.Errorf("Children(root) = %v, want %v", kids, want)
	}
}

func TestBalancedPanicsOnBadArgs(t *testing.T) {
	for _, args := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() { recover() }()
			Balanced(args[0], args[1])
			t.Errorf("Balanced(%d,%d) did not panic", args[0], args[1])
		}()
	}
}

func TestBroomShape(t *testing.T) {
	tr := Broom(4, 3)
	if tr.N() != 7 {
		t.Fatalf("N = %d, want 7", tr.N())
	}
	// Handle: 0-1-2-3; bristles 4,5,6 hang off process 3.
	for p := 1; p < 4; p++ {
		if tr.Parent(p) != p-1 {
			t.Errorf("handle parent(%d) = %d, want %d", p, tr.Parent(p), p-1)
		}
	}
	for p := 4; p < 7; p++ {
		if tr.Parent(p) != 3 {
			t.Errorf("bristle parent(%d) = %d, want 3", p, tr.Parent(p))
		}
		if !tr.IsLeaf(p) {
			t.Errorf("bristle %d is not a leaf", p)
		}
	}
	if tr.Height() != 4 {
		t.Errorf("Height = %d, want 4", tr.Height())
	}
	// Degenerate brooms are still trees.
	if Broom(1, 1).N() != 2 || Broom(5, 0).N() != 5 {
		t.Error("degenerate broom sizes wrong")
	}
}

func TestSpiderShape(t *testing.T) {
	tr := Spider(3, 4)
	if tr.N() != 13 {
		t.Fatalf("N = %d, want 13", tr.N())
	}
	if tr.Degree(0) != 3 {
		t.Errorf("root degree = %d, want 3", tr.Degree(0))
	}
	if tr.Height() != 4 {
		t.Errorf("Height = %d, want 4", tr.Height())
	}
	leaves := 0
	for p := 0; p < tr.N(); p++ {
		if tr.IsLeaf(p) {
			leaves++
			if tr.Depth(p) != 4 {
				t.Errorf("leaf %d at depth %d, want 4", p, tr.Depth(p))
			}
		}
	}
	if leaves != 3 {
		t.Errorf("%d leaves, want 3", leaves)
	}
}

func TestPruferDegreesMatchSequence(t *testing.T) {
	// Decoding invariant: a label's degree is 1 + its multiplicity in the
	// Prüfer sequence. Reconstruct the multiplicities from the decoded tree
	// degrees and cross-check the total: Σdeg = 2(n-1). Run many seeds and
	// sizes; MustNew inside Prufer already rejects cyclic/disconnected bugs.
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		tr := Prufer(n, rng)
		if tr.N() != n {
			t.Fatalf("N = %d, want %d", tr.N(), n)
		}
		sum := 0
		for p := 0; p < n; p++ {
			sum += tr.Degree(p)
		}
		if sum != 2*(n-1) {
			t.Fatalf("seed %d: Σdeg = %d, want %d", seed, sum, 2*(n-1))
		}
	}
}

func TestPruferCoversAllLabeledTrees(t *testing.T) {
	// n=4 has 4² = 16 labeled trees; a uniform sampler must hit every one.
	rng := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	for i := 0; i < 4000; i++ {
		tr := Prufer(4, rng)
		// Canonical signature: the parent array.
		sig := ""
		for p := 1; p < 4; p++ {
			sig += fmt.Sprintf("%d,", tr.Parent(p))
		}
		seen[sig]++
	}
	if len(seen) != 16 {
		t.Errorf("sampled %d distinct labeled trees on 4 vertices, want 16", len(seen))
	}
	for sig, count := range seen {
		if count < 100 { // E[count] = 250; far tails indicate bias
			t.Errorf("tree %s sampled only %d/4000 times (uniformity suspect)", sig, count)
		}
	}
}

func TestPruferDeterministicInSeed(t *testing.T) {
	a := Prufer(31, rand.New(rand.NewSource(7)))
	b := Prufer(31, rand.New(rand.NewSource(7)))
	if a.String() != b.String() {
		t.Error("Prufer not deterministic in the RNG seed")
	}
}

func TestBoundedDegreeRespectsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, maxDeg int }{
		{2, 2}, {5, 2}, {12, 3}, {40, 3}, {64, 4}, {200, 5},
	} {
		for i := 0; i < 20; i++ {
			tr, err := BoundedDegree(tc.n, tc.maxDeg, rng)
			if err != nil {
				t.Fatalf("BoundedDegree(%d, %d): %v", tc.n, tc.maxDeg, err)
			}
			if tr.N() != tc.n {
				t.Fatalf("N = %d, want %d", tr.N(), tc.n)
			}
			for p := 0; p < tr.N(); p++ {
				if tr.Degree(p) > tc.maxDeg {
					t.Fatalf("n=%d maxDeg=%d: process %d has degree %d",
						tc.n, tc.maxDeg, p, tr.Degree(p))
				}
			}
		}
	}
}

func TestBoundedDegreeRejectsBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BoundedDegree(1, 3, rng); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := BoundedDegree(8, 1, rng); err == nil {
		t.Error("maxDeg=1 accepted")
	}
	// maxDeg=2 on a large n demands a labeled path — astronomically unlikely
	// under rejection; the attempts cap must turn that into an error, not a
	// hang.
	if _, err := BoundedDegree(200, 2, rng); err == nil {
		t.Error("expected rejection-failure error for n=200 maxDeg=2")
	}
}

func TestBoundedDegreeUniformOverConditionedSet(t *testing.T) {
	// n=4, maxDeg=2: the conditioned set is exactly the 4!/2 = 12 labeled
	// paths. A uniform sampler must hit all of them about equally.
	rng := rand.New(rand.NewSource(9))
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		tr, err := BoundedDegree(4, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		sig := ""
		for p := 1; p < 4; p++ {
			sig += fmt.Sprintf("%d,", tr.Parent(p))
		}
		seen[sig]++
	}
	if len(seen) != 12 {
		t.Errorf("sampled %d distinct bounded-degree trees, want 12 labeled paths", len(seen))
	}
	for sig, count := range seen {
		if count < 125 { // E[count] = 250
			t.Errorf("path %s sampled only %d/3000 times (uniformity suspect)", sig, count)
		}
	}
}

func TestBoundedDegreeDeterministicInSeed(t *testing.T) {
	a, err := BoundedDegree(31, 4, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BoundedDegree(31, 4, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("BoundedDegree not deterministic in the RNG seed")
	}
}

func TestFromDegreeSequenceRealizesDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][]int{
		{1, 1},                         // the 2-path
		{3, 1, 1, 1},                   // a star centered at 0
		{1, 2, 2, 2, 1},                // a path through 1..3
		{2, 3, 1, 1, 2, 2, 2, 1},       // mixed hubs, sum 14 = 2(8-1)
		{4, 1, 1, 2, 2, 1, 3, 1, 1, 2}, // sum 18 = 2(10-1)
	}
	for _, degs := range cases {
		for trial := 0; trial < 20; trial++ {
			tr, err := FromDegreeSequence(degs, rng)
			if err != nil {
				t.Fatalf("degs %v: %v", degs, err)
			}
			for p, want := range degs {
				if got := tr.Degree(p); got != want {
					t.Fatalf("degs %v trial %d: process %d has degree %d, want %d",
						degs, trial, p, got, want)
				}
			}
		}
	}
}

func TestFromDegreeSequenceRejectsBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, degs := range [][]int{
		nil,
		{1},
		{0, 2, 1, 1},    // degree 0
		{1, 1, 1},       // sum 3 ≠ 4
		{2, 2, 2},       // sum 6 ≠ 4 (a cycle, not a tree)
		{3, 3, 1, 1, 1}, // sum 9 ≠ 8
	} {
		if _, err := FromDegreeSequence(degs, rng); err == nil {
			t.Errorf("FromDegreeSequence(%v) accepted an unrealizable sequence", degs)
		}
	}
}

func TestFromDegreeSequenceUniformOverConditionedSet(t *testing.T) {
	// degs = [1,2,2,1]: the realizing trees are exactly the paths whose
	// interior is {1,2} — Prüfer sequences (1,2) and (2,1), so 2 trees.
	rng := rand.New(rand.NewSource(11))
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		tr, err := FromDegreeSequence([]int{1, 2, 2, 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[tr.String()]++
	}
	if len(seen) != 2 {
		t.Fatalf("sampled %d distinct trees, want the 2 realizations: %v", len(seen), seen)
	}
	for sig, count := range seen {
		if count < 800 { // E[count] = 1000
			t.Errorf("tree %s sampled only %d/2000 times (uniformity suspect)", sig, count)
		}
	}
}

func TestFromDegreeSequenceDeterministicInSeed(t *testing.T) {
	degs := []int{3, 2, 1, 1, 2, 2, 2, 1}
	a, err := FromDegreeSequence(degs, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromDegreeSequence(degs, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("FromDegreeSequence not deterministic in the RNG seed")
	}
}
