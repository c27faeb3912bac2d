package kofl_test

import (
	"math/rand"
	"testing"

	"kofl"
	"kofl/internal/graph"
)

// TestNewFromGraphComposition is §5's composition on meshes of growing size
// and density: the spanning-tree layer stabilizes from a corrupted state to
// a BFS tree, and the exclusion layer converges on it and starves no one.
func TestNewFromGraphComposition(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *kofl.Graph
	}{
		{"grid-3x3", kofl.GridGraph(3, 3)},
		{"ring-12", kofl.RingGraph(12)},
		{"grid-4x4", kofl.GridGraph(4, 4)},
		{"complete-8", kofl.CompleteGraph(8)},
		{"random-16+8", graph.RandomConnected(16, 8, rand.New(rand.NewSource(7)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comp, err := kofl.NewFromGraph(tc.g, kofl.Options{K: 2, L: 3, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			n := tc.g.N()
			if comp.SpanningTree.N() != n {
				t.Fatalf("tree size %d, want %d", comp.SpanningTree.N(), n)
			}
			if comp.TreeRounds <= 0 {
				t.Errorf("TreeRounds = %d, want > 0 (layer starts corrupted)", comp.TreeRounds)
			}
			for u, d := range tc.g.BFSDistances() {
				if got := comp.SpanningTree.Depth(u); got != d {
					t.Errorf("node %d at depth %d, want its BFS distance %d", u, got, d)
				}
			}
			for p := 0; p < n; p++ {
				comp.Saturate(p, 1+p%2, 2, 4, 0)
			}
			comp.Run(300_000)
			m := comp.Metrics()
			if !m.Converged {
				t.Fatal("exclusion layer did not converge on the extracted tree")
			}
			for p, gr := range m.Grants {
				if gr == 0 {
					t.Errorf("process %d starved on the composed system", p)
				}
			}
		})
	}
}

func TestNewFromGraphPropagatesErrors(t *testing.T) {
	g := kofl.RingGraph(6)
	if _, err := kofl.NewFromGraph(g, kofl.Options{K: 0, L: 0}); err == nil {
		t.Error("invalid exclusion options accepted")
	}
}

func TestGraphConstructors(t *testing.T) {
	if g := kofl.RingGraph(5); g.N() != 5 || g.Edges() != 5 {
		t.Error("RingGraph")
	}
	if g := kofl.CompleteGraph(4); g.Edges() != 6 {
		t.Error("CompleteGraph")
	}
	if _, err := kofl.NewGraph(3, [][2]int{{0, 1}, {1, 2}}); err != nil {
		t.Errorf("NewGraph: %v", err)
	}
	if _, err := kofl.NewGraph(3, [][2]int{{0, 1}}); err == nil {
		t.Error("disconnected graph accepted")
	}
}
