// Package spantree implements a self-stabilizing BFS spanning-tree
// construction for arbitrary rooted networks in the message-passing model —
// the substrate the paper's §5 names for extending the exclusion protocol
// beyond trees (compare Afek-Bremler and Dolev-Israeli-Moran).
//
// Every process maintains a bounded distance estimate and a parent port.
// Processes periodically send their estimate to every neighbor (heartbeats,
// mirroring the root timeout of the exclusion protocol); on reception each
// process recomputes dist = 1 + min over neighbor estimates (the root pins
// dist = 0) and points its parent port at the minimizing neighbor. From any
// initial state the estimates converge to true BFS distances within O(n)
// heartbeat rounds, after which the parent pointers form a BFS spanning
// tree.
//
// Composition note: the paper composes the layers fairly — both
// run concurrently and the exclusion layer re-stabilizes after the tree
// layer settles, which is sound precisely because Theorem 1 tolerates
// arbitrary exclusion-layer states. We realize the same argument in stages:
// stabilize the tree layer, extract the oriented tree, then run the
// exclusion protocol (which still must — and does — converge from any
// state).
package spantree

import (
	"fmt"
	"math/rand"

	"kofl/internal/graph"
	"kofl/internal/tree"
)

// noParent marks the root's parent port.
const noParent = -1

// state is one process's spanning-tree layer memory.
type state struct {
	dist       int   // bounded by n (n = "unreachable"/corrupt marker)
	parentPort int   // port of the current parent; noParent at the root
	nb         []int // last estimate received per port (bounded memory)
}

// Network is a running spanning-tree construction over a graph.
type Network struct {
	G *graph.Graph

	states []state
	// queues[u][p]: FIFO of distance estimates in flight TO u on its port p.
	queues [][][]int
	rng    *rand.Rand

	// Counters.
	Beats      int64
	Deliveries int64
}

// New builds the layer over g with every process in the zero state.
func New(g *graph.Graph, seed int64) *Network {
	n := &Network{G: g, states: make([]state, g.N()),
		queues: make([][][]int, g.N()), rng: rand.New(rand.NewSource(seed))}
	for u := 0; u < g.N(); u++ {
		n.states[u] = state{dist: 0, parentPort: noParent, nb: make([]int, g.Degree(u))}
		n.queues[u] = make([][]int, g.Degree(u))
	}
	return n
}

// Corrupt places every process in an arbitrary (domain-respecting) state and
// seeds up to perChannel arbitrary estimates per directed channel — the
// transient-fault model of self-stabilization.
func (n *Network) Corrupt(rng *rand.Rand, perChannel int) {
	cap := n.G.N()
	for u := range n.states {
		st := &n.states[u]
		st.dist = rng.Intn(cap + 1)
		if n.G.Degree(u) > 0 {
			st.parentPort = rng.Intn(n.G.Degree(u))
		}
		for p := range st.nb {
			st.nb[p] = rng.Intn(cap + 1)
		}
	}
	for u := range n.queues {
		for p := range n.queues[u] {
			n.queues[u][p] = n.queues[u][p][:0]
			for i := rng.Intn(perChannel + 1); i > 0; i-- {
				n.queues[u][p] = append(n.queues[u][p], rng.Intn(cap+1))
			}
		}
	}
}

// beat makes process u broadcast its current estimate to every neighbor.
func (n *Network) beat(u int) {
	n.Beats++
	for p := 0; p < n.G.Degree(u); p++ {
		v := n.G.Neighbor(u, p)
		vp := n.G.PortTo(v, u)
		n.queues[v][vp] = append(n.queues[v][vp], n.states[u].dist)
	}
}

// deliver pops one estimate into u's port p and recomputes u's state.
func (n *Network) deliver(u, p int) {
	q := n.queues[u][p]
	if len(q) == 0 {
		return
	}
	n.Deliveries++
	est := q[0]
	n.queues[u][p] = q[1:]
	cap := n.G.N()
	if est < 0 {
		est = 0
	}
	if est > cap {
		est = cap
	}
	st := &n.states[u]
	st.nb[p] = est
	n.recompute(u)
}

// recompute applies the BFS rule at u: dist = 1 + the smallest usable
// neighbor estimate, parent = the lowest port achieving it. Estimates ≥ n
// are the saturated "unusable" marker and are ignored.
func (n *Network) recompute(u int) {
	st := &n.states[u]
	if u == n.G.Root() {
		st.dist = 0
		st.parentPort = noParent
		return
	}
	best, bestPort := n.G.N(), noParent
	for p, d := range st.nb {
		if d < n.G.N() && d+1 < best {
			best, bestPort = d+1, p
		}
	}
	if bestPort == noParent {
		st.dist = n.G.N() // no usable neighbor estimate yet
		st.parentPort = noParent
		return
	}
	st.dist = best
	st.parentPort = bestPort
}

// Round performs one fair asynchronous round: every process beats once and
// every in-flight estimate from before the round is delivered, both in
// random order. After O(diameter) rounds from any state the layer is stable.
func (n *Network) Round() {
	order := n.rng.Perm(n.G.N())
	for _, u := range order {
		n.beat(u)
	}
	for _, u := range order {
		ports := n.rng.Perm(n.G.Degree(u))
		for _, p := range ports {
			for len(n.queues[u][p]) > 0 {
				n.deliver(u, p)
			}
		}
	}
}

// Dist returns u's current distance estimate.
func (n *Network) Dist(u int) int { return n.states[u].dist }

// ParentOf returns u's current parent node id, or -1 for the root (or while
// u has no usable estimate).
func (n *Network) ParentOf(u int) int {
	if u == n.G.Root() || n.states[u].parentPort == noParent {
		return -1
	}
	return n.G.Neighbor(u, n.states[u].parentPort)
}

// Stable reports whether the current estimates equal the true BFS distances
// and every parent pointer decreases distance by one — the legitimacy
// predicate of the layer.
func (n *Network) Stable() bool {
	want := n.G.BFSDistances()
	for u := 0; u < n.G.N(); u++ {
		if n.states[u].dist != want[u] {
			return false
		}
		if u != n.G.Root() {
			par := n.ParentOf(u)
			if par < 0 || want[par] != want[u]-1 {
				return false
			}
		}
	}
	return true
}

// Stabilize runs rounds until Stable (or maxRounds); it returns the number
// of rounds used and whether stabilization was reached.
func (n *Network) Stabilize(maxRounds int) (int, bool) {
	for r := 0; r < maxRounds; r++ {
		if n.Stable() {
			return r, true
		}
		n.Round()
	}
	return maxRounds, n.Stable()
}

// Extract returns the stabilized spanning tree as the oriented tree the
// exclusion protocol runs on. It errors if the layer is not stable.
func (n *Network) Extract() (*tree.Tree, error) {
	if !n.Stable() {
		return nil, fmt.Errorf("spantree: layer not stabilized")
	}
	parents := make([]int, n.G.N())
	parents[0] = tree.NoParent
	for u := 1; u < n.G.N(); u++ {
		parents[u] = n.ParentOf(u)
	}
	return tree.New(parents)
}

// Build is the one-call composition helper: construct the layer over g,
// optionally corrupt it (faultSeed ≥ 0), stabilize, and extract the tree.
// It returns the tree and the number of rounds the layer needed.
func Build(g *graph.Graph, seed int64, faultSeed int64) (*tree.Tree, int, error) {
	n := New(g, seed)
	if faultSeed >= 0 {
		n.Corrupt(rand.New(rand.NewSource(faultSeed)), 3)
	}
	rounds, ok := n.Stabilize(4*g.N() + 16)
	if !ok {
		return nil, rounds, fmt.Errorf("spantree: no stabilization within %d rounds", rounds)
	}
	t, err := n.Extract()
	return t, rounds, err
}
