package adversary

import (
	"fmt"
	"math/rand"

	"kofl/internal/channel"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

// ValidateFor checks the script's topology-dependent target fields against
// a concrete tree — what Validate cannot check without one. NewExecutor
// calls it; grid layers call it eagerly so a bad (scenario, topology) pair
// fails at expansion, not mid-pool.
func (sc *Script) ValidateFor(t *tree.Tree) error {
	for pi, ph := range sc.Phases {
		for ei, ev := range ph.Events {
			if ev.Kind == "storm" {
				continue
			}
			if err := ev.Target.validateFor(t); err != nil {
				return fmt.Errorf("adversary: script %q phase %d event %d: %w", sc.Name, pi, ei, err)
			}
		}
	}
	return nil
}

// validateFor checks the topology-dependent target fields against a
// concrete tree: process ids in range, channel endpoints adjacent, ring
// positions within the virtual ring.
func (tg Target) validateFor(t *tree.Tree) error {
	n := t.N()
	switch tg.Kind {
	case "", "all", "random":
		return nil
	case "proc", "subtree":
		if tg.Proc >= n {
			return fmt.Errorf("adversary: target process %d out of range (n=%d)", tg.Proc, n)
		}
		return nil
	case "ring":
		if tg.Len < 1 {
			return fmt.Errorf("adversary: ring target needs len ≥ 1")
		}
		if tg.From >= t.RingLen() || tg.Len > t.RingLen() {
			return fmt.Errorf("adversary: ring target [%d, +%d) outside the %d-position virtual ring",
				tg.From, tg.Len, t.RingLen())
		}
		return nil
	case "channel":
		if tg.Proc >= n || tg.Peer >= n {
			return fmt.Errorf("adversary: channel target endpoints %d-%d out of range (n=%d)", tg.Proc, tg.Peer, n)
		}
		if !adjacent(t, tg.Proc, tg.Peer) {
			return fmt.Errorf("adversary: channel target endpoints %d-%d are not neighbors", tg.Proc, tg.Peer)
		}
		return nil
	default:
		return fmt.Errorf("adversary: unknown target kind %q", tg.Kind)
	}
}

func adjacent(t *tree.Tree, p, q int) bool {
	for ch := 0; ch < t.Degree(p); ch++ {
		if t.Neighbor(p, ch) == q {
			return true
		}
	}
	return false
}

// selection is a target resolved against a concrete simulation: the victim
// processes and channels in canonical order. nil slices mean "the whole
// system", which routes the primitives through their exact legacy
// whole-system paths. Static targets resolve once at executor construction;
// the random kind re-resolves from the RNG at every firing.
type selection struct {
	procs []int
	chans []channel.Ref
}

// resolveStatic resolves every target kind except "random" (for which it
// returns ok=false).
func (tg Target) resolveStatic(s *sim.Sim) (sel selection, ok bool) {
	t := s.Tree
	switch tg.Kind {
	case "", "all":
		return selection{}, true // nil = whole system
	case "proc":
		return selection{procs: []int{tg.Proc}, chans: incidentChannels(s, tg.Proc)}, true
	case "subtree":
		procs := subtreeProcs(t, tg.Proc)
		member := make(map[int]bool, len(procs))
		for _, p := range procs {
			member[p] = true
		}
		var chans []channel.Ref
		s.Channels(func(c channel.Ref) {
			if e := c.Ends(); member[e.From] && member[e.To] {
				chans = append(chans, c)
			}
		})
		return selection{procs: procs, chans: chans}, true
	case "ring":
		ring := t.EulerTour()
		var procs []int
		var chans []channel.Ref
		seen := make(map[int]bool)
		for i := 0; i < tg.Len; i++ {
			v := ring[(tg.From+i)%len(ring)]
			if !seen[v.From] {
				seen[v.From] = true
				procs = append(procs, v.From)
			}
			chans = append(chans, s.Out(v.From, v.FromCh))
		}
		return selection{procs: procs, chans: chans}, true
	case "channel":
		return selection{
			procs: []int{tg.Proc, tg.Peer},
			chans: []channel.Ref{
				s.Out(tg.Proc, t.ChannelTo(tg.Proc, tg.Peer)),
				s.Out(tg.Peer, t.ChannelTo(tg.Peer, tg.Proc)),
			},
		}, true
	default: // "random"
		return selection{}, false
	}
}

// resolveRandom draws the random target's victims from the executor RNG:
// Count process picks and Count channel picks (default 1), drawn with
// replacement so the draw count — and therefore the RNG stream — does not
// depend on the system size.
func (tg Target) resolveRandom(s *sim.Sim, rng *rand.Rand, all []channel.Ref) selection {
	count := tg.Count
	if count <= 0 {
		count = 1
	}
	sel := selection{}
	for i := 0; i < count; i++ {
		sel.procs = append(sel.procs, rng.Intn(s.Tree.N()))
	}
	for i := 0; i < count; i++ {
		sel.chans = append(sel.chans, all[rng.Intn(len(all))])
	}
	return sel
}

// incidentChannels returns every directed channel touching p, in canonical
// enumeration order.
func incidentChannels(s *sim.Sim, p int) []channel.Ref {
	var chans []channel.Ref
	s.Channels(func(c channel.Ref) {
		if e := c.Ends(); e.From == p || e.To == p {
			chans = append(chans, c)
		}
	})
	return chans
}

// subtreeProcs returns the processes of the subtree rooted at p, in
// depth-first preorder (deterministic: children in channel-label order).
func subtreeProcs(t *tree.Tree, p int) []int {
	procs := []int{p}
	for _, c := range t.Children(p) {
		procs = append(procs, subtreeProcs(t, c)...)
	}
	return procs
}
