package adversary

import (
	"math/rand"

	"kofl/internal/channel"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
)

// The fault primitives. Every primitive takes an explicit channel or
// process selection (nil = the whole system, in the kernel's canonical
// enumeration order) and mutates the simulation only through the tracked
// surfaces of the fault-injection resync rule: the channel API and
// sim.Sim.RestoreNode. Every primitive is a deterministic function of the
// supplied RNG, and a nil selection draws from it in the same order on every
// run: seeded whole-system fault schedules (the golden traces, the campaign
// storm columns) replay byte-identically.

// allChannels enumerates every directed channel in canonical order (sender
// ascending, then the sender's channel labels).
func allChannels(s *sim.Sim) []channel.Ref {
	var chans []channel.Ref
	s.Channels(func(c channel.Ref) { chans = append(chans, c) })
	return chans
}

// allProcs enumerates every process id ascending.
func allProcs(s *sim.Sim) []int {
	procs := make([]int, s.Tree.N())
	for p := range procs {
		procs[p] = p
	}
	return procs
}

// CorruptStates overwrites the local state of every process in procs with a
// random domain-respecting snapshot (nil = every process). Corruption goes
// through sim.Sim.RestoreNode, which folds the state delta into the census;
// state corruption cannot change action enablement, so no action-set resync
// is needed.
func CorruptStates(s *sim.Sim, rng *rand.Rand, procs []int) {
	if procs == nil {
		procs = allProcs(s)
	}
	for _, p := range procs {
		s.RestoreNode(p, core.RandomSnapshot(s.Cfg, s.Tree.Degree(p), rng))
	}
}

// GarbageChannels seeds each channel in chans (nil = all) with a uniform
// number of arbitrary messages in [0..perChannel], capped at the
// configuration's CMAX — the paper's bound on transient channel garbage.
func GarbageChannels(s *sim.Sim, rng *rand.Rand, perChannel int, chans []channel.Ref) {
	if perChannel > s.Cfg.CMAX {
		perChannel = s.Cfg.CMAX
	}
	ForceGarbageChannels(s, rng, perChannel, chans)
}

// ForceGarbageChannels is GarbageChannels without the CMAX cap: it violates
// the paper's channel assumption on purpose (ablation A4 measures what that
// does to bounded-counter convergence). Garbage controller flags are drawn
// from the BOUNDED domain even when the configuration uses unbounded
// counters — adversarial garbage must collide with values the root will
// actually use.
func ForceGarbageChannels(s *sim.Sim, rng *rand.Rand, perChannel int, chans []channel.Ref) {
	if perChannel < 0 {
		perChannel = 0
	}
	if chans == nil {
		chans = allChannels(s)
	}
	mod := 2*(s.Cfg.N-1)*(s.Cfg.CMAX+1) + 1
	for _, c := range chans {
		for i := rng.Intn(perChannel + 1); i > 0; i-- {
			c.Seed(message.Random(rng, mod, s.Cfg.L))
		}
	}
}

// DropTokens removes up to count in-flight messages of the given kind,
// chosen uniformly over the channels in chans (nil = all); it returns how
// many were removed. Modelling token loss (e.g. a crashed link buffer).
func DropTokens(s *sim.Sim, rng *rand.Rand, kind message.Kind, count int, chans []channel.Ref) int {
	if chans == nil {
		chans = allChannels(s)
	}
	type pos struct {
		c channel.Ref
		i int
	}
	var candidates []pos
	for _, c := range chans {
		for i, m := range c.Snapshot() {
			if m.Kind == kind {
				candidates = append(candidates, pos{c, i})
			}
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if count > len(candidates) {
		count = len(candidates)
	}
	// Delete by channel, highest index first so indices stay valid. Map
	// iteration order varies, but per-channel deletions are independent, so
	// the outcome is deterministic.
	byChan := map[channel.Ref][]int{}
	for _, p := range candidates[:count] {
		byChan[p.c] = append(byChan[p.c], p.i)
	}
	for c, idxs := range byChan {
		msgs := c.Snapshot()
		keep := msgs[:0]
		for i, m := range msgs {
			drop := false
			for _, j := range idxs {
				if i == j {
					drop = true
					break
				}
			}
			if !drop {
				keep = append(keep, m)
			}
		}
		c.Replace(keep)
	}
	return count
}

// DuplicateTokens duplicates up to count in-flight messages of the given
// kind on the channels in chans (nil = all); the duplicate is appended
// right behind the original. It returns how many were duplicated.
// Modelling retransmission faults.
func DuplicateTokens(s *sim.Sim, rng *rand.Rand, kind message.Kind, count int, chans []channel.Ref) int {
	if chans == nil {
		chans = allChannels(s)
	}
	dup := 0
	for _, c := range chans {
		if dup >= count {
			break
		}
		msgs := c.Snapshot()
		var out []message.Message
		for _, m := range msgs {
			out = append(out, m)
			if m.Kind == kind && dup < count {
				out = append(out, m)
				dup++
			}
		}
		if len(out) != len(msgs) {
			c.Replace(out)
		}
	}
	return dup
}

// InjectTokens seeds count extra tokens of the given kind, each on a
// channel drawn uniformly from chans (nil = all).
func InjectTokens(s *sim.Sim, rng *rand.Rand, kind message.Kind, count int, chans []channel.Ref) {
	if chans == nil {
		chans = allChannels(s)
	}
	if len(chans) == 0 {
		return
	}
	for i := 0; i < count; i++ {
		chans[rng.Intn(len(chans))].Seed(message.Message{Kind: kind})
	}
}

// ReorderChannels shuffles the in-flight contents of count channels drawn
// uniformly from the reorderable ones (≥ 2 messages) in chans (nil = all);
// it returns how many channels were shuffled. Reordering models FIFO
// violations during the transient-fault window; it never changes a
// channel's population, so it stays within CMAX by construction.
func ReorderChannels(s *sim.Sim, rng *rand.Rand, count int, chans []channel.Ref) int {
	if chans == nil {
		chans = allChannels(s)
	}
	var candidates []channel.Ref
	for _, c := range chans {
		if c.Len() >= 2 {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		return 0
	}
	done := 0
	for ; done < count; done++ {
		c := candidates[rng.Intn(len(candidates))]
		msgs := c.Snapshot()
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		c.Replace(msgs)
	}
	return done
}

// ArbitraryConfiguration places the system in a fully arbitrary
// configuration: every process state random, every channel holding up to
// CMAX random messages. This is the universal quantifier of the convergence
// property.
func ArbitraryConfiguration(s *sim.Sim, rng *rand.Rand) {
	CorruptStates(s, rng, nil)
	GarbageChannels(s, rng, s.Cfg.CMAX, nil)
}
