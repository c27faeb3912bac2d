package adversary_test

import (
	"math/rand"
	"testing"

	"kofl/internal/adversary"
	"kofl/internal/channel"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

func newSim(t *testing.T, cmax int) *sim.Sim {
	t.Helper()
	cfg := core.Config{K: 2, L: 3, CMAX: cmax, Features: core.Full()}
	return sim.MustNew(tree.Paper(), cfg, sim.Options{Seed: 1})
}

func TestGarbageChannelsRespectsCMAX(t *testing.T) {
	const cmax = 3
	s := newSim(t, cmax)
	adversary.GarbageChannels(s, rand.New(rand.NewSource(2)), 100, nil) // asks for more than CMAX
	total := 0
	s.Channels(func(c channel.Ref) {
		if c.Len() > cmax {
			t.Errorf("channel %v holds %d > CMAX=%d", c, c.Len(), cmax)
		}
		total += c.Len()
	})
	if total == 0 {
		t.Error("no garbage injected at all")
	}
}

func TestGarbageChannelsZeroAndNegative(t *testing.T) {
	s := newSim(t, 4)
	adversary.GarbageChannels(s, rand.New(rand.NewSource(3)), -5, nil)
	s.Channels(func(c channel.Ref) {
		if c.Len() != 0 {
			t.Errorf("negative budget injected garbage: %v", c)
		}
	})
}

func TestGarbageCtrlFlagsStayInDomain(t *testing.T) {
	s := newSim(t, 6)
	adversary.GarbageChannels(s, rand.New(rand.NewSource(4)), 6, nil)
	mod := s.Cfg.CounterMod()
	s.Channels(func(c channel.Ref) {
		for _, m := range c.Snapshot() {
			if m.Kind == message.Ctrl && (m.C < 0 || m.C >= mod) {
				t.Errorf("garbage ctrl flag %d outside [0,%d)", m.C, mod)
			}
		}
	})
}

func TestRandomSnapshotDomains(t *testing.T) {
	cfg := core.Config{K: 3, L: 5, N: 8, CMAX: 4, Features: core.Full()}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		deg := 1 + rng.Intn(5)
		s := core.RandomSnapshot(cfg, deg, rng)
		if s.Need < 0 || s.Need > cfg.K {
			t.Fatalf("Need %d", s.Need)
		}
		if s.MyC < 0 || s.MyC >= cfg.CounterMod() {
			t.Fatalf("MyC %d", s.MyC)
		}
		if s.Succ < 0 || s.Succ >= deg {
			t.Fatalf("Succ %d for deg %d", s.Succ, deg)
		}
		if len(s.RSet) > cfg.K {
			t.Fatalf("|RSet| %d", len(s.RSet))
		}
		if s.Prio < core.NoPrio || s.Prio >= deg {
			t.Fatalf("Prio %d", s.Prio)
		}
		if s.SToken < 0 || s.SToken > cfg.L+1 || s.SPrio > 2 || s.SPush > 2 {
			t.Fatalf("root counters out of domain: %+v", s)
		}
	}
}

func TestCorruptStatesTargeted(t *testing.T) {
	s := newSim(t, 4)
	before := make([]core.Snapshot, s.Tree.N())
	for p := range s.Tree.N() {
		n := s.Node(p)
		before[p] = n.Snapshot()
	}
	adversary.CorruptStates(s, rand.New(rand.NewSource(6)), []int{2, 3})
	// Only processes 2 and 3 may differ.
	for p := range s.Tree.N() {
		n := s.Node(p)
		after := n.Snapshot()
		same := after.State == before[p].State && after.MyC == before[p].MyC &&
			after.Succ == before[p].Succ && after.Need == before[p].Need
		if p != 2 && p != 3 && !same {
			t.Errorf("process %d corrupted but was not targeted", p)
		}
	}
}

func TestDropTokensCounts(t *testing.T) {
	s := newSim(t, 4)
	s.Seed(0, 0, message.NewRes(), message.NewRes(), message.NewPush())
	s.Seed(0, 1, message.NewRes())
	rng := rand.New(rand.NewSource(7))
	if got := adversary.DropTokens(s, rng, message.Res, 2, nil); got != 2 {
		t.Fatalf("dropped %d, want 2", got)
	}
	if c := s.Census(); c.FreeRes != 1 || c.FreePush != 1 {
		t.Errorf("census after drop = %v", c)
	}
	// Dropping more than exist removes what's there.
	if got := adversary.DropTokens(s, rng, message.Res, 10, nil); got != 1 {
		t.Errorf("dropped %d, want the remaining 1", got)
	}
	if got := adversary.DropTokens(s, rng, message.Res, 5, nil); got != 0 {
		t.Errorf("dropped %d from empty, want 0", got)
	}
}

func TestDropPreservesOtherMessages(t *testing.T) {
	s := newSim(t, 4)
	s.Seed(0, 0, message.NewPush(), message.NewRes(), message.NewPrio())
	adversary.DropTokens(s, rand.New(rand.NewSource(8)), message.Res, 1, nil)
	snap := s.Out(0, 0).Snapshot()
	if len(snap) != 2 || snap[0].Kind != message.Push || snap[1].Kind != message.Prio {
		t.Errorf("surviving messages = %v, want Push then Prio in order", snap)
	}
}

func TestDuplicateTokens(t *testing.T) {
	s := newSim(t, 4)
	s.Seed(0, 0, message.NewRes(), message.NewPush())
	rng := rand.New(rand.NewSource(9))
	if got := adversary.DuplicateTokens(s, rng, message.Res, 2, nil); got != 1 {
		t.Fatalf("duplicated %d, want 1 (only one Res exists)", got)
	}
	if c := s.Census(); c.FreeRes != 2 {
		t.Errorf("census = %v, want 2 resource tokens", c)
	}
	// The duplicate sits right behind the original.
	snap := s.Out(0, 0).Snapshot()
	if snap[0].Kind != message.Res || snap[1].Kind != message.Res || snap[2].Kind != message.Push {
		t.Errorf("channel after dup = %v", snap)
	}
}

func TestInjectTokens(t *testing.T) {
	s := newSim(t, 4)
	adversary.InjectTokens(s, rand.New(rand.NewSource(10)), message.Push, 5, nil)
	if c := s.Census(); c.FreePush != 5 {
		t.Errorf("census = %v, want 5 pushers", c)
	}
}

func TestArbitraryConfigurationTouchesEverything(t *testing.T) {
	s := newSim(t, 4)
	rng := rand.New(rand.NewSource(11))
	adversary.ArbitraryConfiguration(s, rng)
	// At least one process should be off the zero state and at least one
	// channel non-empty (overwhelmingly likely under this seed).
	stateTouched := false
	for p := range s.Tree.N() {
		n := s.Node(p)
		sn := n.Snapshot()
		if sn.State != core.Out || sn.MyC != 0 || len(sn.RSet) > 0 {
			stateTouched = true
		}
	}
	garbage := 0
	s.Channels(func(c channel.Ref) { garbage += c.Len() })
	if !stateTouched || garbage == 0 {
		t.Errorf("arbitrary configuration too tame: stateTouched=%v garbage=%d", stateTouched, garbage)
	}
}

func TestFaultsAreDeterministic(t *testing.T) {
	census := func() sim.Census {
		s := newSim(t, 4)
		adversary.ArbitraryConfiguration(s, rand.New(rand.NewSource(12)))
		return s.Census()
	}
	if census() != census() {
		t.Error("same fault seed produced different configurations")
	}
}

// TestCensusMaintainedUnderEveryFaultKind injects every injector this
// package exports into a mid-flight run and asserts, after each injection,
// that the simulator's incrementally maintained census still equals the
// snapshot oracle — both immediately (the channel-API and RestoreNode
// surfaces need no resync) and after an explicit ResyncActions (which must
// be a no-op on an already-synced census). It then runs on and re-checks, so
// a delta the injection corrupted cannot hide behind a later rebuild.
func TestCensusMaintainedUnderEveryFaultKind(t *testing.T) {
	kinds := []struct {
		name   string
		inject func(s *sim.Sim, rng *rand.Rand)
	}{
		{"garbage", func(s *sim.Sim, rng *rand.Rand) { adversary.GarbageChannels(s, rng, 3, nil) }},
		{"force-garbage", func(s *sim.Sim, rng *rand.Rand) { adversary.ForceGarbageChannels(s, rng, 6, nil) }},
		{"corrupt-states", func(s *sim.Sim, rng *rand.Rand) { adversary.CorruptStates(s, rng, nil) }},
		{"arbitrary", func(s *sim.Sim, rng *rand.Rand) { adversary.ArbitraryConfiguration(s, rng) }},
		{"drop-res", func(s *sim.Sim, rng *rand.Rand) { adversary.DropTokens(s, rng, message.Res, 2, nil) }},
		{"drop-ctrl", func(s *sim.Sim, rng *rand.Rand) { adversary.DropTokens(s, rng, message.Ctrl, 1, nil) }},
		{"dup-res", func(s *sim.Sim, rng *rand.Rand) { adversary.DuplicateTokens(s, rng, message.Res, 2, nil) }},
		{"dup-prio", func(s *sim.Sim, rng *rand.Rand) { adversary.DuplicateTokens(s, rng, message.Prio, 1, nil) }},
		{"inject-push", func(s *sim.Sim, rng *rand.Rand) { adversary.InjectTokens(s, rng, message.Push, 2, nil) }},
		{"inject-prio", func(s *sim.Sim, rng *rand.Rand) { adversary.InjectTokens(s, rng, message.Prio, 1, nil) }},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			s := newSim(t, 4)
			rng := rand.New(rand.NewSource(31))
			s.Run(2_000) // mid-flight: tokens circulating, controller active
			k.inject(s, rng)
			if got, want := s.Census(), s.CensusScan(); got != want {
				t.Fatalf("census stale right after injection: maintained %+v, scan %+v", got, want)
			}
			s.ResyncActions()
			if got, want := s.Census(), s.CensusScan(); got != want {
				t.Fatalf("census wrong after resync: maintained %+v, scan %+v", got, want)
			}
			s.Run(1_000)
			if got, want := s.Census(), s.CensusScan(); got != want {
				t.Fatalf("census drifted after post-fault run: maintained %+v, scan %+v", got, want)
			}
		})
	}
}
