package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kofl/internal/adversary"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// TestCensusDifferential is the equivalence proof of the incremental census
// kernel: on every step of seeded runs — across schedulers, topologies and
// fault storms — the maintained census must equal the snapshot scan exactly.
// Faults are injected mid-run through the supported surfaces (channel API +
// RestoreNode), so this also proves the fault paths keep the census in sync
// without any explicit resync.
func TestCensusDifferential(t *testing.T) {
	scheds := map[string]func() sim.Scheduler{
		"random":     func() sim.Scheduler { return sim.NewRandomScheduler() },
		"roundrobin": func() sim.Scheduler { return sim.NewRoundRobinScheduler() },
		"antitarget": func() sim.Scheduler { return sim.NewAntiTargetScheduler(1) },
	}
	topologies := map[string]*tree.Tree{
		"paper":   tree.Paper(),
		"chain-9": tree.Chain(9),
		"star-9":  tree.Star(9),
		"broom":   tree.Broom(5, 6),
	}
	for schedName, newSched := range scheds {
		for topoName, tr := range topologies {
			for _, storm := range []int64{0, 300} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/storm=%d/seed=%d", schedName, topoName, storm, seed)
					t.Run(name, func(t *testing.T) {
						cfg := core.Config{K: 2, L: 3, N: tr.N(), CMAX: 4, Features: core.Full()}
						s := sim.MustNew(tr, cfg, sim.Options{Seed: seed, Scheduler: newSched()})
						for p := 0; p < tr.N(); p++ {
							workload.Attach(s, p, workload.Fixed(1+p%cfg.K, 2, 5, 0))
						}
						s.AddStepHook(func(s *sim.Sim) {
							if got, want := s.Census(), s.CensusScan(); got != want {
								t.Fatalf("step %d: maintained census %+v, scan %+v", s.Steps, got, want)
							}
						})
						if storm == 0 {
							s.Run(3_000)
							return
						}
						rng := rand.New(rand.NewSource(seed + 77))
						next := storm
						for s.Steps < 3_000 && s.Step() {
							if s.Steps >= next {
								next += storm
								switch (s.Steps / storm) % 6 {
								case 0:
									adversary.DropTokens(s, rng, message.Res, 1+rng.Intn(2), nil)
								case 1:
									adversary.DuplicateTokens(s, rng, message.Res, 1+rng.Intn(2), nil)
								case 2:
									adversary.CorruptStates(s, rng, []int{rng.Intn(tr.N())})
								case 3:
									adversary.GarbageChannels(s, rng, 2, nil)
								case 4:
									adversary.InjectTokens(s, rng, message.Push, 1, nil)
								case 5:
									adversary.ArbitraryConfiguration(s, rng)
								}
								if got, want := s.Census(), s.CensusScan(); got != want {
									t.Fatalf("after storm at step %d: maintained %+v, scan %+v", s.Steps, got, want)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestCensusDifferentialVariants repeats the per-step census comparison on
// the protocol rungs without the controller, covering seeded-token starts
// and quiescence.
func TestCensusDifferentialVariants(t *testing.T) {
	for _, variant := range []struct {
		name string
		feat core.Features
	}{
		{"naive", core.Naive()},
		{"pusher", core.PusherOnly()},
		{"nonstab", core.NonStabilizing()},
	} {
		t.Run(variant.name, func(t *testing.T) {
			tr := tree.Paper()
			cfg := core.Config{K: 2, L: 3, N: tr.N(), CMAX: 4, Features: variant.feat}
			s := sim.MustNew(tr, cfg, sim.Options{Seed: 11})
			s.SeedLegitimate()
			if got, want := s.Census(), s.CensusScan(); got != want {
				t.Fatalf("after SeedLegitimate: maintained %+v, scan %+v", got, want)
			}
			for p := 0; p < tr.N(); p++ {
				workload.Attach(s, p, workload.Fixed(1+p%cfg.K, 2, 5, 0))
			}
			s.AddStepHook(func(s *sim.Sim) {
				if got, want := s.Census(), s.CensusScan(); got != want {
					t.Fatalf("step %d: maintained census %+v, scan %+v", s.Steps, got, want)
				}
			})
			s.Run(2_000)
		})
	}
}

// TestCensusScanOracleOption pins the Options.ScanCensus contract: a sim
// built with it answers Census() by recomputation, and a twin run under each
// mode reports identical censuses at every step (the monitor-level analogue
// lives in internal/checker).
func TestCensusScanOracleOption(t *testing.T) {
	run := func(scan bool) []sim.Census {
		tr := tree.Star(9)
		s := sim.MustNew(tr, fullCfgExt(2, 3, tr.N()), sim.Options{Seed: 4, ScanCensus: scan})
		for p := 0; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1+p%2, 2, 5, 0))
		}
		var got []sim.Census
		s.AddStepHook(func(s *sim.Sim) { got = append(got, s.Census()) })
		s.Run(2_000)
		return got
	}
	incr, scan := run(false), run(true)
	if len(incr) != len(scan) {
		t.Fatalf("step counts differ: incremental %d, scan %d", len(incr), len(scan))
	}
	for i := range scan {
		if incr[i] != scan[i] {
			t.Fatalf("census diverged at step %d:\n  scan:        %+v\n  incremental: %+v", i+1, scan[i], incr[i])
		}
	}
}

// fullCfgExt builds a full-protocol config for external (sim_test) tests.
func fullCfgExt(k, l, n int) core.Config {
	return core.Config{K: k, L: l, N: n, CMAX: 4, Features: core.Full()}
}

// TestCensusOverKCounter pins the OverK violation counter against the scan
// through state corruption and churn. Reserved() is clamped to k by both the
// receive guard and Snapshot restoration, so through the supported surfaces
// OverK stays 0 — the counter is the O(1) tripwire that lets monitors skip
// the per-step node scan entirely, and it must agree with the oracle at
// every observation point.
func TestCensusOverKCounter(t *testing.T) {
	tr := tree.Chain(3)
	s := sim.MustNew(tr, fullCfgExt(1, 3, tr.N()), sim.Options{Seed: 2})
	s.RestoreNode(1, core.Snapshot{State: core.In, Need: 1, RSet: []int{0, 0}, Prio: core.NoPrio})
	if got, want := s.Census(), s.CensusScan(); got != want {
		t.Fatalf("after RestoreNode: maintained %+v, scan %+v", got, want)
	}
	s.AddStepHook(func(s *sim.Sim) {
		if got, want := s.Census().OverK, s.CensusScan().OverK; got != want {
			t.Fatalf("step %d: OverK maintained %d, scan %d", s.Steps, got, want)
		}
	})
	s.Run(500)
	if got, want := s.Census(), s.CensusScan(); got != want {
		t.Fatalf("after run: maintained %+v, scan %+v", got, want)
	}
}

// FuzzCensusDelta drives an arbitrary interleaving of protocol steps,
// out-of-band channel mutations (seed, pop, replace), state corruption
// through RestoreNode, Handle requests and full resyncs, asserting after
// every operation that the maintained census equals the snapshot scan. It is
// the census analogue of FuzzActionSet.
func FuzzCensusDelta(f *testing.F) {
	f.Add([]byte{0x00, 0x51, 0xa2, 0xf3})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Add([]byte{0x07, 0x27, 0x47, 0x67, 0x87, 0xa7, 0xc7, 0xe7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // bound the scan cost per input
		}
		tr := tree.Paper()
		cfg := core.Config{K: 2, L: 3, N: tr.N(), CMAX: 4, Features: core.Full()}
		s := sim.MustNew(tr, cfg, sim.Options{Seed: 1, TimeoutTicks: 40})
		for p := 0; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1+p%2, 2, 5, 0))
		}
		rng := rand.New(rand.NewSource(2))
		for _, b := range data {
			op, arg := b>>5, int(b&0x1f)
			p := arg % tr.N()
			ch := (arg / tr.N()) % tr.Degree(p)
			switch op {
			case 0: // seed one message (garbage kinds included)
				s.Seed(p, ch, message.Random(rng, 11, 3))
			case 1: // pop out-of-band (message hook must fire)
				if c := s.In(p, ch); c.Len() > 0 {
					c.Pop()
				}
			case 2: // replace with arg%3 random messages
				var msgs []message.Message
				for j := 0; j < arg%3; j++ {
					msgs = append(msgs, message.Random(rng, 11, 3))
				}
				s.In(p, ch).Replace(msgs)
			case 3: // corrupt one process state through the tracked surface
				s.RestoreNode(p, core.RandomSnapshot(cfg, tr.Degree(p), rng))
			case 4: // full resync must be idempotent on a synced census
				s.ResyncActions()
			case 5: // drive a request if the interface allows one
				if n := s.Node(p); n.State() == core.Out {
					_ = s.Handle(p).Request(1 + arg%cfg.K)
				}
			default: // protocol step
				s.Step()
			}
			if got, want := s.Census(), s.CensusScan(); got != want {
				t.Fatalf("op %d arg %d: maintained census %+v, scan %+v", op, arg, got, want)
			}
		}
	})
}
