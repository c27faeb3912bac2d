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

// diffRun executes one seeded scenario under the given kernel and returns
// the full action trace plus the closing counters and census: everything the
// determinism contract promises is kernel-independent.
func diffRun(t *testing.T, tr *tree.Tree, cfg core.Config, seed int64,
	newSched func() sim.Scheduler, steps int64, stormPeriod int64, rescan bool) (trace []string, summary string) {
	t.Helper()
	s := sim.MustNew(tr, cfg, sim.Options{Seed: seed, Scheduler: newSched(), FullRescan: rescan})
	if !cfg.Features.Controller {
		s.SeedLegitimate()
	}
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%cfg.K, 2, 5, 0))
	}
	s.AddStepHook(func(s *sim.Sim) {
		line := s.LastAction.String()
		if s.LastAction.Kind == sim.ActDeliver {
			line += " " + s.LastMsg.Kind.String()
		}
		trace = append(trace, line)
	})
	if stormPeriod > 0 {
		// The fault schedule is a pure function of the seed, so both kernels
		// inject identical storms at identical steps — including the
		// Replace/Seed mutations that exercise the channel-hook resync path.
		rng := rand.New(rand.NewSource(seed + 77))
		next := stormPeriod
		for s.Steps < steps && s.Step() {
			if s.Steps >= next {
				next += stormPeriod
				switch (s.Steps / stormPeriod) % 5 {
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
				}
			}
		}
	} else {
		s.Run(steps)
	}
	summary = fmt.Sprintf("steps=%d delivered=%v timeouts=%d appacts=%d clock=%d census=%v",
		s.Steps, s.Delivered, s.Timeouts, s.AppActions, s.Now(), s.Census())
	return trace, summary
}

// TestDifferentialKernels is the determinism-contract proof: the incremental
// ActionSet kernel and the legacy full-rescan kernel must produce the exact
// same action sequence, counters and census on seeded runs — across all five
// scheduler implementations, with and without active fault injection.
func TestDifferentialKernels(t *testing.T) {
	scheds := map[string]func() sim.Scheduler{
		"random":     func() sim.Scheduler { return sim.NewRandomScheduler() },
		"roundrobin": func() sim.Scheduler { return sim.NewRoundRobinScheduler() },
		"slowprio":   func() sim.Scheduler { return sim.NewSlowPrioScheduler(2, 1.0/8) },
		"antitarget": func() sim.Scheduler { return sim.NewAntiTargetScheduler(1) },
		"script": func() sim.Scheduler {
			ss := sim.NewScriptScheduler([]sim.Pick{
				sim.Deliver(1, 0, message.Res),
				sim.Deliver(1, sim.AnyCh, 0),
				sim.AppAct(3),
				sim.Deliver(2, 0, message.Res),
			}, true)
			ss.Fallback = sim.NewRandomScheduler()
			return ss
		},
	}
	topologies := map[string]*tree.Tree{
		"paper":   tree.Paper(),
		"chain-9": tree.Chain(9),
		"star-9":  tree.Star(9),
	}
	for schedName, newSched := range scheds {
		for topoName, tr := range topologies {
			for _, storm := range []int64{0, 400} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/storm=%d/seed=%d", schedName, topoName, storm, seed)
					t.Run(name, func(t *testing.T) {
						cfg := core.Config{K: 2, L: 3, N: tr.N(), CMAX: 4, Features: core.Full()}
						steps := int64(3_000)
						gotTrace, gotSum := diffRun(t, tr, cfg, seed, newSched, steps, storm, false)
						wantTrace, wantSum := diffRun(t, tr, cfg, seed, newSched, steps, storm, true)
						if len(gotTrace) != len(wantTrace) {
							t.Fatalf("trace lengths differ: incremental %d, rescan %d",
								len(gotTrace), len(wantTrace))
						}
						for i := range wantTrace {
							if gotTrace[i] != wantTrace[i] {
								t.Fatalf("kernels diverged at step %d:\n  rescan:      %s\n  incremental: %s",
									i+1, wantTrace[i], gotTrace[i])
							}
						}
						if gotSum != wantSum {
							t.Errorf("summaries differ:\n  rescan:      %s\n  incremental: %s",
								wantSum, gotSum)
						}
					})
				}
			}
		}
	}
}

// TestDifferentialModerateN repeats the kernel differential at n = 257 —
// big enough that the struct-of-arrays state, the flattened rset backing
// array, the count-hierarchy select and the arena-backed rings all run past
// their small-n fast paths — across topologies, with and without fault
// storms (whose Replace/Seed mutations exercise the out-of-band resync).
func TestDifferentialModerateN(t *testing.T) {
	topologies := map[string]*tree.Tree{
		"chain-257":  tree.Chain(257),
		"star-257":   tree.Star(257),
		"prufer-257": tree.Prufer(257, rand.New(rand.NewSource(13))),
	}
	newSched := func() sim.Scheduler { return sim.NewRandomScheduler() }
	for topoName, tr := range topologies {
		for _, storm := range []int64{0, 1_500} {
			name := fmt.Sprintf("%s/storm=%d", topoName, storm)
			t.Run(name, func(t *testing.T) {
				cfg := core.Config{K: 2, L: 8, N: tr.N(), CMAX: 4, Features: core.Full()}
				steps := int64(12_000)
				gotTrace, gotSum := diffRun(t, tr, cfg, 3, newSched, steps, storm, false)
				wantTrace, wantSum := diffRun(t, tr, cfg, 3, newSched, steps, storm, true)
				if len(gotTrace) != len(wantTrace) {
					t.Fatalf("trace lengths differ: incremental %d, rescan %d",
						len(gotTrace), len(wantTrace))
				}
				for i := range wantTrace {
					if gotTrace[i] != wantTrace[i] {
						t.Fatalf("kernels diverged at step %d:\n  rescan:      %s\n  incremental: %s",
							i+1, wantTrace[i], gotTrace[i])
					}
				}
				if gotSum != wantSum {
					t.Errorf("summaries differ:\n  rescan:      %s\n  incremental: %s", wantSum, gotSum)
				}
			})
		}
	}
}

// TestDifferentialVariants repeats the differential check on the protocol
// rungs without the controller (seeded tokens, quiescence possible) and on
// the pusher-only rung, covering the timeout-disabled code paths.
func TestDifferentialVariants(t *testing.T) {
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
			newSched := func() sim.Scheduler { return sim.NewRandomScheduler() }
			gotTrace, gotSum := diffRun(t, tr, cfg, 11, newSched, 2_000, 0, false)
			wantTrace, wantSum := diffRun(t, tr, cfg, 11, newSched, 2_000, 0, true)
			if len(gotTrace) != len(wantTrace) {
				t.Fatalf("trace lengths differ: incremental %d, rescan %d", len(gotTrace), len(wantTrace))
			}
			for i := range wantTrace {
				if gotTrace[i] != wantTrace[i] {
					t.Fatalf("kernels diverged at step %d:\n  rescan:      %s\n  incremental: %s",
						i+1, wantTrace[i], gotTrace[i])
				}
			}
			if gotSum != wantSum {
				t.Errorf("summaries differ:\n  rescan:      %s\n  incremental: %s", wantSum, gotSum)
			}
		})
	}
}

// TestDifferentialTimeoutFastForward pins the quiescent fast-forward path:
// an empty full-protocol system must bootstrap identically under both
// kernels, including the clock jump and the forced timeout.
func TestDifferentialTimeoutFastForward(t *testing.T) {
	run := func(rescan bool) string {
		tr := tree.Chain(4)
		s := sim.MustNew(tr, fullCfg(1, 2), sim.Options{Seed: 5, TimeoutTicks: 300, FullRescan: rescan})
		var lines []string
		s.AddStepHook(func(s *sim.Sim) {
			lines = append(lines, fmt.Sprintf("%d@%d %s", s.Steps, s.Now(), s.LastAction))
		})
		s.Run(500)
		return fmt.Sprint(lines, s.Timeouts, s.Delivered)
	}
	if inc, scan := run(false), run(true); inc != scan {
		t.Errorf("fast-forward paths diverged:\nincremental: %.300s\nrescan:      %.300s", inc, scan)
	}
}
