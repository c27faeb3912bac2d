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
// determinism contract promises is kernel-independent. A positive
// stormPeriod injects a rotating fault storm every that many steps.
func diffRun(t *testing.T, tr *tree.Tree, cfg core.Config, seed int64,
	newSched func() sim.Scheduler, steps int64, stormPeriod int64, rescan bool) (trace []string, summary string) {
	t.Helper()
	drive := func(s *sim.Sim) { s.Run(steps) }
	if stormPeriod > 0 {
		drive = func(s *sim.Sim) {
			// The fault schedule is a pure function of the seed, so both
			// kernels inject identical storms at identical steps — including
			// the Replace/Seed mutations that exercise the channel-hook
			// resync path.
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
		}
	}
	return diffDrive(t, tr, cfg, seed, newSched(), drive, rescan)
}

// diffDrive is diffRun with the run loop supplied by the caller.
func diffDrive(t *testing.T, tr *tree.Tree, cfg core.Config, seed int64,
	sched sim.Scheduler, drive func(*sim.Sim), rescan bool) (trace []string, summary string) {
	t.Helper()
	s := sim.MustNew(tr, cfg, sim.Options{Seed: seed, Scheduler: sched, FullRescan: rescan})
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
	drive(s)
	summary = fmt.Sprintf("steps=%d delivered=%v timeouts=%d appacts=%d clock=%d census=%v",
		s.Steps, s.Delivered, s.Timeouts, s.AppActions, s.Now(), s.Census())
	return trace, summary
}

// sameRun fails the test unless the two kernels' traces and summaries agree.
func sameRun(t *testing.T, gotTrace, wantTrace []string, gotSum, wantSum string) {
	t.Helper()
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
}

// formSpy is the uniform scheduler, recording how often the enabled set it
// draws from crossed the action set's two thresholds: up past 32 members
// (the sorted array spills into the bitmaps) and, after that, down to 16 (it
// is extracted back).
type formSpy struct {
	sim.RandomScheduler
	big          bool
	spills, back int
}

func (f *formSpy) Next(s *sim.Sim, as *sim.ActionSet) sim.Action {
	switch n := as.Len(); {
	case !f.big && n > 32:
		f.big = true
		f.spills++
	case f.big && n <= 16:
		f.big = false
		f.back++
	}
	return f.RandomScheduler.Next(s, as)
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
						sameRun(t, gotTrace, wantTrace, gotSum, wantSum)
					})
				}
			}
		}
	}
	// Both forms of the action set and both crossings under the oracle. At
	// n=64: 64 applications enabled at the start spill the sorted array into
	// the bitmaps and their first requests drain it back within 50 steps; the
	// legacy storm's third firing (step 12 000) fills all 126 channels with
	// garbage, the protocol has cleaned that up by step ≈ 38 000, and the
	// seventh firing (44 000) does it again. At n=1024 the labels are far
	// from ring order, so the dense form decodes ordinals whose table indices
	// disagree with them — through the drain, and through the garbage the
	// third firing leaves in all 2046 channels.
	for _, tc := range []struct {
		n             int
		seed          int64
		steps         int64
		spills, backs int
	}{
		{64, 21, 50_000, 2, 2},
		{1024, 23, 16_000, 2, 1},
	} {
		t.Run(fmt.Sprintf("random/prufer-%d/legacy-storm", tc.n), func(t *testing.T) {
			tr := tree.Prufer(tc.n, rand.New(rand.NewSource(tc.seed)))
			cfg := core.Config{K: 2, L: 8, N: tr.N(), CMAX: 4, Features: core.Full()}
			sched, err := adversary.Compile(adversary.LegacyStorm(4_000), tc.steps)
			if err != nil {
				t.Fatal(err)
			}
			drive := func(s *sim.Sim) {
				x, err := adversary.NewExecutor(s, sched, 5)
				if err != nil {
					t.Fatal(err)
				}
				x.Run(tc.steps)
			}
			spy := &formSpy{}
			gotTrace, gotSum := diffDrive(t, tr, cfg, 5, spy, drive, false)
			wantTrace, wantSum := diffDrive(t, tr, cfg, 5, &formSpy{}, drive, true)
			sameRun(t, gotTrace, wantTrace, gotSum, wantSum)
			if spy.spills < tc.spills || spy.back < tc.backs {
				t.Errorf("the enabled set went past 32 members %d times and back to 16 %d times, want ≥ %d and ≥ %d",
					spy.spills, spy.back, tc.spills, tc.backs)
			}
			t.Logf("%d spills, %d back", spy.spills, spy.back)
		})
	}
}

// TestDifferentialModerateN repeats the kernel differential at n = 257 —
// big enough that the struct-of-arrays state, the flattened rset backing
// array, the count-hierarchy select and the shared message store all run past
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
				sameRun(t, gotTrace, wantTrace, gotSum, wantSum)
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
			sameRun(t, gotTrace, wantTrace, gotSum, wantSum)
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

// TestDifferentialWakeHeapGrowth runs the kernels side by side while more
// applications sleep at once than the wake heap's starting capacity: every
// leaf of a star takes one unit, holds it briefly and releases into a think
// longer than the run, so the sleepers pile up in the heap and append grows
// it mid-run. The scan kernel keeps no heap, so it is the oracle for every
// wake-up the grown heap delivers.
func TestDifferentialWakeHeapGrowth(t *testing.T) {
	tr := tree.Star(97)
	cfg := core.Config{K: 1, L: 4, N: tr.N(), CMAX: 4, Features: core.Full()}
	const steps, think = 30_000, 1 << 40
	run := func(rescan bool) (trace []string, summary string, asleep, heapCap, heapInit int) {
		drive := func(s *sim.Sim) {
			cycles := make([]*workload.Cycle, tr.N())
			for p := range cycles {
				cycles[p] = workload.Attach(s, p, workload.Fixed(1, 3, think, 0))
			}
			s.Run(steps)
			for _, c := range cycles {
				if c.Grants > 0 {
					asleep++
				}
			}
			heapCap, heapInit = sim.WakeHeapCap(s)
		}
		trace, summary = diffDrive(t, tr, cfg, 9, sim.NewRandomScheduler(), drive, rescan)
		return trace, summary, asleep, heapCap, heapInit
	}
	gotTrace, gotSum, asleep, heapCap, heapInit := run(false)
	wantTrace, wantSum, _, _, _ := run(true)
	sameRun(t, gotTrace, wantTrace, gotSum, wantSum)
	if asleep <= heapInit {
		t.Errorf("%d applications asleep at the end, want more than the heap's starting capacity %d", asleep, heapInit)
	}
	if heapCap <= heapInit {
		t.Errorf("wake heap capacity %d after the run, want it grown past %d", heapCap, heapInit)
	}
	t.Logf("%d of %d applications asleep; wake heap capacity %d (started at %d)", asleep, tr.N(), heapCap, heapInit)
}
