package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kofl/internal/adversary"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// The paper-fidelity scenarios: each test reproduces one figure, lemma or
// theorem of the paper (or an erratum found while reproducing one) on a
// seeded simulation, so every assertion holds for one exact run.

const paperSeed = 7

// fig2Requests is the request vector of Figure 2 (ℓ=5, k=3): a wants 3
// units, b, c and d want 2 each.
var fig2Requests = []struct {
	name string
	need int
}{{"a", 3}, {"b", 2}, {"c", 2}, {"d", 2}}

// runFigure2 plays Figure 2's scenario on the paper tree and reports whether
// the run went quiescent without a controller to restart it, how many of the
// four requesters entered, and their final reservations as "a/b/c/d".
func runFigure2(t *testing.T, feat core.Features, literalGuard bool) (deadlocked bool, satisfied int, rsets string) {
	t.Helper()
	tr := tree.Paper()
	cfg := core.Config{K: 3, L: 5, CMAX: 4, Features: feat}
	cfg.Errata.LiteralPusherGuard = literalGuard
	s := sim.MustNew(tr, cfg, sim.Options{Seed: paperSeed})
	// The five resource tokens are placed so that each requester reserves
	// exactly the figure's right-hand (deadlock) configuration: two heading
	// to a, one each to b, c and d.
	r, a := tree.PaperID("r"), tree.PaperID("a")
	s.Seed(r, tr.ChannelTo(r, a), message.NewRes(), message.NewRes())
	s.Seed(a, tr.ChannelTo(a, tree.PaperID("b")), message.NewRes())
	s.Seed(a, tr.ChannelTo(a, tree.PaperID("c")), message.NewRes())
	s.Seed(r, tr.ChannelTo(r, tree.PaperID("d")), message.NewRes())
	if feat.Pusher && !feat.Controller {
		s.Seed(r, 0, message.NewPush())
	}
	grants := checker.NewRun(s)
	// The figure starts with the requests already issued: release-only
	// applications plus external requests, so the scenario does not depend
	// on the schedule.
	for _, rq := range fig2Requests {
		p := tree.PaperID(rq.name)
		workload.Attach(s, p, workload.Fixed(rq.need, 10, 0, -1))
		if err := s.Handle(p).Request(rq.need); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(400_000)
	var sets []string
	for _, rq := range fig2Requests {
		p := tree.PaperID(rq.name)
		if grants.Enters[p] > 0 {
			satisfied++
		}
		n := s.Node(p)
		sets = append(sets, fmt.Sprint(n.Reserved()))
	}
	return s.Quiescent() && !feat.Controller, satisfied, strings.Join(sets, "/")
}

// TestFigure2Deadlock reproduces Figure 2 and erratum E1. The naive protocol
// deadlocks with the figure's reservations; the pusher breaks the deadlock
// under the prose guard (release only if Prio = ⊥) but not under the
// pseudocode's literal one (Prio ≠ ⊥), which inverts the priority shield.
func TestFigure2Deadlock(t *testing.T) {
	for _, tc := range []struct {
		variant    string
		feat       core.Features
		literal    bool
		deadlocked bool
		satisfied  int
		rsets      string // "" = not asserted
	}{
		{"naive", core.Naive(), false, true, 0, "2/1/1/1"},
		{"naive", core.Naive(), true, true, 0, "2/1/1/1"},
		{"pusher", core.PusherOnly(), false, false, 4, ""},
		{"pusher", core.PusherOnly(), true, false, 0, "2/1/1/1"},
		{"full", core.Full(), false, false, 4, ""},
		{"full", core.Full(), true, false, 4, ""},
	} {
		guard := "prose"
		if tc.literal {
			guard = "literal"
		}
		t.Run(tc.variant+"/"+guard, func(t *testing.T) {
			deadlocked, satisfied, rsets := runFigure2(t, tc.feat, tc.literal)
			if deadlocked != tc.deadlocked {
				t.Errorf("deadlocked = %v, want %v", deadlocked, tc.deadlocked)
			}
			if satisfied != tc.satisfied {
				t.Errorf("satisfied %d/4, want %d/4", satisfied, tc.satisfied)
			}
			if tc.rsets != "" && rsets != tc.rsets {
				t.Errorf("final RSets a/b/c/d = %s, want the figure's %s", rsets, tc.rsets)
			}
		})
	}
}

// fig3Script is the 12-step cycle derived from Figure 3's configurations
// (i)→(viii): it returns the system to configuration (i) exactly, so looping
// it starves process a forever while r and b keep entering their critical
// sections. Star ids: r=0, a=1, b=2.
func fig3Script() []sim.Pick {
	const r, a, b = 0, 1, 2
	return []sim.Pick{
		sim.Deliver(a, 0, message.Res),  // (i)   a reserves its 1st token
		sim.Deliver(b, 0, message.Res),  //       b reserves and enters CS
		sim.Deliver(r, 0, message.Res),  // (ii)  r reserves and enters CS
		sim.Deliver(r, 0, message.Push), // (iii) pusher passes r (in CS)
		sim.Deliver(b, 0, message.Push), // (iv)  pusher passes b (in CS)
		sim.Deliver(r, 1, message.Push), // (v)   pusher forwarded to a
		sim.AppAct(r),                   //       r leaves its CS
		sim.AppAct(b),                   //       b leaves its CS
		sim.Deliver(a, 0, message.Push), // (vi)  pusher evicts a's token
		sim.Deliver(r, 1, message.Res),  // (vii) r forwards b's token to a
		sim.AppAct(r),                   // (viii) r requests again
		sim.AppAct(b),                   //        b requests again
	}
}

// fig3Setup builds the 3-process star of Figure 3 (2-out-of-3 exclusion)
// in configuration (i) and returns the applications of r, a and b.
func fig3Setup(feat core.Features, sched sim.Scheduler) (*sim.Sim, [3]*workload.Cycle) {
	tr := tree.Star(3)
	tr.SetName(0, "r")
	tr.SetName(1, "a")
	tr.SetName(2, "b")
	s := sim.MustNew(tr, core.Config{K: 2, L: 3, CMAX: 4, Features: feat},
		sim.Options{Seed: paperSeed, Scheduler: sched})
	// A token incoming at every process; the pusher in a→r behind a's
	// released token.
	s.Seed(0, 0, message.NewRes())                    // r→a
	s.Seed(0, 1, message.NewRes())                    // r→b
	s.Seed(1, 0, message.NewRes(), message.NewPush()) // a→r
	return s, [3]*workload.Cycle{
		workload.Attach(s, 0, workload.Fixed(1, 0, 0, 0)),
		workload.Attach(s, 1, workload.Fixed(2, 0, 0, 1)),
		workload.Attach(s, 2, workload.Fixed(1, 0, 0, 0)),
	}
}

// TestFigure3Livelock reproduces Figure 3: under the scripted schedule the
// pusher-only protocol never serves a's 2-unit request, and the full
// protocol's priority token serves it even under the rule-based anti-a
// adversary.
func TestFigure3Livelock(t *testing.T) {
	script := fig3Script()
	ss := sim.NewScriptScheduler(script, true)
	ss.Prefix = []sim.Pick{sim.AppAct(0), sim.AppAct(1), sim.AppAct(2)}
	s, apps := fig3Setup(core.PusherOnly(), ss)
	s.Run(int64(3 + 1000*len(script)))
	if ss.Broken() {
		t.Fatal("the scripted schedule broke: Figure 3's livelock cycle was not reproduced")
	}
	if apps[1].Enters != 0 {
		t.Errorf("a entered %d times under the Figure 3 script, want 0", apps[1].Enters)
	}

	s, apps = fig3Setup(core.Full(), sim.NewAntiTargetScheduler(1))
	s.Run(50_000)
	if apps[1].Enters == 0 {
		t.Error("the full protocol starved a under the anti-a adversary")
	}
}

// TestLemma14Liveness reproduces Lemma 14's (k,ℓ)-liveness: while a set of
// processes holds α units in critical sections forever, every other
// requester asking for ≤ ℓ−α units is still served.
func TestLemma14Liveness(t *testing.T) {
	const forever = int64(1) << 60
	for _, sc := range []struct {
		name    string
		holders []string // paper-tree names, each holding `units` forever
		units   int
		need    int
		reqs    []string
	}{
		{"one holder", []string{"b"}, 2, 3, []string{"a", "c", "d"}},
		{"two holders", []string{"b", "e"}, 2, 1, []string{"a", "c", "g"}},
		{"heavy holder", []string{"a"}, 3, 2, []string{"b", "c", "d", "e"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			tr := tree.Paper()
			s := sim.MustNew(tr, core.Config{K: 3, L: 5, CMAX: 2, Features: core.Full()},
				sim.Options{Seed: paperSeed})
			grants := checker.NewRun(s)
			for _, name := range sc.holders {
				workload.Attach(s, tree.PaperID(name), workload.Fixed(sc.units, forever, 0, 1))
			}
			for _, name := range sc.reqs {
				workload.Attach(s, tree.PaperID(name), workload.Fixed(sc.need, 2, 8, 0))
			}
			s.Run(400_000)
			for _, name := range sc.reqs {
				if grants.Enters[tree.PaperID(name)] == 0 {
					t.Errorf("requester %s (need %d) never served", name, sc.need)
				}
			}
			for _, name := range sc.holders {
				if n := s.Node(tree.PaperID(name)); n.State() != core.In {
					t.Errorf("perpetual holder %s left its critical section (state %v)", name, n.State())
				}
			}
		})
	}
}

// TestVariantLadder (A3) walks §3's construction ladder under one saturated
// workload and the anti-a adversary: the naive rung deadlocks, and each
// later rung neither deadlocks nor starves anyone.
func TestVariantLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("long ablation")
	}
	a := tree.PaperID("a")
	for _, v := range []struct {
		name      string
		feat      core.Features
		deadlocks bool
	}{
		{"naive", core.Naive(), true},
		{"pusher", core.PusherOnly(), false},
		{"pusher+prio", core.NonStabilizing(), false},
		{"full", core.Full(), false},
	} {
		t.Run(v.name, func(t *testing.T) {
			tr := tree.Paper()
			s := sim.MustNew(tr, core.Config{K: 3, L: 5, CMAX: 4, Features: v.feat},
				sim.Options{Seed: paperSeed, Scheduler: sim.NewAntiTargetScheduler(a)})
			if !v.feat.Controller {
				s.SeedLegitimate()
			}
			grants := checker.NewRun(s)
			// Every process needs ≥ 2 units so that partial reservations can
			// cover all ℓ tokens — the precondition of the naive deadlock.
			for p := 0; p < tr.N(); p++ {
				need := 2
				if p == a {
					need = 3
				}
				workload.Attach(s, p, workload.Fixed(need, 2, 4, 0))
			}
			s.Run(300_000)
			if deadlocked := s.Quiescent() && !v.feat.Controller; deadlocked != v.deadlocks {
				t.Fatalf("deadlocked = %v, want %v", deadlocked, v.deadlocks)
			}
			if v.deadlocks {
				return
			}
			for p, g := range grants.Enters {
				if g == 0 {
					t.Errorf("process %s starved", tr.Name(p))
				}
			}
		})
	}
}

// TestTheorem2WaitingBound (T2, T2b): once stabilized, a request waits at
// most ℓ(2n−3)² critical-section entries by other processes. Saturating
// workloads, with one heavy process asking for k units, maximize contention;
// the measured worst case is positive, stays under the bound and does not
// shrink as the chain grows. The last case is the Theorem 2 adversary: the
// priority token crawls (one delivery in ~64) while a k=ℓ request contends
// with everyone.
func TestTheorem2WaitingBound(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	saturated := func(tr *tree.Tree, k, l int, sched sim.Scheduler, steps int64) *checker.Run {
		s := sim.MustNew(tr, core.Config{K: k, L: l, CMAX: 2, Features: core.Full()},
			sim.Options{Seed: paperSeed, Scheduler: sched})
		mon := checker.NewCensusMonitor(s)
		// Warm up with no requests until the census stabilizes, so Theorem
		// 2's "once stabilized" premise holds.
		s.RunUntil(4*s.TimeoutTicks()+200_000, func() bool {
			_, ok := mon.ConvergedAt()
			return ok
		})
		wait := checker.NewRun(s)
		for p := 0; p < tr.N(); p++ {
			need := 1
			if p == tr.N()-1 {
				need = k // the heavy process
			}
			workload.Attach(s, p, workload.Fixed(need, 0, 0, 0))
		}
		s.Run(steps)
		return wait
	}
	t.Run("random-schedule", func(t *testing.T) {
		chainMax := int64(-1) // chain, k=1: the previous n's worst wait
		for _, n := range []int{4, 8} {
			for _, kl := range []struct{ k, l int }{{1, 1}, {2, 3}} {
				for _, chain := range []bool{true, false} {
					tr, name := tree.Star(n), fmt.Sprintf("star-%d", n)
					if chain {
						tr, name = tree.Chain(n), fmt.Sprintf("chain-%d", n)
					}
					got, bound := saturated(tr, kl.k, kl.l, nil, 60_000).Max(), checker.Bound(n, kl.l)
					if got <= 0 || got > bound {
						t.Errorf("%s k=%d ℓ=%d: worst wait %d, want in (0, %d]", name, kl.k, kl.l, got, bound)
					}
					if chain && kl.k == 1 {
						if got < chainMax {
							t.Errorf("%s k=1: worst wait %d shrank from %d on the shorter chain", name, got, chainMax)
						}
						chainMax = got
					}
				}
			}
		}
	})

	t.Run("slowed-priority", func(t *testing.T) {
		tr := tree.Star(4)
		target := tr.N() - 1
		w := saturated(tr, 3, 3, sim.NewSlowPrioScheduler(target, 1.0/64), 200_000)
		if got, bound := w.MaxOf(target), checker.Bound(tr.N(), 3); got > bound {
			t.Errorf("star-4 k=ℓ=3, slowed priority token: target waited %d, over the bound %d", got, bound)
		}
	})
}

// TestGarbageBeyondCMAX (A4) probes the paper's channel assumption: with
// more garbage per channel than CMAX the bounded-counter proof no longer
// applies, and the unbounded counters of the conclusion (after Katz–Perry)
// need no such assumption. Random garbage rarely realizes the worst case,
// so both still converge on every trial here.
func TestGarbageBeyondCMAX(t *testing.T) {
	if testing.Short() {
		t.Skip("long ablation")
	}
	const cmax, trials = 2, 4
	for _, unbounded := range []bool{false, true} {
		for _, garbage := range []int{cmax, 8 * cmax} {
			for trial := int64(0); trial < trials; trial++ {
				tr := tree.Paper()
				cfg := core.Config{K: 2, L: 3, CMAX: cmax, Features: core.Full(), UnboundedCounters: unbounded}
				s := sim.MustNew(tr, cfg, sim.Options{Seed: paperSeed + trial})
				rng := rand.New(rand.NewSource(paperSeed + 100 + trial))
				adversary.CorruptStates(s, rng, nil)
				adversary.ForceGarbageChannels(s, rng, garbage, nil)
				mon := checker.NewCensusMonitor(s)
				for p := 0; p < tr.N(); p++ {
					workload.Attach(s, p, workload.Fixed(1+p%2, 3, 9, 0))
				}
				s.Run(8*s.TimeoutTicks() + 150_000)
				if _, ok := mon.ConvergedAt(); !ok {
					t.Errorf("unbounded=%v garbage=%d trial %d: no convergence (census %v)",
						unbounded, garbage, trial, s.Census())
				}
			}
		}
	}
}
