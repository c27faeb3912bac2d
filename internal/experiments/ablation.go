package experiments

import (
	"fmt"
	"math/rand"

	"kofl/internal/adversary"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/stats"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// AblationPusherGuard (A1) measures erratum E1: the pseudocode's literal
// pusher guard (release only if Prio ≠ ⊥) inverts the priority shield. With
// it, the pusher no longer evicts ordinary waiters, so Figure 2's deadlock
// pattern persists even with the pusher present; the prose guard (Prio = ⊥,
// our default) resolves it.
func AblationPusherGuard(seed int64) *Table {
	tb := &Table{
		ID:    "A1",
		Title: "erratum E1: literal vs prose pusher guard (Figure 2 scenario)",
		Cols:  []string{"variant", "guard", "satisfied", "evictions", "stuck-units a/b/c/d"},
	}
	for _, literal := range []bool{false, true} {
		for _, v := range []struct {
			name string
			feat core.Features
		}{
			{"pusher", core.PusherOnly()},
			{"full", core.Full()},
		} {
			tr := tree.Paper()
			cfg := config(tr, 3, 5, 4, v.feat)
			cfg.Errata.LiteralPusherGuard = literal
			s := sim.MustNew(tr, cfg, sim.Options{Seed: seed})
			fig2Seed(s, tr)
			if v.feat.Pusher && !v.feat.Controller {
				s.Seed(tr.Root(), 0, message.NewPush())
			}
			grants := checker.NewGrants(s)
			evictions := 0
			s.AddObserver(func(e core.Event) {
				if e.Kind == core.EvEvict {
					evictions++
				}
			})
			for name, need := range fig2Needs {
				workload.Attach(s, tree.PaperID(name), workload.Fixed(need, 10, 0, -1))
				if err := s.Handle(tree.PaperID(name)).Request(need); err != nil {
					panic(err)
				}
			}
			s.Run(400_000)
			satisfied := 0
			stuck := ""
			for i, name := range []string{"a", "b", "c", "d"} {
				if grants.Enters[tree.PaperID(name)] > 0 {
					satisfied++
				}
				if i > 0 {
					stuck += "/"
				}
				stuck += fmt.Sprint(s.Nodes[tree.PaperID(name)].Reserved())
			}
			guard := "prose (Prio=⊥)"
			if literal {
				guard = "literal (Prio≠⊥)"
			}
			tb.Add(v.name, guard, fmt.Sprintf("%d/4", satisfied), evictions, stuck)
		}
	}
	tb.Note("with the literal guard the pusher variant cannot break Figure 2's deadlock")
	return tb
}

// AblationCountOrder (A2) measures erratum E2: with the paper's printed
// ordering the controller misses tokens the root reserved from its last
// channel, spuriously creating replacements and then resetting; the
// corrected ordering (accumulate before the completion check) counts every
// token exactly once per circulation. A requesting root makes the pattern
// frequent. The reset count after convergence is the closure-violation
// metric.
func AblationCountOrder(seed int64, quick bool) *Table {
	tb := &Table{
		ID:    "A2",
		Title: "erratum E2: controller count order (requesting root)",
		Cols: []string{"order", "steps", "circulations", "resets", "res-created",
			"grants", "census-ok"},
	}
	steps := int64(400_000)
	if quick {
		steps = 150_000
	}
	for _, paperOrder := range []bool{false, true} {
		tr := tree.Paper()
		cfg := config(tr, 3, 5, 4, core.Full())
		cfg.Errata.PaperCountOrder = paperOrder
		s := sim.MustNew(tr, cfg, sim.Options{Seed: seed})
		circ := checker.NewCirculations(s)
		grants := checker.NewGrants(s)
		// The root requests multiple units so that it parks tokens — in
		// particular tokens arriving from its last channel — across
		// controller circulation boundaries.
		workload.Attach(s, tr.Root(), workload.Fixed(3, 6, 2, 0))
		for p := 1; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1, 4, 10, 0))
		}
		s.Run(steps)
		name := "corrected"
		if paperOrder {
			name = "paper"
		}
		tb.Add(name, steps, circ.Completed, circ.Resets, circ.Created,
			grants.Total(), s.TokensCorrect())
	}
	tb.Note("resets after bootstrap are spurious: the census was legitimate (closure violation)")
	tb.Note("'res-created' includes the ℓ bootstrap tokens; anything above ℓ is spurious")
	return tb
}

// AblationCMAX (A4) probes the paper's channel assumption: bounded-memory
// counter flushing is only proven for ≤ CMAX arbitrary initial messages per
// channel. We inject garbage beyond that bound and compare the bounded
// protocol against the unbounded-counters adaptation the conclusion sketches
// (Katz-Perry). Random garbage rarely realizes the worst case, so bounded
// counters usually still converge — the table reports the empirical rate
// and cost.
func AblationCMAX(seed int64, quick bool) *Table {
	tb := &Table{
		ID:    "A4",
		Title: "erratum-adjacent: garbage beyond CMAX, bounded vs unbounded counters",
		Cols: []string{"counters", "garbage/channel", "CMAX", "trials",
			"converged", "steps p50", "resets mean"},
	}
	const cmax = 2
	trials := 12
	garbageLevels := []int{cmax, 4 * cmax, 16 * cmax}
	if quick {
		trials = 4
		garbageLevels = []int{cmax, 8 * cmax}
	}
	for _, unbounded := range []bool{false, true} {
		for _, garbage := range garbageLevels {
			var conv, resets stats.Summary
			converged := 0
			for trial := 0; trial < trials; trial++ {
				tr := tree.Paper()
				cfg := config(tr, 2, 3, cmax, core.Full())
				cfg.UnboundedCounters = unbounded
				s := sim.MustNew(tr, cfg, sim.Options{Seed: seed + int64(trial)})
				rng := rand.New(rand.NewSource(seed + 100 + int64(trial)))
				adversary.CorruptStates(s, rng, nil)
				adversary.ForceGarbageChannels(s, rng, garbage, nil)
				leg := checker.NewLegitimacy(s)
				circ := checker.NewCirculations(s)
				for p := 0; p < tr.N(); p++ {
					workload.Attach(s, p, workload.Fixed(1+p%2, 3, 9, 0))
				}
				s.Run(8*s.TimeoutTicks() + 150_000)
				if at, ok := leg.ConvergedAt(); ok {
					converged++
					conv.Add(at)
					resets.Add(circ.Resets)
				}
			}
			name := "bounded"
			if unbounded {
				name = "unbounded"
			}
			tb.Add(name, garbage, cmax, trials,
				fmt.Sprintf("%d/%d", converged, trials),
				conv.Percentile(50), resets.Mean())
		}
	}
	tb.Note("garbage beyond CMAX voids the bounded-memory proof; unbounded counters (conclusion, via Katz-Perry) need no channel assumption")
	return tb
}

// AblationVariants (A3) walks the paper's §3 construction ladder under one
// saturated workload: the naive variant deadlocks, the pusher variant makes
// progress but can starve the heavy requester under an adversary, the
// priority token removes the starvation, and the controller adds nothing in
// fault-free runs (but is the only self-stabilizing rung).
func AblationVariants(seed int64) *Table {
	tb := &Table{
		ID:    "A3",
		Title: "variant ladder under saturation (paper tree, ℓ=5, k=3, anti-a adversary)",
		Cols:  []string{"variant", "deadlocked", "total grants", "a grants", "min grants", "starved"},
	}
	variants := []struct {
		name string
		feat core.Features
	}{
		{"naive", core.Naive()},
		{"pusher", core.PusherOnly()},
		{"pusher+prio", core.NonStabilizing()},
		{"full", core.Full()},
	}
	for _, v := range variants {
		tr := tree.Paper()
		a := tree.PaperID("a")
		s := newSim(tr, 3, 5, 4, v.feat, seed, sim.NewAntiTargetScheduler(a))
		if !v.feat.Controller {
			s.SeedLegitimate()
		}
		grants := checker.NewGrants(s)
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
		deadlocked := s.Quiescent() && !v.feat.Controller
		minG := grants.Enters[0]
		starved := 0
		for _, g := range grants.Enters {
			if g < minG {
				minG = g
			}
			if g == 0 {
				starved++
			}
		}
		tb.Add(v.name, deadlocked, grants.Total(), grants.Enters[a], minG, starved)
	}
	tb.Note("ladder mirrors §3: each mechanism fixes the failure of the previous rung")
	return tb
}
