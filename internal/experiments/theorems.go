package experiments

import (
	"fmt"
	"math/rand"

	"kofl/internal/adversary"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/stats"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// Convergence reproduces Theorem 1's convergence property empirically: from
// fully arbitrary configurations (random process states, up to CMAX garbage
// messages per channel) the full protocol reaches — and stays in — a
// legitimate token census. The table reports convergence time in scheduler
// steps (the timeout, which gates recovery from a lost controller, is listed
// for scale) and how many reset traversals recovery needed.
func Convergence(seed int64, quick bool) *Table {
	tb := &Table{
		ID:    "T1",
		Title: "self-stabilization: convergence from arbitrary configurations",
		Cols: []string{"topology", "n", "CMAX", "trials", "converged",
			"steps p50", "steps max", "resets mean", "timeout"},
	}
	ns := []int{8, 16, 32}
	cmaxes := []int{0, 4, 8}
	trials := 20
	if quick {
		ns = []int{8, 16}
		cmaxes = []int{0, 4}
		trials = 5
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range ns {
		for _, cmax := range cmaxes {
			tr := tree.Random(n, rng)
			var conv stats.Summary
			var resets stats.Summary
			converged := 0
			var timeout int64
			for trial := 0; trial < trials; trial++ {
				s := newSim(tr, 2, 3, cmax, core.Full(), seed+int64(trial), nil)
				timeout = s.TimeoutTicks()
				adversary.ArbitraryConfiguration(s, rng)
				leg := checker.NewLegitimacy(s)
				circ := checker.NewCirculations(s)
				for p := 0; p < tr.N(); p++ {
					workload.Attach(s, p, workload.Fixed(1+p%2, 4, 16, 0))
				}
				budget := 6*s.TimeoutTicks() + 100_000
				s.Run(budget)
				if at, ok := leg.ConvergedAt(); ok {
					converged++
					conv.Add(at)
					resets.Add(circ.Resets)
				}
			}
			tb.Add(fmt.Sprintf("random-%d", n), n, cmax,
				trials, fmt.Sprintf("%d/%d", converged, trials),
				conv.Percentile(50), conv.Max(), resets.Mean(), timeout)
		}
	}
	tb.Note("paper: convergence in finite time from every configuration (Theorem 1)")
	return tb
}

// WaitingTime reproduces Theorem 2: once stabilized, a request waits at most
// ℓ(2n-3)² critical-section entries by other processes. Saturating
// workloads (everyone re-requests immediately; one heavy process asks for k
// units, the rest for 1) maximize contention; the measured worst case must
// stay under the bound, growing with n and ℓ as the bound's shape predicts.
func WaitingTime(seed int64, quick bool) *Table {
	tb := &Table{
		ID:    "T2",
		Title: "waiting time vs bound ℓ(2n-3)²",
		Cols: []string{"topology", "n", "k", "ℓ", "grants",
			"wait mean", "wait max", "bound", "max/bound"},
	}
	type cfg struct{ k, l int }
	cfgs := []cfg{{1, 1}, {2, 3}, {3, 5}}
	ns := []int{4, 8, 16}
	if quick {
		cfgs = []cfg{{1, 1}, {2, 3}}
		ns = []int{4, 8}
	}
	for _, n := range ns {
		for _, kl := range cfgs {
			for _, top := range SweepTopologies([]int{n}) {
				tr := top.Build()
				s := newSim(tr, kl.k, kl.l, 2, core.Full(), seed, nil)
				leg := checker.NewLegitimacy(s)
				// Warm up with no requests until the census stabilizes, so
				// Theorem 2's "once stabilized" premise holds.
				s.RunUntil(4*s.TimeoutTicks()+200_000, func() bool {
					_, ok := leg.ConvergedAt()
					return ok
				})
				wait := checker.NewWaiting(s)
				grants := checker.NewGrants(s)
				for p := 0; p < tr.N(); p++ {
					need := 1
					if p == tr.N()-1 {
						need = kl.k // the heavy process
					}
					workload.Attach(s, p, workload.Fixed(need, 0, 0, 0))
				}
				steps := int64(150_000)
				if quick {
					steps = 60_000
				}
				s.Run(steps)
				var sm stats.Summary
				sm.AddAll(wait.Samples())
				bound := checker.Bound(tr.N(), kl.l)
				ratio := float64(wait.Max()) / float64(bound)
				tb.Add(top.Name, tr.N(), kl.k, kl.l, grants.Total(),
					sm.Mean(), wait.Max(), bound, ratio)
			}
		}
	}
	tb.Note("paper: worst case ℓ(2n-3)² (Theorem 2); measured max must stay ≤ bound")
	return tb
}

// WaitingTimeAdversarial (T2b) stresses Theorem 2's bound with a
// message-scheduling adversary: the priority token crawls (each of its
// deliveries delayed ~1/eps steps) while everything else runs at full
// speed, under k=ℓ scarcity so the target's request contends with everyone.
//
// Finding: the measured waiting is essentially UNCHANGED versus the fair
// scheduler — the token-circulation design is robust against pure message
// re-timing, because every token transits every process once per lap (a
// delayed process throttles the whole ring rather than being overtaken).
// Approaching the ℓ(2n-3)² worst case requires controlling application
// timing as well, which is exactly what Figure 3's scripted execution does;
// the bound holds in every run either way.
func WaitingTimeAdversarial(seed int64, quick bool) *Table {
	tb := &Table{
		ID:    "T2b",
		Title: "waiting time under the Theorem 2 adversary (slowed priority token)",
		Cols: []string{"topology", "n", "k", "ℓ", "eps", "wait max",
			"bound", "max/bound", "fair max/bound"},
	}
	type cfg struct{ k, l int }
	// k = ℓ makes the target's request contend with everyone: it can only
	// assemble all ℓ units under the priority shield, so crawling the
	// priority token directly stretches its wait.
	cfgs := []cfg{{3, 3}, {5, 5}}
	ns := []int{4, 8}
	eps := 1.0 / 64
	steps := int64(400_000)
	if quick {
		ns = []int{4}
		steps = 200_000
	}
	for _, n := range ns {
		for _, kl := range cfgs {
			// A star decouples the target's channel from everyone else's:
			// on a chain every token transits the target, so slowing its
			// deliveries throttles the whole ring and nobody accumulates
			// entries. The worst case needs others to keep churning while
			// the target waits.
			tr := tree.Star(n)
			target := tr.N() - 1
			run := func(sched sim.Scheduler) int64 {
				s := newSim(tr, kl.k, kl.l, 2, core.Full(), seed, sched)
				leg := checker.NewLegitimacy(s)
				s.RunUntil(4*s.TimeoutTicks()+200_000, func() bool {
					_, ok := leg.ConvergedAt()
					return ok
				})
				wait := checker.NewWaiting(s)
				for p := 0; p < tr.N(); p++ {
					need := 1
					if p == target {
						need = kl.k
					}
					workload.Attach(s, p, workload.Fixed(need, 0, 0, 0))
				}
				s.Run(steps)
				return wait.MaxOf(target)
			}
			advMax := run(sim.NewSlowPrioScheduler(target, eps))
			fairMax := run(nil)
			bound := checker.Bound(tr.N(), kl.l)
			tb.Add("star", tr.N(), kl.k, kl.l, eps, advMax, bound,
				float64(advMax)/float64(bound), float64(fairMax)/float64(bound))
		}
	}
	tb.Note("finding: waiting is insensitive to priority-token speed — message re-timing alone cannot approach the quadratic bound (application timing is needed, cf. Figure 3)")
	return tb
}

// Liveness reproduces the (k,ℓ)-liveness property of Lemma 14: a set I of
// processes holds α units in their critical sections forever; every other
// requester asking for ≤ ℓ-α units must still be served.
func Liveness(seed int64) *Table {
	tb := &Table{
		ID:    "L14",
		Title: "(k,ℓ)-liveness with perpetual critical sections",
		Cols:  []string{"scenario", "ℓ", "α", "request", "requesters", "served"},
	}
	const forever = int64(1) << 60
	type scenario struct {
		name    string
		l, k    int
		holders map[string]int // paper-tree name -> units held forever
		reqNeed int
		reqs    []string
	}
	scenarios := []scenario{
		{"one holder", 5, 3, map[string]int{"b": 2}, 3, []string{"a", "c", "d"}},
		{"two holders", 5, 3, map[string]int{"b": 2, "e": 2}, 1, []string{"a", "c", "g"}},
		{"heavy holder", 5, 3, map[string]int{"a": 3}, 2, []string{"b", "c", "d", "e"}},
	}
	for _, sc := range scenarios {
		tr := tree.Paper()
		s := newSim(tr, sc.k, sc.l, 2, core.Full(), seed, nil)
		grants := checker.NewGrants(s)
		alpha := 0
		for name, units := range sc.holders {
			workload.Attach(s, tree.PaperID(name), workload.Fixed(units, forever, 0, 1))
			alpha += units
		}
		for _, name := range sc.reqs {
			workload.Attach(s, tree.PaperID(name), workload.Fixed(sc.reqNeed, 2, 8, 0))
		}
		s.Run(400_000)
		served := 0
		for _, name := range sc.reqs {
			if grants.Enters[tree.PaperID(name)] > 0 {
				served++
			}
		}
		// Sanity: the holders really are in their critical sections.
		holding := true
		for name := range sc.holders {
			if s.Nodes[tree.PaperID(name)].State() != core.In {
				holding = false
			}
		}
		if !holding {
			tb.Note("WARNING: a perpetual holder left its critical section in %q", sc.name)
		}
		tb.Add(sc.name, sc.l, alpha, sc.reqNeed,
			len(sc.reqs), fmt.Sprintf("%d/%d", served, len(sc.reqs)))
	}
	tb.Note("paper: at least one requester with need ≤ ℓ-α is served; fairness serves all")
	return tb
}

// interface guard: the sim package's scheduler types are exercised above.
var _ sim.Scheduler = (*sim.RandomScheduler)(nil)
