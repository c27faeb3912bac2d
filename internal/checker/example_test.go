package checker_test

import (
	"fmt"

	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// ExampleNewCensusMonitor attaches the census monitor a campaign run uses —
// legitimacy/convergence, k-out-of-ℓ safety and legit-step counting in one
// step hook — and reads its verdict after a run. The monitor consumes
// the simulator's incrementally maintained census, so its per-step cost is
// O(1) regardless of system size.
func ExampleNewCensusMonitor() {
	tr := tree.Star(8)
	cfg := core.Config{K: 2, L: 3, N: tr.N(), CMAX: 4, Features: core.Full()}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 42})
	mon := checker.NewCensusMonitor(s) // attach BEFORE running
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%2, 4, 8, 0))
	}
	s.Run(100_000)

	at, ok := mon.ConvergedAt()
	fmt.Println("converged:", ok, "— census legitimate from step", at, "onward")
	fmt.Println("safety violations after convergence:", mon.ViolationsAfter(at))
	// Output:
	// converged: true — census legitimate from step 1583 onward
	// safety violations after convergence: 0
}
