package main

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"time"

	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/obs"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// simSpec is one simulator scenario: a Prüfer-uniform random tree of n
// processes under the full protocol with k=2, ℓ=8, CMAX=4, every process
// cycling request/hold 2/think 4, and a fused census monitor attached.
type simSpec struct {
	n int
	// stepsPerS fixes how many steps a second of budget buys. Step counts,
	// not durations, are fixed so that the simulated statistics of a seed
	// repeat exactly whatever the host's speed.
	stepsPerS float64
}

var (
	// n=1023 fits in cache: handler dispatch, the RNG draw and the action
	// set dominate. n=65536 does not: the SoA store, slab arena and count
	// hierarchy carry it.
	simN1023  = simSpec{n: 1023, stepsPerS: 4.0e6}
	simN65536 = simSpec{n: 65536, stepsPerS: 1.5e6}
)

func (sp simSpec) cfg() core.Config {
	return core.Config{K: 2, L: 8, N: sp.n, CMAX: 4, Features: core.Full()}
}

// warmSteps after convergence: a few virtual-ring laps, floored so that a
// small tree still mixes.
func (sp simSpec) warmSteps() int64 { return int64(max(8*sp.n, 50_000)) }

// simKind selects what rides on the simulator besides the protocol.
type simKind int

const (
	simMonitored simKind = iota // CensusMonitor: the measured configuration
	simBare                     // nothing attached
	simObs                      // CensusMonitor and Options.Obs
)

// builtSim is a simulator taken through set-up: built, converged, warmed.
type builtSim struct {
	s             *sim.Sim
	mon           *checker.CensusMonitor
	cycles        []*workload.Cycle
	treeBuild     time.Duration
	newTime       time.Duration
	setup         time.Duration // tree + New + attach + converge + warm
	bytesPerProc  float64
	convergeSteps int64
	work, secs    []float64 // per measured slice: steps done, seconds stepping
}

// buildSim performs the whole sim set-up once. The heap delta is GC-fenced
// around construction (sim.New plus the attached applications and monitor;
// the tree is built before the first fence).
func buildSim(sp simSpec, seed int64, kind simKind, tr *tracer) (*builtSim, error) {
	b := &builtSim{}
	t0 := time.Now()
	span := tr.begin("sim.tree_build", -1, 0)
	t := tree.Prufer(sp.n, rand.New(rand.NewSource(seed)))
	tr.end(span)
	b.treeBuild = time.Since(t0)

	var m0, m1 goruntime.MemStats
	// Twice: what earlier phases left in sync.Pools survives one cycle, and
	// would otherwise be freed inside the fenced interval.
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&m0)
	opts := sim.Options{Seed: seed}
	if kind == simObs {
		opts.Obs = obs.NewRegistry()
	}
	t1 := time.Now()
	span = tr.begin("sim.new", -1, 0)
	s, err := sim.New(t, sp.cfg(), opts)
	if err != nil {
		return nil, err
	}
	b.cycles = make([]*workload.Cycle, sp.n)
	for p := range b.cycles {
		b.cycles[p] = workload.Attach(s, p, workload.Fixed(1+p%2, 2, 4, 0))
	}
	if kind != simBare {
		b.mon = checker.NewCensusMonitor(s)
	}
	tr.end(span)
	b.newTime = time.Since(t1)
	goruntime.GC()
	goruntime.ReadMemStats(&m1)
	fence := time.Since(t1) - b.newTime
	b.bytesPerProc = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(sp.n)

	span = tr.begin("sim.run_until", -1, 0)
	if b.mon != nil {
		converged := func() bool { _, ok := b.mon.ConvergedAt(); return ok }
		if !s.RunUntil(int64(sp.n)*10_000, converged) {
			return nil, fmt.Errorf("sim n=%d: not converged after %d steps", sp.n, s.Steps)
		}
	}
	b.convergeSteps = s.Steps
	tr.end(span)
	span = tr.begin("sim.warm", -1, 0)
	s.Run(sp.warmSteps())
	tr.end(span)
	b.s = s
	// The two GC fences are the benchmark's, not the program's.
	b.setup = time.Since(t0) - fence
	return b, nil
}

func (b *builtSim) grants() int64 {
	var g int64
	for _, c := range b.cycles {
		g += int64(c.Enters)
	}
	return g
}

// stepSlice steps every simulator in sims for one slice: count segments of
// segSteps each, the simulators taking turns segment by segment so that a
// drift in the host's speed hits them all alike. Each simulator records the
// slice as one sample (steps done, seconds stepping). A sample must span a
// lap or so of the virtual ring: where the tokens are decides how many cache
// misses a step costs, and a shorter sample measures the neighbourhood.
func stepSlice(sims []*builtSim, names []string, count int, segSteps int64, round int, tr *tracer) {
	work := make([]float64, len(sims))
	secs := make([]float64, len(sims))
	for seg := 0; seg < count; seg++ {
		for i, b := range sims {
			span := -1
			if tr != nil {
				span = tr.begin(names[i], -1, int64(round*count+seg))
			}
			t0 := time.Now()
			done := b.s.Run(segSteps)
			secs[i] += time.Since(t0).Seconds()
			tr.end(span)
			work[i] += float64(done)
		}
	}
	for i, b := range sims {
		b.work = append(b.work, work[i])
		b.secs = append(b.secs, secs[i])
	}
}

// allocsPerStep counts heap allocations over steps steps. Nothing else may
// be running: the count is the whole process's.
func allocsPerStep(b *builtSim, steps int64) float64 {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	done := b.s.Run(steps)
	goruntime.ReadMemStats(&m1)
	// Rounded to 1/1000 so that the figure is an exact 0 and not the
	// runtime's own handful of background allocations spread over the steps.
	return math.Round(float64(m1.Mallocs-m0.Mallocs)/float64(max(done, 1))*1e3) / 1e3
}

// checkSim applies the simulator's share of the correctness gate.
func checkSim(b *builtSim, allocsPerStep float64) []string {
	var bad []string
	cfg := b.s.Cfg
	c := b.s.Census()
	if c.Res() != cfg.L || c.FreePush != 1 || c.Prio() != 1 {
		bad = append(bad, fmt.Sprintf("sim: final census not legitimate: %s", c))
	}
	at, ok := b.mon.ConvergedAt()
	if !ok {
		bad = append(bad, "sim: monitor reports no convergence at the end")
	} else if v := b.mon.ViolationsAfter(at); v != 0 {
		bad = append(bad, fmt.Sprintf("sim: %d safety violations after convergence", v))
	}
	if allocsPerStep != 0 {
		bad = append(bad, fmt.Sprintf("sim: %.3f allocations per step, want 0", allocsPerStep))
	}
	return bad
}
