package kofl

import (
	"fmt"

	"kofl/internal/adversary"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/workload"
	"math/rand"
)

// System is a simulated protocol instance with a run monitor attached: the main
// entry point for experiments, tests and programmatic exploration. All
// behavior is deterministic in (topology, Options, seed).
type System struct {
	tr  *Tree
	s   *sim.Sim
	mon checker.Run

	manual []*manualApp
}

// manualApp lets user code drive a process through System.Request/Release;
// it never acts on its own.
type manualApp struct {
	inCS, done bool
	onEnter    func()
}

func (a *manualApp) EnterCS() {
	a.inCS = true
	a.done = false
	if a.onEnter != nil {
		a.onEnter()
	}
}
func (a *manualApp) ReleaseCS() bool    { return !a.inCS || a.done }
func (a *manualApp) Enabled(int64) bool { return false }
func (a *manualApp) Act(sim.Handle)     {}
func (a *manualApp) WakeAt(int64) int64 { return sim.NoWake } // event-driven only

// New builds a System over t. Every process starts with a manually driven
// application (see Request/Release); Saturate replaces it with a generator.
// With the full protocol the system bootstraps its tokens through the root
// timeout; the non-self-stabilizing variants are seeded with a legitimate
// token population.
func New(t *Tree, opts Options) (*System, error) {
	s, err := sim.New(t, opts.config(t), sim.Options{
		Seed:         opts.Seed,
		TimeoutTicks: opts.TimeoutTicks,
	})
	if err != nil {
		return nil, err
	}
	y := &System{
		tr:     t,
		s:      s,
		manual: make([]*manualApp, t.N()),
	}
	// Seed before attaching the monitor, as the campaign engine does: its
	// construction-time observation must see the configuration the run
	// starts from.
	if !s.Cfg.Features.Controller {
		s.SeedLegitimate()
	}
	y.mon.Attach(s)
	for p := 0; p < t.N(); p++ {
		y.manual[p] = &manualApp{}
		s.AttachApp(p, y.manual[p])
	}
	return y, nil
}

// MustNew is New but panics on error.
func MustNew(t *Tree, opts Options) *System {
	y, err := New(t, opts)
	if err != nil {
		panic(err)
	}
	return y
}

// Tree returns the topology.
func (y *System) Tree() *Tree { return y.tr }

// Sim exposes the underlying simulation for advanced use (custom monitors,
// seeding).
func (y *System) Sim() *sim.Sim { return y.s }

// Step executes one scheduler step; it reports false when the system is
// quiescent (possible only in variants without the controller).
func (y *System) Step() bool { return y.s.Step() }

// Run executes at most steps scheduler steps and returns how many ran.
func (y *System) Run(steps int64) int64 { return y.s.Run(steps) }

// Now returns the simulation clock.
func (y *System) Now() int64 { return y.s.Now() }

// Request asks for need units on behalf of process p (State Out→Req). The
// request is granted asynchronously; watch InCS or OnEnter. It errors if p
// is not in state Out or is driven by a generator workload.
func (y *System) Request(p, need int) error {
	if y.manual[p] == nil {
		return fmt.Errorf("kofl: process %d is driven by a generator workload", p)
	}
	return y.s.Handle(p).Request(need)
}

// Release signals that process p's application has finished its critical
// section.
func (y *System) Release(p int) {
	if y.manual[p] == nil {
		return
	}
	y.manual[p].done = true
	y.manual[p].inCS = false
	y.s.Handle(p).Poll()
}

// OnEnter registers a callback invoked when process p enters its critical
// section (manual applications only).
func (y *System) OnEnter(p int, f func()) {
	if y.manual[p] != nil {
		y.manual[p].onEnter = f
	}
}

// Saturate replaces p's application with a generator that requests need
// units, holds the critical section for hold steps, thinks for think steps,
// and repeats (maxRequests = 0 means forever).
func (y *System) Saturate(p, need int, hold, think int64, maxRequests int) {
	y.manual[p] = nil
	workload.Attach(y.s, p, workload.Fixed(need, hold, think, maxRequests))
}

// InCS reports whether process p is executing its critical section.
func (y *System) InCS(p int) bool { return y.StateOf(p) == core.In }

// StateOf returns process p's interface state.
func (y *System) StateOf(p int) State {
	n := y.s.Node(p)
	return n.State()
}

// UnitsHeld returns how many resource tokens p currently reserves.
func (y *System) UnitsHeld(p int) int {
	n := y.s.Node(p)
	return n.Reserved()
}

// Census returns the global token population snapshot.
func (y *System) Census() Census { return y.s.Census() }

// Converged reports whether the token census is legitimate and has been
// since the returned clock value.
func (y *System) Converged() (since int64, ok bool) { return y.mon.ConvergedAt() }

// RunUntilConverged runs until the census is legitimate (then keeps the
// result even if later faults break it again), up to budget steps.
func (y *System) RunUntilConverged(budget int64) bool {
	return y.s.RunUntil(budget, func() bool {
		_, ok := y.mon.ConvergedAt()
		return ok
	})
}

// InjectArbitraryFaults throws the system into a fully arbitrary
// configuration: random process states and up to CMAX garbage messages per
// channel — the universal quantifier of Theorem 1.
func (y *System) InjectArbitraryFaults(seed int64) {
	adversary.ArbitraryConfiguration(y.s, rand.New(rand.NewSource(seed)))
}

// DropResourceTokens removes up to count in-flight resource tokens,
// returning how many were removed.
func (y *System) DropResourceTokens(seed int64, count int) int {
	return adversary.DropTokens(y.s, rand.New(rand.NewSource(seed)), message.Res, count, nil)
}

// DuplicateResourceTokens duplicates up to count in-flight resource tokens.
func (y *System) DuplicateResourceTokens(seed int64, count int) int {
	return adversary.DuplicateTokens(y.s, rand.New(rand.NewSource(seed)), message.Res, count, nil)
}

// Metrics summarizes a run.
type Metrics struct {
	Steps        int64
	Grants       []int64 // critical-section entries per process
	TotalGrants  int64
	MaxWaiting   int64 // worst observed waiting time (paper's metric)
	WaitingBound int64 // Theorem 2's ℓ(2n-3)²
	Circulations int64 // completed controller traversals
	Resets       int64
	Timeouts     int64
	Converged    bool
	ConvergedAt  int64
	// SafetyViolationsAfterConvergence must be 0 on a converged run.
	SafetyViolationsAfterConvergence int
	Census                           Census
}

// Metrics returns the current monitor readings.
func (y *System) Metrics() Metrics {
	at, ok := y.mon.ConvergedAt()
	m := Metrics{
		Steps:        y.s.Steps,
		Grants:       append([]int64(nil), y.mon.Enters...),
		TotalGrants:  y.mon.Total(),
		MaxWaiting:   y.mon.Max(),
		WaitingBound: WaitingBound(y.tr.N(), y.s.Cfg.L),
		Circulations: y.mon.Completed,
		Resets:       y.mon.Resets,
		Timeouts:     y.mon.Timeouts,
		Converged:    ok,
		ConvergedAt:  at,
		Census:       y.s.Census(),
	}
	if ok {
		m.SafetyViolationsAfterConvergence = y.mon.ViolationsAfter(at)
	}
	return m
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"metrics{steps=%d grants=%d maxWait=%d/%d circ=%d resets=%d converged=%v@%d safetyAfter=%d %v}",
		m.Steps, m.TotalGrants, m.MaxWaiting, m.WaitingBound, m.Circulations,
		m.Resets, m.Converged, m.ConvergedAt, m.SafetyViolationsAfterConvergence, m.Census)
}
