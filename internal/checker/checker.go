// Package checker provides the invariant monitors the campaign engine and
// tests hang off a simulation: the census monitor (legitimacy, availability
// and the k-out-of-ℓ safety predicate), fairness (the paper's waiting-time
// metric), grant and controller counters, and the DFS circulation order of
// Figure 1.
//
// Self-stabilization makes every property an "eventually" property: the
// monitors therefore record the time of the LAST violation rather than
// failing on the first, and tests assert that violations stop.
package checker

import (
	"fmt"

	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

// SafetyViolation describes one breach of the k-out-of-ℓ safety property.
type SafetyViolation struct {
	Clock int64
	What  string
}

// CensusMonitor is the one monitor that reads the global token census. After
// every step it tracks legitimacy (for convergence), counts legitimate steps
// (for availability) and checks the paper's safety predicate: at most ℓ
// units in use, at most k per process (counted as reserved tokens of
// processes inside their critical section). Violations before convergence
// are expected — the property is "eventually safe".
//
// It reads the census once per step through sim.Health: the kernel's
// incrementally maintained census evaluated in place (see the sim package's
// census kernel), so one observation is O(1) and copies nothing. The
// per-process over-k check rides on the census's maintained OverK violation
// counter and only falls back to a node scan in the rare steps where a
// violation actually exists. Under sim.Options.ScanCensus the same monitor
// runs against the snapshot oracle, which is what the census differential
// tests compare against.
type CensusMonitor struct {
	s    *sim.Sim
	k, l int

	lastViolation int64 // clock of the most recent illegitimate census; -1 if never
	everCorrect   bool

	// LegitSteps counts executed steps whose census was legitimate (the
	// initial configuration is not a step and is not counted).
	LegitSteps int64

	// Violations records every safety breach, in clock order.
	Violations []SafetyViolation
}

// NewCensusMonitor attaches a census monitor to s. It accounts for the
// initial configuration immediately, so attach it once that configuration
// is established.
func NewCensusMonitor(s *sim.Sim) *CensusMonitor {
	m := &CensusMonitor{}
	m.Attach(s)
	return m
}

// Attach (re)binds m to s, first resetting it to the just-constructed state
// while keeping the violation slice's capacity: campaign workers recycle one
// monitor across slots, so steady-state runs record violations without
// allocating. Like NewCensusMonitor, it accounts for the initial
// configuration immediately.
func (m *CensusMonitor) Attach(s *sim.Sim) {
	m.s, m.k, m.l = s, s.Cfg.K, s.Cfg.L
	m.lastViolation = -1
	m.everCorrect = false
	m.LegitSteps = 0
	m.Violations = m.Violations[:0]
	s.AddStepHook(func(s *sim.Sim) { m.observe(s, true) })
	m.observe(s, false) // initial configuration: no step to count
}

func (m *CensusMonitor) observe(s *sim.Sim, isStep bool) {
	legit, unitsInUse, overK := s.Health()
	if legit {
		m.everCorrect = true
		if isStep {
			m.LegitSteps++
		}
	} else {
		m.lastViolation = s.Now()
	}
	if unitsInUse > m.l {
		m.Violations = append(m.Violations, SafetyViolation{
			Clock: s.Now(),
			What:  fmt.Sprintf("%d units in use > ℓ=%d", unitsInUse, m.l),
		})
	}
	if overK > 0 {
		// Rare: some process is in its critical section holding more than k
		// units. Only now is the O(n) scan paid, to name the offenders.
		for p, n := range s.Nodes {
			if n.State() == core.In && n.Reserved() > m.k {
				m.Violations = append(m.Violations, SafetyViolation{
					Clock: s.Now(),
					What:  fmt.Sprintf("process %d uses %d units > k=%d", p, n.Reserved(), m.k),
				})
			}
		}
	}
}

// ConvergedAt returns the clock after which the census has been
// continuously legitimate, and whether that has happened at all.
func (m *CensusMonitor) ConvergedAt() (int64, bool) {
	if !m.s.TokensCorrect() || !m.everCorrect {
		return 0, false
	}
	return m.lastViolation + 1, true
}

// ViolationsAfter counts safety violations strictly after the given clock.
func (m *CensusMonitor) ViolationsAfter(clock int64) int {
	n := 0
	for _, v := range m.Violations {
		if v.Clock > clock {
			n++
		}
	}
	return n
}

// Waiting records the paper's waiting-time metric: for each satisfied
// request, the number of critical-section entries by other processes between
// the request and its grant. Theorem 2 bounds it by ℓ(2n-3)² once the
// protocol has stabilized.
//
// All per-event state is flat per-process slices sized at attach time, so
// observing an event allocates nothing (TestWaitingFlattenedMatchesMapOracle
// holds it equal to the historical map-based implementation).
type Waiting struct {
	totalEnters int64
	pendingAt   []int64 // per process: totalEnters at request time; -1 = no pending request
	max         int64
	perProc     []int64 // max per process
}

// NewWaiting attaches a waiting-time monitor to s.
func NewWaiting(s *sim.Sim) *Waiting {
	w := &Waiting{}
	w.Attach(s)
	return w
}

// Attach (re)binds w to s, resetting it to the just-constructed state while
// reusing the per-process slices' capacity — campaign workers recycle one
// monitor across slots, so only a run on a larger tree than any predecessor
// on the same worker allocates.
func (w *Waiting) Attach(s *sim.Sim) {
	n := s.Tree.N()
	if cap(w.pendingAt) < n || cap(w.perProc) < n {
		w.pendingAt = make([]int64, n)
		w.perProc = make([]int64, n)
	} else {
		w.pendingAt = w.pendingAt[:n]
		w.perProc = w.perProc[:n]
	}
	for p := 0; p < n; p++ {
		w.pendingAt[p] = -1
		w.perProc[p] = 0
	}
	w.totalEnters, w.max = 0, 0
	s.AddObserver(w.onEvent)
}

func (w *Waiting) onEvent(e core.Event) {
	switch e.Kind {
	case core.EvRequest:
		w.pendingAt[e.P] = w.totalEnters
	case core.EvEnterCS:
		if at := w.pendingAt[e.P]; at >= 0 {
			wait := w.totalEnters - at
			if wait > w.max {
				w.max = wait
			}
			if wait > w.perProc[e.P] {
				w.perProc[e.P] = wait
			}
			w.pendingAt[e.P] = -1
		}
		w.totalEnters++
	}
}

// Max returns the worst observed waiting time.
func (w *Waiting) Max() int64 { return w.max }

// MaxOf returns the worst observed waiting time of process p.
func (w *Waiting) MaxOf(p int) int64 { return w.perProc[p] }

// Bound returns Theorem 2's worst-case bound ℓ(2n-3)² for the given system.
func Bound(n, l int) int64 {
	d := int64(2*n - 3)
	return int64(l) * d * d
}

// BoundRatio returns the worst observed waiting time as a fraction of
// Theorem 2's bound for an (n, ℓ) system — the bound-proximity statistic the
// campaign engine's outlier-trace predicate keys on (a run near 1.0 is a
// candidate counterexample worth a full trace).
func (w *Waiting) BoundRatio(n, l int) float64 {
	b := Bound(n, l)
	if b <= 0 {
		return 0
	}
	return float64(w.max) / float64(b)
}

// Grants records per-process critical-section entries and exits; the basis
// for fairness and liveness assertions.
type Grants struct {
	Enters []int64 // per process
	Exits  []int64
}

// NewGrants attaches a grant counter to s.
func NewGrants(s *sim.Sim) *Grants {
	g := &Grants{}
	g.Attach(s)
	return g
}

// Attach (re)binds g to s, resetting the counters while reusing the
// per-process slices' capacity (see Waiting.Attach).
func (g *Grants) Attach(s *sim.Sim) {
	n := s.Tree.N()
	if cap(g.Enters) < n || cap(g.Exits) < n {
		g.Enters = make([]int64, n)
		g.Exits = make([]int64, n)
	} else {
		g.Enters = g.Enters[:n]
		g.Exits = g.Exits[:n]
		for p := 0; p < n; p++ {
			g.Enters[p], g.Exits[p] = 0, 0
		}
	}
	s.AddObserver(g.onEvent)
}

func (g *Grants) onEvent(e core.Event) {
	switch e.Kind {
	case core.EvEnterCS:
		g.Enters[e.P]++
	case core.EvExitCS:
		g.Exits[e.P]++
	}
}

// Total returns the system-wide number of critical-section entries.
func (g *Grants) Total() int64 {
	var t int64
	for _, e := range g.Enters {
		t += e
	}
	return t
}

// DFSOrder verifies Figure 1: deliveries of resource tokens follow the
// virtual ring. It tracks the single-token case exactly: every ResT delivery
// must land on the ring position following the previous one. With several
// tokens in flight, per-delivery order is not a function of the census, so
// the monitor is meaningful only for runs with one resource token.
type DFSOrder struct {
	ring     []tree.Visit
	pos      int // index of the next expected ring position; -1 = unanchored
	Failures int
	Visits   int
}

// NewDFSOrder attaches a circulation-order monitor to s.
func NewDFSOrder(s *sim.Sim) *DFSOrder {
	d := &DFSOrder{ring: s.Tree.EulerTour(), pos: -1}
	s.AddStepHook(d.onStep)
	return d
}

func (d *DFSOrder) onStep(s *sim.Sim) {
	if s.LastAction.Kind != sim.ActDeliver || s.LastMsg.Kind != message.Res {
		return
	}
	p, ch := s.LastAction.Proc, s.LastAction.Ch
	d.Visits++
	if d.pos < 0 {
		// Anchor on the first delivery.
		for i, v := range d.ring {
			if v.To == p && v.ToCh == ch {
				d.pos = (i + 1) % len(d.ring)
				return
			}
		}
		d.Failures++
		return
	}
	want := d.ring[d.pos]
	if want.To != p || want.ToCh != ch {
		d.Failures++
		// Re-anchor so one glitch does not cascade.
		d.pos = -1
		return
	}
	d.pos = (d.pos + 1) % len(d.ring)
}

// Circulations watches the root's controller traversals.
type Circulations struct {
	Completed int64
	Resets    int64
	Created   int64 // resource tokens created by the root
	Dropped   int64 // tokens destroyed during resets
	Timeouts  int64
	LastCount [3]int // last census reported by the controller (res, prio, push)
}

// NewCirculations attaches a controller monitor to s.
func NewCirculations(s *sim.Sim) *Circulations {
	c := &Circulations{}
	c.Attach(s)
	return c
}

// Attach (re)binds c to s, zeroing all counters (see Waiting.Attach).
func (c *Circulations) Attach(s *sim.Sim) {
	*c = Circulations{}
	s.AddObserver(c.onEvent)
}

func (c *Circulations) onEvent(e core.Event) {
	switch e.Kind {
	case core.EvCirculation:
		c.Completed++
		c.LastCount = [3]int{e.N1, e.N2, e.N3}
		if e.Flag {
			c.Resets++
		}
	case core.EvCreate:
		c.Created += int64(e.N1)
	case core.EvDrop:
		c.Dropped++
	case core.EvTimeout:
		c.Timeouts++
	}
}
