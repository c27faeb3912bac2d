// Package checker provides the invariant monitors the campaign engine and
// tests hang off a simulation: token conservation / legitimacy, the k-out-of-ℓ
// safety predicate, fairness (the paper's waiting-time metric), and the DFS
// circulation order of Figure 1.
//
// Self-stabilization makes every property an "eventually" property: the
// monitors therefore record the time of the LAST violation rather than
// failing on the first, and experiments assert that violations stop.
package checker

import (
	"fmt"

	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

// Legitimacy watches the global token census after every step and records
// when it was last wrong. A run has converged when the census has been
// correct from some point onward; ConvergedAt reports that point.
type Legitimacy struct {
	s             *sim.Sim
	lastViolation int64 // clock of the most recent incorrect census; -1 if never
	everCorrect   bool
}

// NewLegitimacy attaches a legitimacy monitor to s.
func NewLegitimacy(s *sim.Sim) *Legitimacy {
	l := &Legitimacy{s: s, lastViolation: -1}
	s.AddStepHook(l.onStep)
	l.onStep(s) // account for the initial configuration
	return l
}

func (l *Legitimacy) onStep(s *sim.Sim) {
	if s.TokensCorrect() {
		l.everCorrect = true
	} else {
		l.lastViolation = s.Now()
	}
}

// CorrectNow reports whether the census is currently legitimate.
func (l *Legitimacy) CorrectNow() bool { return l.s.TokensCorrect() }

// LastViolation returns the clock of the most recent violation (-1 = never).
func (l *Legitimacy) LastViolation() int64 { return l.lastViolation }

// ConvergedAt returns the clock after which the census has been continuously
// correct, and whether that has happened at all.
func (l *Legitimacy) ConvergedAt() (int64, bool) {
	if !l.CorrectNow() || !l.everCorrect {
		return 0, false
	}
	return l.lastViolation + 1, true
}

// SafetyViolation describes one breach of the k-out-of-ℓ safety property.
type SafetyViolation struct {
	Clock int64
	What  string
}

// Safety watches the paper's safety predicate after every step: at most ℓ
// units in use, at most k per process (counted as reserved tokens of
// processes inside their critical section), and the global resource-token
// population not exceeding ℓ. Violations before convergence are expected —
// the property is "eventually safe".
type Safety struct {
	cfg        core.Config
	Violations []SafetyViolation
	last       int64
}

// NewSafety attaches a safety monitor to s.
func NewSafety(s *sim.Sim) *Safety {
	m := &Safety{cfg: s.Cfg, last: -1}
	s.AddStepHook(m.onStep)
	return m
}

func (m *Safety) onStep(s *sim.Sim) {
	_, unitsInUse, overK := s.Health()
	if unitsInUse > m.cfg.L {
		m.record(s.Now(), fmt.Sprintf("%d units in use > ℓ=%d", unitsInUse, m.cfg.L))
	}
	if overK > 0 {
		// The maintained OverK violation counter says some process is over
		// its k cap; only then pay the node scan to name the offenders.
		for p, n := range s.Nodes {
			if n.State() == core.In && n.Reserved() > m.cfg.K {
				m.record(s.Now(), fmt.Sprintf("process %d uses %d units > k=%d", p, n.Reserved(), m.cfg.K))
			}
		}
	}
}

func (m *Safety) record(clock int64, what string) {
	m.Violations = append(m.Violations, SafetyViolation{Clock: clock, What: what})
	m.last = clock
}

// LastViolation returns the clock of the most recent violation (-1 = never).
func (m *Safety) LastViolation() int64 { return m.last }

// ViolationsAfter counts violations strictly after the given clock.
func (m *Safety) ViolationsAfter(clock int64) int {
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
// observing an event allocates nothing (event-heavy campaign runs used to
// churn map buckets here — BenchmarkWaitingMonitor tracks the delta against
// the historical map-based implementation).
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
