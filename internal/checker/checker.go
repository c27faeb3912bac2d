// Package checker provides the invariant monitors the campaign engine,
// kofl.System and tests hang off a simulation. Run is the one a run carries:
// it embeds CensusMonitor (legitimacy, availability and the k-out-of-ℓ
// safety predicate, read from the maintained census once per step) and
// handles every protocol event in one observer — the paper's waiting-time
// metric, grant counts and the root controller's laps. CensusMonitor also
// attaches alone, where only the census matters; DFSOrder checks the
// circulation order of Figure 1.
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

// MaxViolationTexts is how many breaches a ViolationRecord keeps with their
// texts: the first ones.
const MaxViolationTexts = 64

// ViolationRecord is what a monitor retains of the safety breaches it saw,
// in memory that does not grow with their number. Before convergence the
// paper expects a breach at every step for as long as the arbitrary start
// lasts, so the record keeps the first MaxViolationTexts breaches with
// their texts, the total, and where the breaches were in time only as far
// as convergence questions need it: a breach at a step whose census was
// illegitimate can never be after a convergence point (ConvergedAt is past
// the last illegitimate census), so those are one settled count; the
// breaches since — at legitimate steps, which a correct protocol never
// has — are counted apart, with the clock of the first of them and how
// many it had. ViolationsAfter is therefore exact at the convergence point
// ConvergedAt reports, and for any clock before the first breach or at or
// after the latest one.
type ViolationRecord struct {
	// First holds the first MaxViolationTexts breaches, in clock order.
	First []SafetyViolation
	// Total counts every breach; Last is the clock of the latest one.
	Total int
	Last  int64

	settled     int   // breaches at or before the last illegitimate census
	settledLast int64 // clock of the latest settled breach
	recent      int   // breaches since the last illegitimate census
	recentFirst int64 // clock of the first recent breach
	atFirst     int   // recent breaches at recentFirst
}

// reset empties the record, keeping the capacity of First.
func (r *ViolationRecord) reset() { *r = ViolationRecord{First: r.First[:0]} }

// wantsText reports whether the next breach is kept with its text.
func (r *ViolationRecord) wantsText() bool { return len(r.First) < MaxViolationTexts }

// add records n > 0 breaches at clock, one step's.
func (r *ViolationRecord) add(clock int64, n int) {
	r.Total += n
	r.Last = clock
	if r.recent == 0 {
		r.recentFirst, r.atFirst = clock, n
	}
	r.recent += n
}

// settle moves every breach so far into the settled count: called at an
// illegitimate census, which no convergence point precedes.
func (r *ViolationRecord) settle() {
	if r.recent > 0 {
		r.settled += r.recent
		r.settledLast = r.Last
		r.recent = 0
	}
}

// After counts the breaches strictly after clock. It is exact where the
// record can place breaches — see ViolationRecord — and otherwise counts
// those it cannot place before clock as after it: it may overcount there,
// never undercount.
func (r *ViolationRecord) After(clock int64) int {
	if r.Total == 0 || clock >= r.Last {
		return 0
	}
	if clock < r.First[0].Clock {
		return r.Total
	}
	n := 0
	if clock < r.settledLast {
		n = r.settled
	}
	if r.recent > 0 {
		n += r.recent
		if clock >= r.recentFirst {
			n -= r.atFirst
		}
	}
	return n
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

	// Violations records the safety breaches, in bounded memory.
	Violations ViolationRecord
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
// while keeping the violation record's capacity: campaign workers recycle
// one monitor across slots, so steady-state runs record violations without
// allocating. Like NewCensusMonitor, it accounts for the initial
// configuration immediately.
func (m *CensusMonitor) Attach(s *sim.Sim) {
	m.s, m.k, m.l = s, s.Cfg.K, s.Cfg.L
	m.lastViolation = -1
	m.everCorrect = false
	m.LegitSteps = 0
	m.Violations.reset()
	s.AddStepHook(func(s *sim.Sim) { m.observe(s, true) })
	m.observe(s, false) // initial configuration: no step to count
}

func (m *CensusMonitor) observe(s *sim.Sim, isStep bool) {
	legit, unitsInUse, overK := s.Health()
	now, v := s.Now(), &m.Violations
	if legit {
		m.everCorrect = true
		if isStep {
			m.LegitSteps++
		}
	} else {
		m.lastViolation = now
	}
	breaches := 0
	if unitsInUse > m.l {
		breaches++
		if v.wantsText() {
			v.First = append(v.First, SafetyViolation{
				Clock: now,
				What:  fmt.Sprintf("%d units in use > ℓ=%d", unitsInUse, m.l),
			})
		}
	}
	if overK > 0 {
		// Rare: some process is in its critical section holding more than k
		// units. Only now is the O(n) scan paid, to name the offenders.
		for p := range s.Tree.N() {
			if n := s.Node(p); n.State() == core.In && n.Reserved() > m.k {
				breaches++
				if v.wantsText() {
					v.First = append(v.First, SafetyViolation{
						Clock: now,
						What:  fmt.Sprintf("process %d uses %d units > k=%d", p, n.Reserved(), m.k),
					})
				}
			}
		}
	}
	if breaches > 0 {
		v.add(now, breaches)
	}
	if !legit {
		v.settle()
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

// ViolationsAfter counts safety violations strictly after the given clock,
// exactly at the clock ConvergedAt reports (see ViolationRecord).
func (m *CensusMonitor) ViolationsAfter(clock int64) int { return m.Violations.After(clock) }

// Run is the monitor one run of the protocol carries: the census monitor
// (convergence, safety, availability) and, from a single protocol-event
// observer, the paper's waiting-time metric, per-process grant counts and
// the root controller's laps. Attaching it registers one step hook and one
// observer.
//
// The waiting time of a satisfied request is the number of critical-section
// entries by other processes between the request and its grant; Theorem 2
// bounds it by ℓ(2n-3)² once the protocol has stabilized.
//
// All per-process state is flat slices sized at attach time, so observing
// an event allocates nothing (TestWaitingFlattenedMatchesMapOracle holds the
// waiting metric equal to the historical map-based implementation).
type Run struct {
	CensusMonitor

	// Enters and Exits count critical-section entries and exits per process.
	Enters, Exits []int64

	// The root controller: completed circulations, those that reset, resource
	// tokens created by the root, tokens destroyed during resets, root
	// timeouts, and the last census the controller reported (res, prio, push).
	Completed, Resets, Created, Dropped, Timeouts int64
	LastCount                                     [3]int

	totalEnters int64   // critical-section entries, system-wide
	pendingAt   []int64 // per process: totalEnters at request time; -1 = no pending request
	maxWait     int64
	maxWaitOf   []int64
}

// NewRun attaches a run monitor to s. Like NewCensusMonitor, it accounts for
// the initial configuration immediately, so attach it once that
// configuration is established.
func NewRun(s *sim.Sim) *Run {
	r := &Run{}
	r.Attach(s)
	return r
}

// Attach (re)binds r to s, resetting it to the just-constructed state while
// reusing the per-process slices' capacity: campaign workers recycle one
// monitor across slots, so only a run on a larger tree than any predecessor
// on the same worker allocates.
func (r *Run) Attach(s *sim.Sim) {
	n := s.Tree.N()
	*r = Run{
		CensusMonitor: r.CensusMonitor,
		Enters:        reuse(r.Enters, n),
		Exits:         reuse(r.Exits, n),
		pendingAt:     reuse(r.pendingAt, n),
		maxWaitOf:     reuse(r.maxWaitOf, n),
	}
	for p := range r.pendingAt {
		r.pendingAt[p] = -1
	}
	r.CensusMonitor.Attach(s)
	s.AddObserver(r.onEvent)
}

// reuse returns b resliced to n zeroed entries, reallocating only when its
// capacity is short.
func reuse(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

func (r *Run) onEvent(e core.Event) {
	switch e.Kind {
	case core.EvRequest:
		r.pendingAt[e.P] = r.totalEnters
	case core.EvEnterCS:
		r.Enters[e.P]++
		if at := r.pendingAt[e.P]; at >= 0 {
			wait := r.totalEnters - at
			if wait > r.maxWait {
				r.maxWait = wait
			}
			if wait > r.maxWaitOf[e.P] {
				r.maxWaitOf[e.P] = wait
			}
			r.pendingAt[e.P] = -1
		}
		r.totalEnters++
	case core.EvExitCS:
		r.Exits[e.P]++
	case core.EvCirculation:
		r.Completed++
		r.LastCount = [3]int{e.N1, e.N2, e.N3}
		if e.Flag {
			r.Resets++
		}
	case core.EvCreate:
		r.Created += int64(e.N1)
	case core.EvDrop:
		r.Dropped++
	case core.EvTimeout:
		r.Timeouts++
	}
}

// Max returns the worst observed waiting time.
func (r *Run) Max() int64 { return r.maxWait }

// MaxOf returns the worst observed waiting time of process p.
func (r *Run) MaxOf(p int) int64 { return r.maxWaitOf[p] }

// Bound returns Theorem 2's worst-case bound ℓ(2n-3)² for the given system.
func Bound(n, l int) int64 {
	d := int64(2*n - 3)
	return int64(l) * d * d
}

// BoundRatio returns the worst observed waiting time as a fraction of
// Theorem 2's bound for an (n, ℓ) system — the bound-proximity statistic the
// campaign engine's outlier-trace predicate keys on (a run near 1.0 is a
// candidate counterexample worth a full trace).
func (r *Run) BoundRatio(n, l int) float64 {
	b := Bound(n, l)
	if b <= 0 {
		return 0
	}
	return float64(r.maxWait) / float64(b)
}

// Total returns the system-wide number of critical-section entries.
func (r *Run) Total() int64 { return r.totalEnters }

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
