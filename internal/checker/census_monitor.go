package checker

import (
	"fmt"

	"kofl/internal/core"
	"kofl/internal/sim"
)

// CensusMonitor fuses the three census-consuming monitors a campaign run
// needs — legitimacy/convergence tracking, the k-out-of-ℓ safety predicate,
// and legitimate-step counting for availability — into one step hook that
// reads the global census exactly once per step, through sim.Health: the
// kernel's incrementally maintained census evaluated in place (see the sim
// package's census kernel), so one observation is O(1) and copies nothing;
// the per-process over-k check rides on the census's maintained OverK
// violation counter and only falls back to a node scan in the rare steps
// where a violation actually exists. Under
// sim.Options.ScanCensus the same monitor transparently runs against the
// snapshot oracle — which is what the census differential tests compare
// against.
type CensusMonitor struct {
	s    *sim.Sim
	k, l int

	// Legitimacy (mirrors Legitimacy's fields and semantics).
	lastViolation int64
	everCorrect   bool

	// LegitSteps counts executed steps whose census was legitimate (the
	// initial configuration is not a step and is not counted).
	LegitSteps int64

	// Safety violations (mirrors Safety's recording).
	Violations []SafetyViolation
}

// NewCensusMonitor attaches a fused census monitor to s. Like
// NewLegitimacy, it accounts for the initial configuration immediately.
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
// continuously legitimate, and whether that has happened at all
// (identical semantics to Legitimacy.ConvergedAt).
func (m *CensusMonitor) ConvergedAt() (int64, bool) {
	if !m.s.TokensCorrect() || !m.everCorrect {
		return 0, false
	}
	return m.lastViolation + 1, true
}

// ViolationsAfter counts safety violations strictly after the given clock
// (identical semantics to Safety.ViolationsAfter).
func (m *CensusMonitor) ViolationsAfter(clock int64) int {
	n := 0
	for _, v := range m.Violations {
		if v.Clock > clock {
			n++
		}
	}
	return n
}
