// Package workload provides the simulated applications that drive requests
// against the protocol: generic generators (saturating, random think-time,
// one-shot) and the exact scenarios of the paper's figures.
//
// An application is a small state machine around the paper's interface: it
// switches State from Out to Req (via Handle.Request), the protocol grants
// the critical section by calling EnterCS, and the application signals
// completion by answering ReleaseCS()=true and polling the protocol.
package workload

import (
	"math/rand"

	"kofl/internal/sim"
)

// Phase tracks where an application stands in its request cycle.
type Phase uint8

const (
	// Idle: State=Out, thinking (or done).
	Idle Phase = iota
	// Waiting: request issued, not yet granted.
	Waiting
	// Critical: inside the critical section.
	Critical
)

// retryBackoff delays re-issuing a request after the protocol refused one
// (possible only while a transient fault left the process outside Out).
const retryBackoff = 64

// Cycle is a generic request loop: think, request NeedFn units, hold the
// critical section for HoldFn steps, release, repeat (up to MaxRequests
// grants). Durations are measured on the simulation clock; randomness (if
// any) comes from the generator's own seeded RNG so runs stay reproducible.
type Cycle struct {
	// NeedFn yields the size of the i-th request (1-based), HoldFn the
	// critical-section duration in simulation steps, ThinkFn the pause before
	// the next request. A nil function selects the fixed parameter Fixed set
	// (zero for a Cycle built any other way).
	NeedFn  func(i int) int
	HoldFn  func(i int) int64
	ThinkFn func(i int) int64
	// MaxRequests stops the loop after that many issued requests
	// (0 = unbounded; negative = never issue requests at all, making the
	// Cycle a pure releaser for requests issued externally through a
	// sim.Handle — useful to reproduce the paper's figure configurations
	// where processes START in the Req state).
	MaxRequests int

	// The fixed parameters, read directly where the function is nil: a Fixed
	// cycle is this one struct, no closures.
	fixedNeed  int
	fixedHold  int64
	fixedThink int64

	sim       *sim.Sim // the clock (nil until Attach)
	requests  int
	holdUntil int64
	readyAt   int64

	// Stats.
	Grants    int   // completed critical sections
	Issued    int   // requests issued
	Enters    int   // critical sections entered
	LastEnter int64 // clock of the most recent entry

	phase  Phase
	inCS   bool
	csOver bool
}

// NewCycle returns a Cycle with the given closures; a nil HoldFn means
// zero-length critical sections and a nil ThinkFn no think time.
func NewCycle(needFn func(int) int, holdFn, thinkFn func(int) int64, maxRequests int) *Cycle {
	if holdFn == nil {
		holdFn = func(int) int64 { return 0 }
	}
	if thinkFn == nil {
		thinkFn = func(int) int64 { return 0 }
	}
	return &Cycle{NeedFn: needFn, HoldFn: holdFn, ThinkFn: thinkFn, MaxRequests: maxRequests}
}

// Fixed returns a Cycle that always requests need units, holds for hold
// steps and thinks for think steps between requests: the three functions
// stay nil and the parameters are read from the struct, so the whole
// application is one allocation and ResetFixed can recycle it for a
// different configuration.
func Fixed(need int, hold, think int64, maxRequests int) *Cycle {
	c := &Cycle{}
	c.ResetFixed(need, hold, think, maxRequests)
	return c
}

// ResetFixed returns a Fixed cycle to its just-constructed state under new
// parameters, reusing the allocation — the campaign engine's workers recycle
// one Cycle per process across slots. It panics on cycles not built by Fixed,
// whose closures would silently ignore the new parameters.
func (c *Cycle) ResetFixed(need int, hold, think int64, maxRequests int) {
	if c.NeedFn != nil || c.HoldFn != nil || c.ThinkFn != nil {
		panic("workload: ResetFixed on a cycle not built by Fixed")
	}
	*c = Cycle{fixedNeed: need, fixedHold: hold, fixedThink: think, MaxRequests: maxRequests}
}

func (c *Cycle) need(i int) int {
	if c.NeedFn != nil {
		return c.NeedFn(i)
	}
	return c.fixedNeed
}

func (c *Cycle) hold(i int) int64 {
	if c.HoldFn != nil {
		return c.HoldFn(i)
	}
	return c.fixedHold
}

func (c *Cycle) think(i int) int64 {
	if c.ThinkFn != nil {
		return c.ThinkFn(i)
	}
	return c.fixedThink
}

// Uniform returns a Cycle requesting uniformly in [1..maxNeed] units with
// hold/think times uniform in [0..maxHold]/[0..maxThink], drawn from rng.
// Each duration is sampled once per request cycle (hold at CS entry, think
// at release), so the draw sequence is a pure function of the grant history.
// (Historically the hold duration was re-drawn on every enablement poll,
// making it scheduler-dependent; seeded Uniform runs therefore do not replay
// pre-incremental-kernel traces. Fixed workloads are unaffected.)
func Uniform(maxNeed int, maxHold, maxThink int64, rng *rand.Rand, maxRequests int) *Cycle {
	return NewCycle(
		func(int) int { return 1 + rng.Intn(maxNeed) },
		func(int) int64 {
			if maxHold <= 0 {
				return 0
			}
			return rng.Int63n(maxHold + 1)
		},
		func(int) int64 {
			if maxThink <= 0 {
				return 0
			}
			return rng.Int63n(maxThink + 1)
		},
		maxRequests)
}

// Phase returns where the application currently stands.
func (c *Cycle) CurrentPhase() Phase { return c.phase }

// EnterCS implements core.App: the protocol granted the request. The
// critical-section duration is sampled here, once per grant (not re-sampled
// on every enablement check), so the kernel can register the release time as
// a wake-up instead of polling.
func (c *Cycle) EnterCS() {
	c.inCS = true
	c.csOver = false
	c.phase = Critical
	c.Enters++
	if c.sim != nil {
		c.LastEnter = c.sim.Now()
	}
	c.holdUntil = c.LastEnter + c.hold(c.requests)
}

// ReleaseCS implements core.App.
func (c *Cycle) ReleaseCS() bool { return !c.inCS || c.csOver }

// Enabled implements sim.App.
func (c *Cycle) Enabled(now int64) bool {
	switch c.phase {
	case Idle:
		if c.MaxRequests < 0 {
			return false // release-only: requests are issued externally
		}
		if c.MaxRequests > 0 && c.requests >= c.MaxRequests {
			return false
		}
		return now >= c.readyAt
	case Critical:
		return now >= c.holdUntil
	default:
		return false
	}
}

// WakeAt implements sim.App: enablement is a pure deadline per phase
// (readyAt while idle, holdUntil while critical), so idle generators cost
// the kernel nothing until their deadline arrives.
func (c *Cycle) WakeAt(now int64) int64 {
	switch c.phase {
	case Idle:
		if c.MaxRequests < 0 || (c.MaxRequests > 0 && c.requests >= c.MaxRequests) {
			return sim.NoWake
		}
		return c.readyAt
	case Critical:
		return c.holdUntil
	default:
		return sim.NoWake // Waiting: only the protocol's grant enables us
	}
}

// Act implements sim.App.
func (c *Cycle) Act(h Handle) {
	switch c.phase {
	case Idle:
		c.requests++
		c.Issued++
		c.phase = Waiting
		if err := h.Request(c.need(c.requests)); err != nil {
			// Only possible while a transient fault has the process outside
			// Out; back off and let the protocol converge.
			c.phase = Idle
			c.requests--
			c.Issued--
			c.readyAt = h.Now() + retryBackoff
		}
	case Critical:
		c.csOver = true
		c.inCS = false
		c.Grants++
		c.phase = Idle
		c.readyAt = h.Now() + c.think(c.requests)
		h.Poll()
	}
}

// Handle aliases sim.Handle for callers of this package.
type Handle = sim.Handle

// Attach binds c to process p of s (giving it the simulation clock) and
// installs it as p's application.
func Attach(s *sim.Sim, p int, c *Cycle) *Cycle {
	c.sim = s
	s.AttachApp(p, c)
	return c
}

var _ sim.App = (*Cycle)(nil)
