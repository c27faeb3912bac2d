// Package workload provides the simulated application that drives requests
// against the protocol: a fixed request loop (request need units, hold,
// think, repeat), bounded or unbounded, or release-only for requests issued
// from outside.
//
// An application is a small state machine around the paper's interface: it
// switches State from Out to Req (via Handle.Request), the protocol grants
// the critical section by calling EnterCS, and the application signals
// completion by answering ReleaseCS()=true and polling the protocol.
package workload

import "kofl/internal/sim"

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

// Cycle is a request loop: think, request need units, hold the critical
// section for hold steps, release, repeat (up to maxRequests grants).
// Durations are measured on the simulation clock. The whole application is
// one allocation in the 64-byte size class (TestCycleSizeClass), and Reset
// recycles it for a different configuration.
type Cycle struct {
	sim         *sim.Sim // the clock (nil until Attach)
	hold, think int64
	// due is the phase's one deadline: when an idle cycle may request again,
	// or when a critical one releases. A waiting cycle has none.
	due         int64
	need        int32
	maxRequests int32

	// Stats.
	Grants int32 // completed critical sections
	Issued int32 // requests issued (and not refused)
	Enters int32 // critical sections entered

	phase Phase
}

// Fixed returns a Cycle that always requests need units, holds for hold
// steps and thinks for think steps between requests. maxRequests stops the
// loop after that many issued requests: 0 = unbounded; negative = never
// issue requests at all, making the Cycle a pure releaser for requests
// issued externally through a sim.Handle — useful to reproduce the paper's
// figure configurations where processes START in the Req state.
func Fixed(need int, hold, think int64, maxRequests int) *Cycle {
	c := &Cycle{}
	c.Reset(need, hold, think, maxRequests)
	return c
}

// Reset returns c to its just-constructed state under new parameters,
// reusing the allocation — the campaign engine's workers recycle one Cycle
// per process across slots.
func (c *Cycle) Reset(need int, hold, think int64, maxRequests int) {
	*c = Cycle{need: int32(need), hold: hold, think: think, maxRequests: int32(maxRequests)}
}

// CurrentPhase returns where the application currently stands.
func (c *Cycle) CurrentPhase() Phase { return c.phase }

// EnterCS implements core.App: the protocol granted the request. The
// release time is fixed here, once per grant, so the kernel can register it
// as a wake-up instead of polling. A Cycle not attached to a simulation
// reads the clock as 0.
func (c *Cycle) EnterCS() {
	c.phase = Critical
	c.Enters++
	var now int64
	if c.sim != nil {
		now = c.sim.Now()
	}
	c.due = now + c.hold
}

// ReleaseCS implements core.App.
func (c *Cycle) ReleaseCS() bool { return c.phase != Critical }

// Enabled implements sim.App.
func (c *Cycle) Enabled(now int64) bool {
	switch c.phase {
	case Idle:
		return !c.done() && now >= c.due
	case Critical:
		return now >= c.due
	default:
		return false
	}
}

// WakeAt implements sim.App: enablement is a pure deadline per phase (due),
// so idle generators cost the kernel nothing until their deadline arrives.
func (c *Cycle) WakeAt(now int64) int64 {
	if c.phase == Waiting || (c.phase == Idle && c.done()) {
		return sim.NoWake // waiting: only the protocol's grant enables us
	}
	return c.due
}

// done reports whether an idle cycle issues no more requests: it is
// release-only (requests are issued externally), or its budget is spent.
func (c *Cycle) done() bool {
	return c.maxRequests < 0 || (c.maxRequests > 0 && c.Issued >= c.maxRequests)
}

// Act implements sim.App.
func (c *Cycle) Act(h Handle) {
	switch c.phase {
	case Idle:
		c.Issued++
		c.phase = Waiting
		if err := h.Request(int(c.need)); err != nil {
			// Only possible while a transient fault has the process outside
			// Out; back off and let the protocol converge.
			c.phase = Idle
			c.Issued--
			c.due = h.Now() + retryBackoff
		}
	case Critical:
		c.Grants++
		c.phase = Idle
		c.due = h.Now() + c.think
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
