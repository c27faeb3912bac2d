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

	// granted is Critical before the kernel's first poll has dated the
	// grant: due still reads it as a grant at clock 0 (CurrentPhase reports
	// Critical).
	granted
)

// retryBackoff delays re-issuing a request after the protocol refused one
// (possible only while a transient fault left the process outside Out).
const retryBackoff = 64

// Cycle is a request loop: think, request need units, hold the critical
// section for hold steps, release, repeat (up to maxRequests grants).
// Durations are measured on the simulation clock, which a Cycle does not
// keep: Act reads it from its Handle, and the grant's from the kernel's poll
// (WakeAt). The whole application is one pointer-free allocation in the
// 48-byte size class (TestCycleSizeClass, TestCycleHasNoPointers), and Reset
// recycles it for a different configuration.
type Cycle struct {
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
func (c *Cycle) CurrentPhase() Phase { return min(c.phase, Critical) }

// EnterCS implements core.App: the protocol granted the request. The
// release time is fixed once per grant, so the kernel can register it as a
// wake-up instead of polling: at the grant's clock plus hold. The kernel
// passes that clock to the poll it makes in the same step (WakeAt); until
// then, and in a Cycle driven outside a simulation, the grant reads as one
// at clock 0.
func (c *Cycle) EnterCS() {
	c.phase = granted
	c.Enters++
	c.due = c.hold
}

// ReleaseCS implements core.App.
func (c *Cycle) ReleaseCS() bool { return c.phase < Critical }

// Enabled implements sim.App.
func (c *Cycle) Enabled(now int64) bool {
	switch c.phase {
	case Idle:
		return !c.done() && now >= c.due
	case Critical, granted:
		return now >= c.due
	default:
		return false
	}
}

// WakeAt implements sim.App: enablement is a pure deadline per phase (due),
// so idle generators cost the kernel nothing until their deadline arrives.
// The first call after a grant dates it: the kernel makes it in the grant's
// step, with the grant's clock.
func (c *Cycle) WakeAt(now int64) int64 {
	switch {
	case c.phase == granted:
		c.phase, c.due = Critical, now+c.hold
	case c.phase == Waiting || (c.phase == Idle && c.done()):
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
	case Critical, granted:
		c.Grants++
		c.phase = Idle
		c.due = h.Now() + c.think
		h.Poll()
	}
}

// Handle aliases sim.Handle for callers of this package.
type Handle = sim.Handle

// Attach installs c as process p's application in s and returns it.
func Attach(s *sim.Sim, p int, c *Cycle) *Cycle {
	s.AttachApp(p, c)
	return c
}

var _ sim.App = (*Cycle)(nil)
