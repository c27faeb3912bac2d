package workload

import (
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

// TestCycleSizeClass pins Cycle to the allocator's 64-byte size class: one
// Cycle per process is the largest per-process object the simulator's
// benchmark counts besides the process line itself.
func TestCycleSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Cycle{}); size > 64 {
		t.Fatalf("Cycle is %d bytes, want ≤ 64", size)
	}
	const calls = 10_000
	keep := make([]*Cycle, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = Fixed(1+i%2, 2, 4, 0)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / calls; per > 64 {
		t.Fatalf("Fixed allocates %.1f B per call, want ≤ 64", per)
	}
	runtime.KeepAlive(keep)
}

// refCycle is Cycle as it was laid out in 96 bytes — one deadline per phase
// (readyAt, holdUntil), the clock of the last entry (LastEnter), int fields
// and the inCS/csOver pair — kept verbatim as the oracle FuzzCycle holds the
// compact layout to.
type refCycle struct {
	need        int
	hold, think int64
	maxRequests int

	sim       *sim.Sim
	holdUntil int64
	readyAt   int64

	Grants    int
	Issued    int
	Enters    int
	LastEnter int64

	phase  Phase
	inCS   bool
	csOver bool
}

func (c *refCycle) Reset(need int, hold, think int64, maxRequests int) {
	*c = refCycle{need: need, hold: hold, think: think, maxRequests: maxRequests}
}

func (c *refCycle) EnterCS() {
	c.inCS = true
	c.csOver = false
	c.phase = Critical
	c.Enters++
	if c.sim != nil {
		c.LastEnter = c.sim.Now()
	}
	c.holdUntil = c.LastEnter + c.hold
}

func (c *refCycle) ReleaseCS() bool { return !c.inCS || c.csOver }

func (c *refCycle) Enabled(now int64) bool {
	switch c.phase {
	case Idle:
		if c.maxRequests < 0 {
			return false
		}
		if c.maxRequests > 0 && c.Issued >= c.maxRequests {
			return false
		}
		return now >= c.readyAt
	case Critical:
		return now >= c.holdUntil
	default:
		return false
	}
}

func (c *refCycle) WakeAt(now int64) int64 {
	switch c.phase {
	case Idle:
		if c.maxRequests < 0 || (c.maxRequests > 0 && c.Issued >= c.maxRequests) {
			return sim.NoWake
		}
		return c.readyAt
	case Critical:
		return c.holdUntil
	default:
		return sim.NoWake
	}
}

func (c *refCycle) Act(h Handle) {
	switch c.phase {
	case Idle:
		c.Issued++
		c.phase = Waiting
		if err := h.Request(c.need); err != nil {
			c.phase = Idle
			c.Issued--
			c.readyAt = h.Now() + retryBackoff
		}
	case Critical:
		c.csOver = true
		c.inCS = false
		c.Grants++
		c.phase = Idle
		c.readyAt = h.Now() + c.think
		h.Poll()
	}
}

// oracleHandle is the Handle an application under test acts through. Its
// Request either refuses (a transient fault has the process outside Out),
// accepts, or accepts and grants at once — the protocol entering the
// critical section inside the request — as the next operation chose; it
// records every call, so the two applications' calls can be compared.
type oracleHandle struct {
	clock *sim.Sim
	enter func() // the application's own EnterCS
	grant bool   // a successful request enters at once
	fail  bool   // the request is refused
	calls []int  // need of each request; -1 for a poll
}

func (h *oracleHandle) ID() int    { return 1 }
func (h *oracleHandle) Now() int64 { return h.clock.Now() }
func (h *oracleHandle) Poll()      { h.calls = append(h.calls, -1) }
func (h *oracleHandle) Request(need int) error {
	h.calls = append(h.calls, need)
	if h.fail {
		return errors.New("refused")
	}
	if h.grant {
		h.enter()
	}
	return nil
}

// Parameter tables the fuzz input indexes: 1<<40 is the tests' "hold
// forever", which the compact layout must not truncate.
var (
	oracleNeeds = []int{0, 1, 2, 3}
	oracleTimes = []int64{0, 1, 2, 5, 64, 1 << 40}
	oracleMaxes = []int{-1, 0, 1, 3}
)

// FuzzCycle drives the compact Cycle and the 96-byte reference through the
// same random sequence of EnterCS (from any phase: a fault can grant a
// process that is idle or waiting), Act (refused, accepted, or granted
// inside the request), Reset and clock advances, and asserts after every
// operation that Enabled, WakeAt, ReleaseCS, CurrentPhase, Grants, Issued
// and Enters agree, and that both made the same Handle calls. The clock is a
// running simulation's (nil when the input leaves the cycles unattached);
// EnterCS stamps it, which the reference records in LastEnter.
func FuzzCycle(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 1, 0, 4, 3, 1, 1, 4, 9, 1, 1, 4, 2})
	f.Add([]byte{1, 2, 5, 2, 2, 0, 0, 4, 1, 1, 2, 4, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		cfg := core.Config{K: 1, L: 2, CMAX: 2, Features: core.Full()}
		clock := sim.MustNew(tree.Chain(2), cfg, sim.Options{Seed: 1})
		c, ref := &Cycle{}, &refCycle{}
		reset := func() {
			need, hold := oracleNeeds[next()%len(oracleNeeds)], oracleTimes[next()%len(oracleTimes)]
			think, maxReq := oracleTimes[next()%len(oracleTimes)], oracleMaxes[next()%len(oracleMaxes)]
			c.Reset(need, hold, think, maxReq)
			ref.Reset(need, hold, think, maxReq)
			if next()%4 != 0 { // mostly attached to the clock
				c.sim, ref.sim = clock, clock
			}
		}
		reset()
		hc := &oracleHandle{clock: clock, enter: c.EnterCS}
		hr := &oracleHandle{clock: clock, enter: ref.EnterCS}
		for step := 0; len(ops) > 0; step++ {
			op := next() % 6
			switch op {
			case 0: // a grant, in whatever phase the cycle is
				c.EnterCS()
				ref.EnterCS()
				if ref.sim != nil && ref.LastEnter != clock.Now() {
					t.Fatalf("step %d: reference stamped entry at %d, clock %d", step, ref.LastEnter, clock.Now())
				}
			case 1, 2, 3: // act: refused, accepted, granted inside the request
				for _, h := range []*oracleHandle{hc, hr} {
					h.fail, h.grant = op == 1, op == 3
				}
				c.Act(hc)
				ref.Act(hr)
			case 4: // the clock runs 1..64 steps, or to the reference's deadline
				d := int64(next()%64 + 1)
				if w := ref.WakeAt(clock.Now()) - clock.Now(); next()%2 == 0 && w > 0 && w <= 1024 {
					d = w
				}
				clock.Run(d)
			case 5:
				reset()
			}
			now := clock.Now()
			for _, at := range []int64{now, now + 1, now + retryBackoff, now + 1<<40} {
				if got, want := c.Enabled(at), ref.Enabled(at); got != want {
					t.Fatalf("step %d (op %d): Enabled(%d) = %v, reference %v", step, op, at, got, want)
				}
			}
			if got, want := c.WakeAt(now), ref.WakeAt(now); got != want {
				t.Fatalf("step %d (op %d): WakeAt = %d, reference %d", step, op, got, want)
			}
			if got, want := c.ReleaseCS(), ref.ReleaseCS(); got != want {
				t.Fatalf("step %d (op %d): ReleaseCS = %v, reference %v", step, op, got, want)
			}
			if c.CurrentPhase() != ref.phase {
				t.Fatalf("step %d (op %d): phase %v, reference %v", step, op, c.CurrentPhase(), ref.phase)
			}
			if int(c.Grants) != ref.Grants || int(c.Issued) != ref.Issued || int(c.Enters) != ref.Enters {
				t.Fatalf("step %d (op %d): grants/issued/enters %d/%d/%d, reference %d/%d/%d",
					step, op, c.Grants, c.Issued, c.Enters, ref.Grants, ref.Issued, ref.Enters)
			}
			if len(hc.calls) != len(hr.calls) {
				t.Fatalf("step %d (op %d): handle calls %v, reference %v", step, op, hc.calls, hr.calls)
			}
			for i := range hc.calls {
				if hc.calls[i] != hr.calls[i] {
					t.Fatalf("step %d (op %d): handle calls %v, reference %v", step, op, hc.calls, hr.calls)
				}
			}
		}
	})
}
