package workload

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

// TestCycleSizeClass pins Cycle to the allocator's 48-byte size class: one
// Cycle per process is the largest per-process object the simulator's
// benchmark counts besides the process line itself. Fixed makes one
// allocation, the Cycle, so a Cycle of ≤ 48 bytes costs ≤ 48 B per call;
// AllocsPerRun counts the calls' allocations alone, whatever else runs.
func TestCycleSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Cycle{}); size > 48 {
		t.Fatalf("Cycle is %d bytes, want ≤ 48", size)
	}
	if allocs := testing.AllocsPerRun(1000, func() { fixedSink = Fixed(2, 2, 4, 0) }); allocs != 1 {
		t.Fatalf("Fixed makes %v allocations per call, want 1 (the Cycle)", allocs)
	}
}

// fixedSink keeps TestCycleSizeClass's Cycles on the heap.
var fixedSink *Cycle

// TestCycleHasNoPointers keeps Cycle pointer-free: the collector then never
// scans the one Cycle per process a big simulation holds, and nothing in it
// is the same in every process (a clock it can take from the kernel's polls).
func TestCycleHasNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Cycle{})
	for i := range typ.NumField() {
		if f := typ.Field(i); holdsPointer(f.Type) {
			t.Errorf("Cycle.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}

// holdsPointer reports whether a value of type typ contains a pointer the
// collector must scan.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.String:
		return true
	}
	return false
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
// and Enters agree, that both made the same Handle calls, and, after every
// EnterCS, that the Cycle's deadline is the grant's clock plus hold. The
// clock is a running simulation's. A Cycle attached to it is polled after
// every operation as the kernel polls, WakeAt first, which dates a grant;
// the reference stamps the clock in EnterCS, into LastEnter. A Cycle the
// input leaves unattached is driven outside a simulation: no poll dates its
// grants, which read as grants at clock 0, and the reference stamps nothing.
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
		var attached bool
		reset := func() {
			need, hold := oracleNeeds[next()%len(oracleNeeds)], oracleTimes[next()%len(oracleTimes)]
			think, maxReq := oracleTimes[next()%len(oracleTimes)], oracleMaxes[next()%len(oracleMaxes)]
			c.Reset(need, hold, think, maxReq)
			ref.Reset(need, hold, think, maxReq)
			if attached = next()%4 != 0; attached { // mostly attached to the clock
				ref.sim = clock
			}
		}
		reset()
		hc := &oracleHandle{clock: clock, enter: c.EnterCS}
		hr := &oracleHandle{clock: clock, enter: ref.EnterCS}
		for step := 0; len(ops) > 0; step++ {
			enters := ref.Enters
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
			if attached {
				c.WakeAt(now) // the kernel's poll, in the step of the operation
			}
			if op != 5 && ref.Enters != enters { // a grant, not a Reset
				var grant int64 // outside a simulation the clock reads as 0
				if attached {
					grant = now
				}
				if c.due != grant+ref.hold || ref.holdUntil != c.due {
					t.Fatalf("step %d (op %d): due %d after a grant at %d holding %d, reference %d",
						step, op, c.due, grant, ref.hold, ref.holdUntil)
				}
			}
			for _, at := range []int64{now, now + 1, now + retryBackoff, now + 1<<40} {
				if got, want := c.Enabled(at), ref.Enabled(at); got != want {
					t.Fatalf("step %d (op %d): Enabled(%d) = %v, reference %v", step, op, at, got, want)
				}
			}
			// A grant no poll has dated stays so: asking WakeAt would date it.
			if attached || c.phase != granted {
				if got, want := c.WakeAt(now), ref.WakeAt(now); got != want {
					t.Fatalf("step %d (op %d): WakeAt = %d, reference %d", step, op, got, want)
				}
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
