package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kofl/internal/obs"
	"kofl/internal/tree"
)

// fakeEnv records what a ledger does to the world. Every test below drives
// the ledger in virtual time: no sleeps, no wall clock.
type fakeEnv struct {
	refuse   error
	requests []int
	releases int               // protocol releases (cycles handed back)
	answers  map[string]string // request id → "lease <id>" or the reject code
	ended    map[string]int64  // lease id → its obs.Release… cause
	back     int               // units accounted back by end
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{answers: map[string]string{}, ended: map[string]int64{}}
}

func (e *fakeEnv) request(units int) error {
	e.requests = append(e.requests, units)
	return e.refuse
}

func (e *fakeEnv) release() { e.releases++ }

func (e *fakeEnv) answer(id, a string) {
	if prev, dup := e.answers[id]; dup {
		panic(fmt.Sprintf("request %s answered twice: %s, then %s", id, prev, a))
	}
	e.answers[id] = a
}

func (e *fakeEnv) reject(pa *pendingAcquire, code, _ string) { e.answer(pa.req.ID, code) }

func (e *fakeEnv) grant(pa *pendingAcquire, id string, _ time.Time) {
	e.answer(pa.req.ID, "lease "+id)
}

func (e *fakeEnv) end(l lease, cause int64) {
	if prev, dup := e.ended[l.id]; dup {
		panic(fmt.Sprintf("lease %s ended twice: cause %d, then %d", l.id, prev, cause))
	}
	e.ended[l.id] = cause
	e.back += l.units
}

// leaseOf is the lease id granted to request id ("" if none).
func (e *fakeEnv) leaseOf(id string) string {
	a, _ := strings.CutPrefix(e.answers[id], "lease ")
	if a == e.answers[id] {
		return ""
	}
	return a
}

var t0 = time.Date(2009, 5, 25, 0, 0, 0, 0, time.UTC)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// member builds a pending acquire received at t0.
func member(id string, units int, deadlineMS, leaseMS int64) *pendingAcquire {
	pa := &pendingAcquire{req: Request{Op: OpAcquire, ID: id, Units: units, DeadlineMS: deadlineMS, LeaseMS: leaseMS}}
	pa.enqueued = t0
	pa.deadline = pa.req.deadlineAt(t0)
	return pa
}

func newTestLedger() (*ledger, *fakeEnv) {
	env := newFakeEnv()
	return &ledger{p: 1, k: 5, ttl: 10 * time.Second, env: env}, env
}

// open hands an idle ledger its members and opens their cycle at t0.
func open(l *ledger, members ...*pendingAcquire) {
	for _, pa := range members {
		l.enqueue(pa)
	}
	l.begin(t0)
}

// TestLedgerDeadlineBeforeGrant: a member whose deadline passes while its
// cycle waits on the protocol is answered at its deadline, not at the grant;
// the request stays outstanding and its units ride out the cycle.
func TestLedgerDeadlineBeforeGrant(t *testing.T) {
	led, env := newTestLedger()
	open(led, member("a", 1, 30, 0), member("b", 1, 0, 0))
	if len(env.requests) != 1 || env.requests[0] != 2 {
		t.Fatalf("requests %v, want one of 2 units", env.requests)
	}
	if w := led.wake(); !w.Equal(t0.Add(ms(30))) {
		t.Fatalf("wake %v, want the 30ms deadline", w.Sub(t0))
	}
	led.tick(t0.Add(ms(30) - 1))
	if len(env.answers) != 0 {
		t.Fatalf("answered before the deadline: %v", env.answers)
	}
	led.tick(t0.Add(ms(30)))
	if env.answers["a"] != CodeDeadline || (led.units == 0 || len(led.leases) != 0) || env.releases != 0 {
		t.Fatalf("at the deadline: answers %v waiting %v releases %d, want a=deadline, cycle still requested",
			env.answers, (led.units > 0 && len(led.leases) == 0), env.releases)
	}
	if !led.wake().IsZero() {
		t.Fatalf("wake %v with no deadline or lease left", led.wake())
	}
	led.grant(t0.Add(time.Second))
	id := env.leaseOf("b")
	if id == "" || env.releases != 0 {
		t.Fatalf("grant: answers %v releases %d, want b leased and the cycle held", env.answers, env.releases)
	}
	led.release(id)
	if env.releases != 1 || env.back != 1 || led.units != 0 {
		t.Fatalf("after b's release: releases %d back %d open %v, want the cycle back", env.releases, env.back, led.units != 0)
	}

	// A cycle whose only member gave up still waits for its grant, then goes
	// straight back to the protocol.
	open(led, member("c", 2, 5, 0))
	led.tick(t0.Add(ms(5)))
	if env.answers["c"] != CodeDeadline || env.releases != 1 {
		t.Fatalf("c: answer %q releases %d", env.answers["c"], env.releases)
	}
	led.grant(t0.Add(ms(50)))
	if env.releases != 2 || led.units != 0 {
		t.Fatalf("empty grant: releases %d open %v, want it handed straight back", env.releases, led.units != 0)
	}
}

// TestLedgerDeadlineAtGrant: a grant at or after a member's deadline rejects
// that member (its units ride out the cycle); a grant before it leases.
func TestLedgerDeadlineAtGrant(t *testing.T) {
	led, env := newTestLedger()
	open(led, member("at", 1, 20, 0), member("after", 1, 21, 0))
	led.grant(t0.Add(ms(20)))
	if env.answers["at"] != CodeDeadline {
		t.Fatalf("member with deadline == grant time: %q, want deadline", env.answers["at"])
	}
	id := env.leaseOf("after")
	if id == "" {
		t.Fatalf("member with deadline after the grant: %q, want a lease", env.answers["after"])
	}
	if env.releases != 0 {
		t.Fatal("cycle handed back while a lease is held")
	}
	led.release(id)
	if env.releases != 1 || env.back != 1 {
		t.Fatalf("releases %d back %d, want 1 and 1", env.releases, env.back)
	}
}

// TestLedgerLeaseTTLClamp: lease_ms shrinks the lease but never stretches it
// past the server maximum — including values whose conversion to a Duration
// would wrap negative — and the lease expires exactly at its TTL.
func TestLedgerLeaseTTLClamp(t *testing.T) {
	max := 10 * time.Second
	cases := []struct {
		leaseMS int64
		want    time.Duration
	}{
		{0, max},
		{40, ms(40)},
		{10_000, max},
		{20_000, max},
		{1e13, max},
		{9_223_372_036_855, max}, // the first value whose ms→ns product overflows
		{1<<63 - 1, max},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.leaseMS), func(t *testing.T) {
			led, env := newTestLedger()
			open(led, member("a", 2, 0, tc.leaseMS))
			led.grant(t0)
			if w := led.wake(); !w.Equal(t0.Add(tc.want)) {
				t.Fatalf("expiry after %v, want %v", w.Sub(t0), tc.want)
			}
			led.tick(t0.Add(tc.want - 1))
			if len(env.ended) != 0 {
				t.Fatalf("expired early: %v", env.ended)
			}
			led.tick(t0.Add(tc.want))
			if env.ended[env.leaseOf("a")] != obs.ReleaseExpired || env.back != 2 || env.releases != 1 {
				t.Fatalf("at the TTL: ended %v back %d releases %d", env.ended, env.back, env.releases)
			}
		})
	}
}

// TestLedgerDrainTimeout: drain answers waiting members at once, lets
// clients release until the drain time, force-releases the rest at it, and
// the ledger is done once nothing is held.
func TestLedgerDrainTimeout(t *testing.T) {
	led, env := newTestLedger()
	open(led, member("a", 1, 0, 0), member("b", 1, 0, 0))
	led.grant(t0)
	drainAt := t0.Add(5 * time.Second)
	led.drain(drainAt, t0.Add(time.Second))
	if led.done() || len(env.ended) != 0 {
		t.Fatalf("drain forced early: ended %v", env.ended)
	}
	if w := led.wake(); !w.Equal(drainAt) {
		t.Fatalf("wake %v, want the drain time", w.Sub(t0))
	}
	led.release(env.leaseOf("a"))
	if env.releases != 0 || led.done() {
		t.Fatalf("after one release: releases %d done %v", env.releases, led.done())
	}
	led.tick(drainAt)
	if env.ended[env.leaseOf("b")] != obs.ReleaseDrain || env.releases != 1 || !led.done() {
		t.Fatalf("at the drain time: ended %v releases %d done %v", env.ended, env.releases, led.done())
	}
	// Close's earlier drain time changes nothing once drained.
	led.drain(t0, drainAt)
	if env.releases != 1 {
		t.Fatal("drained ledger released twice")
	}

	// A cycle still waiting on the protocol: its members are answered
	// draining at once and the ledger is done without the grant.
	led, env = newTestLedger()
	open(led, member("w", 1, 0, 0))
	led.drain(t0.Add(time.Hour), t0)
	if env.answers["w"] != CodeDraining || !led.done() || env.releases != 0 {
		t.Fatalf("waiting cycle: answers %v done %v releases %d", env.answers, led.done(), env.releases)
	}
}

// TestLedgerRefusedRequestSheds: a protocol refusal answers every member
// overload and leaves the ledger idle.
func TestLedgerRefusedRequestSheds(t *testing.T) {
	led, env := newTestLedger()
	env.refuse = errors.New("not in Out")
	open(led, member("a", 1, 0, 0), member("b", 2, 0, 0))
	if env.answers["a"] != CodeOverload || env.answers["b"] != CodeOverload || led.units != 0 {
		t.Fatalf("answers %v open %v", env.answers, led.units != 0)
	}
}

// TestLedgerUnitsReturnOnce is the sub-lease accounting contract: however
// the members of a cycle resolve — client release, expiry, drain, a
// grant-time reject, a deadline before the grant — and in every order the
// protocol allows, the cycle's units go back to the protocol exactly once,
// when it is granted and its last member has resolved, never earlier.
func TestLedgerUnitsReturnOnce(t *testing.T) {
	kinds := []string{"release", "expiry", "drain", "grant-reject", "deadline"}
	orders := 0
	for set := 1; set < 1<<len(kinds); set++ {
		var chosen []string
		for i, k := range kinds {
			if set&(1<<i) != 0 {
				chosen = append(chosen, k)
			}
		}
		permute(chosen, func(order []string) {
			if !realizable(order) {
				return
			}
			orders++
			t.Run(strings.Join(order, ">"), func(t *testing.T) { runOrder(t, order) })
		})
	}
	// 4 pre-grant choices × 10 post-grant orders, less the empty cycle.
	if orders != 39 {
		t.Fatalf("%d realizable orders, want 39", orders)
	}
}

// realizable: the pre-grant resolutions come first, the deadline reject
// before the grant-time one, and drain — which takes whatever is left at
// its time — comes last.
func realizable(order []string) bool {
	pos := map[string]int{}
	for i, k := range order {
		pos[k] = i
	}
	pre := 0
	for k := range preGrant {
		if _, ok := pos[k]; ok {
			pre++
		}
	}
	for k, i := range pos {
		if preGrant[k] != (i < pre) {
			return false
		}
	}
	if d, ok := pos["deadline"]; ok && pre == 2 && d != 0 {
		return false
	}
	if d, ok := pos["drain"]; ok && d != len(order)-1 {
		return false
	}
	return true
}

func runOrder(t *testing.T, order []string) {
	led, env := newTestLedger()
	grantAt := t0.Add(ms(100))
	// Post-grant events happen 10ms apart after the grant, in order.
	at := map[string]time.Time{}
	for i, k := range order {
		at[k] = grantAt.Add(ms(10 * (i + 1)))
	}
	var members []*pendingAcquire
	units := 0
	for _, k := range order {
		var pa *pendingAcquire
		switch k {
		case "deadline":
			pa = member(k, 1, 50, 0)
		case "grant-reject":
			pa = member(k, 1, 100, 0) // due exactly at the grant
		case "expiry":
			pa = member(k, 1, 0, int64(at[k].Sub(grantAt)/time.Millisecond))
		default:
			pa = member(k, 1, 0, 0)
		}
		members = append(members, pa)
		units++
	}
	open(led, members...)
	granted := false
	grant := func() {
		if granted {
			return
		}
		granted = true
		led.grant(grantAt)
		if d, ok := at["drain"]; ok {
			led.drain(d, grantAt)
		}
	}
	for i, k := range order {
		if env.releases != 0 {
			t.Fatalf("cycle handed back before resolving %s (step %d)", k, i)
		}
		switch k {
		case "deadline":
			led.tick(t0.Add(ms(50)))
		case "grant-reject":
			grant()
		case "release":
			grant()
			led.release(env.leaseOf(k))
		case "expiry", "drain":
			grant()
			led.tick(at[k])
		}
		if !resolved(env, k) {
			t.Fatalf("%s not resolved at its step", k)
		}
	}
	grant() // a cycle of pre-grant resolutions only still waits for its grant
	if env.releases != 1 {
		t.Fatalf("protocol releases %d, want exactly 1", env.releases)
	}
	causes := map[string]int64{"release": obs.ReleaseClient, "expiry": obs.ReleaseExpired, "drain": obs.ReleaseDrain}
	for _, k := range order {
		if preGrant[k] && env.answers[k] != CodeDeadline {
			t.Errorf("%s answered %q, want %q", k, env.answers[k], CodeDeadline)
		}
		if !preGrant[k] && env.ended[env.leaseOf(k)] != causes[k] {
			t.Errorf("%s ended with cause %d, want %d", k, env.ended[env.leaseOf(k)], causes[k])
		}
	}
	rejected := 0
	for _, k := range order {
		if preGrant[k] {
			rejected++
		}
	}
	if env.back+rejected != units || len(led.leases) != 0 || led.units != 0 {
		t.Fatalf("accounted %d leased + %d rejected of %d units; leases %d open %v",
			env.back, rejected, units, len(led.leases), led.units != 0)
	}
}

// resolved reports whether the member named k has its final answer: a
// reject, or a lease that has ended.
func resolved(env *fakeEnv, k string) bool {
	if id := env.leaseOf(k); id != "" {
		_, ended := env.ended[id]
		return ended
	}
	_, answered := env.answers[k]
	return answered
}

// preGrant marks the resolutions that happen before or at the grant.
var preGrant = map[string]bool{"deadline": true, "grant-reject": true}

// permute calls f with every permutation of xs (Heap's algorithm).
func permute(xs []string, f func([]string)) {
	var gen func(n int)
	gen = func(n int) {
		if n <= 1 {
			f(append([]string(nil), xs...))
			return
		}
		for i := 0; i < n; i++ {
			gen(n - 1)
			if n%2 == 0 {
				xs[i], xs[n-1] = xs[n-1], xs[i]
			} else {
				xs[0], xs[n-1] = xs[n-1], xs[0]
			}
		}
	}
	gen(len(xs))
}

// TestReleaseHostileLeaseIDs: a release id is routing input. Malformed ids
// reach no worker, the id of an already-released lease reaches only the
// worker it names, and every one answers OK without touching units held.
func TestReleaseHostileLeaseIDs(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3})
	c := dial(t, s)
	held, err := c.Acquire(1, 5*time.Second)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	gone, err := c.Acquire(1, 5*time.Second)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := c.Release(gone.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	before := s.UnitsHeld()
	if before != 1 {
		t.Fatalf("UnitsHeld=%d, want 1", before)
	}
	long := "L" + strings.Repeat("9", 127)
	cases := []struct {
		id   string
		proc int // the worker the id reaches; -1 = none
	}{
		{"L", -1},
		{"Lx.1", -1},
		{"L-1.1", -1},
		{"L4294967296.1", -1},
		{"L1.", -1},
		{long, -1},
		{gone.ID, gone.Process},
	}
	for _, tc := range cases {
		name := tc.id
		if len(name) > 20 {
			name = fmt.Sprintf("%d-byte", len(tc.id))
		}
		t.Run(name, func(t *testing.T) {
			p, ok := leaseProcess(tc.id, len(s.procs))
			if !ok {
				p = -1
			}
			if p != tc.proc {
				t.Fatalf("routes to worker %d, want %d", p, tc.proc)
			}
			if err := c.Release(tc.id); err != nil {
				t.Fatalf("Release: %v", err)
			}
			if got := s.UnitsHeld(); got != before {
				t.Fatalf("UnitsHeld %d → %d", before, got)
			}
		})
	}
	if len(long) != 128 {
		t.Fatalf("long id is %d bytes", len(long))
	}
	if err := c.Release(held.ID); err != nil {
		t.Fatalf("Release held: %v", err)
	}
	if got := s.UnitsHeld(); got != 0 {
		t.Fatalf("UnitsHeld=%d after the held lease's release", got)
	}
}

// TestLeaseIDRoundTrip: every minted id routes back to its process.
func TestLeaseIDRoundTrip(t *testing.T) {
	for _, p := range []int{0, 1, 9, 10, 1023} {
		for _, seq := range []uint64{1, 42, 1<<64 - 1} {
			id := leaseID(p, seq)
			if got, ok := leaseProcess(id, 1024); !ok || got != p {
				t.Fatalf("%s routes to %d,%v, want %d", id, got, ok, p)
			}
			if _, ok := leaseProcess(id, p); ok {
				t.Fatalf("%s routes in a tree of %d processes", id, p)
			}
		}
	}
}

// TestLedgerGreedyFIFO pins batch formation: an idle ledger opens a cycle
// from the head of its line, members joining in FIFO order while Σunits
// stays ≤ k; the head that does not fit waits for the next cycle and is
// never skipped, not even by a later acquire that would fit; a lone
// acquire is a batch of one.
func TestLedgerGreedyFIFO(t *testing.T) {
	led, env := newTestLedger()
	led.k = 3
	for _, pa := range []*pendingAcquire{member("a", 1, 0, 0), member("b", 1, 0, 0),
		member("c", 2, 0, 0), member("d", 2, 0, 0), member("e", 1, 0, 0)} {
		led.enqueue(pa)
	}
	cycle := func(units int, ids ...string) {
		t.Helper()
		led.begin(t0)
		if n := len(env.requests); n == 0 || env.requests[n-1] != units || led.members != len(ids) {
			t.Fatalf("requests %v with %d members, want the last of %d units for %v", env.requests, led.members, units, ids)
		}
		for i, id := range ids {
			if got := led.line[i].req.ID; got != id {
				t.Fatalf("member %d is %s, want %s", i, got, id)
			}
		}
		led.grant(t0)
		for _, id := range ids {
			led.release(env.leaseOf(id))
		}
		if led.units != 0 {
			t.Fatalf("cycle of %v still open after its releases", ids)
		}
	}
	cycle(2, "a", "b") // c does not fit, and e (which would) does not pass it
	cycle(2, "c")      // d does not fit next to c
	cycle(3, "d", "e")
	led.enqueue(member("f", 1, 0, 0))
	cycle(1, "f")
	if len(env.requests) != 4 || env.releases != 4 {
		t.Fatalf("requests %v releases %d, want 4 cycles", env.requests, env.releases)
	}
}

// TestLedgerRejectsExpired: an acquire whose deadline passed while queued is
// answered before the next cycle opens, so it takes no place in it. Through
// the worker's own env, that answer returns the acquire's waiting slot, its
// routing load and its dedupe claim.
func TestLedgerRejectsExpired(t *testing.T) {
	led, env := newTestLedger()
	led.k = 3
	for _, pa := range []*pendingAcquire{member("late", 2, 10, 0), member("ok", 1, 0, 0), member("ok2", 2, 0, 0)} {
		led.enqueue(pa)
	}
	led.begin(t0.Add(ms(10)))
	if env.answers["late"] != CodeDeadline || len(env.requests) != 1 || env.requests[0] != 3 || led.members != 2 {
		t.Fatalf("answers %v requests %v members %d, want late rejected and ok+ok2 requested",
			env.answers, env.requests, led.members)
	}

	s := unstartedServer(t, 3, 3)
	pa := queuedAcquire(pipeSession(t, s), "late", 2)
	due := pa.enqueued.Add(ms(10))
	pa.deadline = due
	if _, fresh := s.dedupe.begin(pa.req.ID, pa.enqueued); !fresh {
		t.Fatal("dedupe claim failed")
	}
	if !s.admit(pa) {
		t.Fatal("admit refused an idle server")
	}
	ps := s.procs[0]
	if len(ps.handoff) == 0 {
		ps = s.procs[1]
	}
	if got := s.Stats().QueueDepth; got != 1 {
		t.Fatalf("QueueDepth %d after admission, want 1", got)
	}
	ps.led.enqueue(<-ps.handoff)
	ps.led.begin(due)
	if got := s.met.deadlineRejs.Load(); got != 1 {
		t.Fatalf("deadline rejects = %d, want 1", got)
	}
	if got, depth := s.loadIdx.load(ps.p), s.Stats().QueueDepth; got != 0 || depth != 0 {
		t.Fatalf("load %d QueueDepth %d after the reject, want 0 and 0", got, depth)
	}
	if _, fresh := s.dedupe.begin("late", due); !fresh {
		t.Fatal("dedupe claim not released: retry after reject is not fresh")
	}
}

// TestLedgerDeadlineWhileQueued: an acquire queued behind an open cycle is
// answered at its own deadline, not when that cycle ends, and its units
// never reach the protocol.
func TestLedgerDeadlineWhileQueued(t *testing.T) {
	led, env := newTestLedger()
	led.k = 1
	open(led, member("member", 1, 0, 0))
	led.enqueue(member("queued", 1, 30, 0))
	led.begin(t0) // the worker's every turn: no effect while a cycle is open
	if w := led.wake(); !w.Equal(t0.Add(ms(30))) {
		t.Fatalf("wake %v, want the queued acquire's 30ms deadline", w.Sub(t0))
	}
	led.tick(t0.Add(ms(30)))
	if env.answers["queued"] != CodeDeadline || len(env.requests) != 1 || led.members != 1 {
		t.Fatalf("at the deadline: answers %v requests %v members %d, want queued=deadline, one request",
			env.answers, env.requests, led.members)
	}
	led.grant(t0.Add(time.Second))
	led.release(env.leaseOf("member"))
	led.begin(t0.Add(time.Second))
	if env.releases != 1 || len(env.requests) != 1 || len(led.line) != 0 {
		t.Fatalf("releases %d requests %v line %d, want the cycle back and no second request",
			env.releases, env.requests, len(led.line))
	}
}

// TestLedgerDrainAnswersQueued: drain answers an acquire queued behind an
// open cycle at once, long before the drain time; one handed to the ledger
// after the drain began is due at once too.
func TestLedgerDrainAnswersQueued(t *testing.T) {
	led, env := newTestLedger()
	led.k = 1
	open(led, member("held", 1, 0, 0))
	led.grant(t0)
	led.enqueue(member("queued", 1, 0, 0))
	drainAt := t0.Add(2 * time.Second)
	led.drain(drainAt, t0.Add(ms(1)))
	if env.answers["queued"] != CodeDraining || len(env.ended) != 0 || led.done() {
		t.Fatalf("at the drain: answers %v ended %v done %v, want queued=draining and the lease held",
			env.answers, env.ended, led.done())
	}
	led.enqueue(member("late", 1, 0, 0))
	if w := led.wake(); w.After(t0.Add(ms(1))) {
		t.Fatalf("wake %v for an acquire handed over while draining, want at once", w.Sub(t0))
	}
	led.tick(t0.Add(ms(1)))
	if env.answers["late"] != CodeDraining || len(env.requests) != 1 {
		t.Fatalf("answers %v requests %v, want late=draining and no request", env.answers, env.requests)
	}
	led.release(env.leaseOf("held"))
	if !led.done() || env.releases != 1 {
		t.Fatalf("done %v releases %d after the last release", led.done(), env.releases)
	}
}

// fuzzEnv is fakeEnv plus the checks FuzzLedger makes as the ledger acts:
// a cycle requests a greedy FIFO prefix of unanswered entries worth ≤ k
// units, grants come out in FIFO order and only to requested entries, a
// reject has its cause, and a cycle is released once, after its grant and
// its last lease.
type fuzzEnv struct {
	*fakeEnv
	t         *testing.T
	led       *ledger
	now       *time.Time
	seq       map[string]int // acquire id → its place in the line
	requested map[string]bool
	open      bool // a cycle is requested and not yet released
	granted   bool // the open cycle's grant has come
	lastGrant int  // place of the last acquire granted
}

func (e *fuzzEnv) request(units int) error {
	if e.open || units < 1 || units > e.led.k {
		e.t.Fatalf("request of %d units (k %d) with a cycle open %v", units, e.led.k, e.open)
	}
	sum, m := 0, 0
	for ; sum < units && m < len(e.led.line); m++ {
		pa := e.led.line[m]
		if _, answered := e.answers[pa.req.ID]; answered || e.requested[pa.req.ID] {
			e.t.Fatalf("request covers %s, already answered or requested", pa.req.ID)
		}
		sum += pa.req.Units
	}
	if sum != units || (m < len(e.led.line) && sum+e.led.line[m].req.Units <= e.led.k) {
		e.t.Fatalf("request of %d units is not the greedy prefix of the line (%d over %d entries)", units, sum, m)
	}
	if e.refuse != nil {
		return e.fakeEnv.request(units)
	}
	for _, pa := range e.led.line[:m] {
		e.requested[pa.req.ID] = true
	}
	e.open = true
	return e.fakeEnv.request(units)
}

func (e *fuzzEnv) release() {
	if !e.open || !e.granted || len(e.led.leases) != 0 || e.led.members != 0 {
		e.t.Fatalf("release: open %v granted %v leases %d members %d", e.open, e.granted, len(e.led.leases), e.led.members)
	}
	e.open, e.granted = false, false
	e.fakeEnv.release()
}

func (e *fuzzEnv) reject(pa *pendingAcquire, code, detail string) {
	switch {
	case code == CodeDeadline && !passed(pa.deadline, *e.now),
		code == CodeDraining && e.led.drainAt.IsZero(),
		code == CodeOverload && e.refuse == nil:
		e.t.Fatalf("%s rejected %s at %v", pa.req.ID, code, e.now.Sub(t0))
	}
	e.fakeEnv.reject(pa, code, detail)
}

func (e *fuzzEnv) grant(pa *pendingAcquire, id string, now time.Time) {
	if !e.requested[pa.req.ID] || e.seq[pa.req.ID] <= e.lastGrant || !e.granted {
		e.t.Fatalf("grant to %s (place %d, requested %v) after place %d", pa.req.ID, e.seq[pa.req.ID],
			e.requested[pa.req.ID], e.lastGrant)
	}
	e.lastGrant = e.seq[pa.req.ID]
	e.fakeEnv.grant(pa, id, now)
}

// FuzzLedger runs random interleavings of enqueue, grant, release, tick,
// drain and protocol refusal against one ledger on a virtual clock, turning
// it as the worker does (begin after every event), and checks after every
// step that the line is FIFO, that wake is never later than a waiting
// deadline and that nothing due is left after a tick. At the end a drain answers the rest: every
// acquire is answered exactly once (fakeEnv panics on a second answer).
func FuzzLedger(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		now := t0
		env := &fuzzEnv{fakeEnv: newFakeEnv(), t: t, now: &now, seq: map[string]int{}, requested: map[string]bool{}}
		led := &ledger{p: 1, k: 3, ttl: ms(500), env: env}
		env.led = led
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		acquires := 0
		for len(ops) > 0 {
			switch next() % 6 {
			case 0: // 1–3 acquires handed off together
				for n := next()%3 + 1; n > 0; n-- {
					acquires++
					id := fmt.Sprint("q", acquires)
					pa := &pendingAcquire{req: Request{Op: OpAcquire, ID: id, Units: next()%3 + 1,
						DeadlineMS: int64(next() % 128), LeaseMS: int64(next())}}
					if pa.req.DeadlineMS >= 64 {
						pa.req.DeadlineMS = 0 // half wait indefinitely
					}
					pa.enqueued, pa.deadline = now, pa.req.deadlineAt(now)
					env.seq[id] = acquires
					led.enqueue(pa)
				}
			case 1:
				if env.open && !env.granted {
					env.granted = true
					led.grant(now)
				}
			case 2:
				if n := len(led.leases); n > 0 {
					led.release(led.leases[next()%n].id)
				}
			case 3: // the timer: never past wake
				to := now.Add(ms(next()))
				if w := led.wake(); !w.IsZero() && w.Before(to) {
					to = w
				}
				if to.After(now) {
					now = to
				}
				led.tick(now)
				for _, pa := range led.line {
					if passed(led.due(pa), now) {
						t.Fatalf("%s due at %v still waits after a tick at %v", pa.req.ID, led.due(pa).Sub(t0), now.Sub(t0))
					}
				}
				for _, ls := range led.leases {
					if passed(ls.expires, now) {
						t.Fatalf("lease %s expired at %v still held", ls.id, ls.expires.Sub(t0))
					}
				}
			case 4:
				led.drain(now.Add(ms(next())), now)
			case 5:
				if env.refuse == nil {
					env.refuse = errors.New("refused")
				} else {
					env.refuse = nil
				}
			}
			led.begin(now)
			w := led.wake()
			for i, pa := range led.line {
				if !pa.deadline.IsZero() && (w.IsZero() || w.After(pa.deadline)) {
					t.Fatalf("wake %v later than %s's deadline %v", w.Sub(t0), pa.req.ID, pa.deadline.Sub(t0))
				}
				if i > 0 && env.seq[pa.req.ID] < env.seq[led.line[i-1].req.ID] {
					t.Fatalf("line out of FIFO order: %s after %s", pa.req.ID, led.line[i-1].req.ID)
				}
			}
		}
		led.drain(now, now)
		if !led.done() || len(env.answers) != acquires {
			t.Fatalf("after the final drain: done %v, %d of %d acquires answered", led.done(), len(env.answers), acquires)
		}
	})
}
