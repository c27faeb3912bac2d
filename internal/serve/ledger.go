package serve

import (
	"strconv"
	"strings"
	"time"

	"kofl/internal/obs"
)

// ledgerEnv is everything a ledger does to the world, as core.Env is for a
// core.Node: the process worker implements it, the tests fake it. reject and
// grant answer pa (undoing its admission, or with lease id); end accounts a
// lease teardown under an obs.Release… cause.
type ledgerEnv interface {
	request(units int) error // the protocol's Out→Req at the ledger's process
	release()                // the protocol's In→Out
	reject(pa *pendingAcquire, code, detail string)
	grant(pa *pendingAcquire, id string, now time.Time)
	end(l lease, cause int64)
}

// lease is one outstanding grant: a sub-lease of its process's cycle.
type lease struct {
	id      string
	units   int
	expires time.Time
}

// ledger is one process's lease book: its one waiting line and the leases
// of its protocol cycle. It has no goroutines, locks, timers or clock:
// methods take now, and wake says when tick next has work. The line is
// FIFO, and its first `members` entries are the open cycle's members. An
// entry is answered at its deadline, or at once while draining, wherever it
// waits: a queued entry's units were never requested, and a member's ride
// out the cycle (the paper gives a request no way to be withdrawn). The
// grant turns every member still waiting into a sub-lease with an expiry.
// The cycle goes back to the protocol exactly once, when it is granted and
// its last member has resolved (client release, expiry, drain, or reject).
type ledger struct {
	p, k int
	ttl  time.Duration // LeaseTTL: the default and the cap of a lease
	env  ledgerEnv

	seq     uint64            // lease ids minted
	units   int               // Σunits of the open cycle; 0 = no cycle
	members int               // line[:members] await the open cycle's grant
	line    []*pendingAcquire // every acquire waiting here, FIFO
	leases  []lease           // granted, not yet resolved
	drainAt time.Time         // force-release time; zero while serving
}

// enqueue puts an acquire handed off by admission at the end of the line.
func (l *ledger) enqueue(pa *pendingAcquire) { l.line = append(l.line, pa) }

// begin opens a cycle from the head of an idle ledger's line: members join
// in FIFO order while Σunits ≤ k, and the head that does not fit waits for
// the next cycle. What is due is answered first, so it takes no place in
// the cycle. A protocol refusal (a server bug, or a state corrupted
// mid-stabilization) sheds those members rather than wedge the line.
func (l *ledger) begin(now time.Time) {
	for l.units == 0 && len(l.line) > 0 {
		l.tick(now)
		m, units := 0, 0
		for ; m < len(l.line) && units+l.line[m].req.Units <= l.k; m++ {
			units += l.line[m].req.Units
		}
		if m == 0 {
			return
		}
		if err := l.env.request(units); err != nil {
			for _, pa := range l.line[:m] {
				l.env.reject(pa, CodeOverload, "protocol refused request: "+err.Error())
			}
			l.line = append(l.line[:0], l.line[m:]...)
			continue
		}
		l.units, l.members = units, m
	}
}

// grant fans the protocol's grant out to the members still waiting. (A
// draining ledger has none: drain answered them.)
func (l *ledger) grant(now time.Time) {
	for _, pa := range l.line[:l.members] {
		if passed(pa.deadline, now) {
			l.env.reject(pa, CodeDeadline, "deadline passed before grant")
			continue
		}
		l.seq++
		ls := lease{leaseID(l.p, l.seq), pa.req.Units, now.Add(pa.req.leaseTTL(l.ttl))}
		l.leases = append(l.leases, ls)
		l.env.grant(pa, ls.id, now)
	}
	l.line = append(l.line[:0], l.line[l.members:]...)
	l.members = 0
	l.settle()
}

// release resolves a client release; an unknown or resolved id is a no-op.
func (l *ledger) release(id string) {
	for i := range l.leases {
		if l.leases[i].id == id {
			l.end(i, obs.ReleaseClient)
			return
		}
	}
}

// drain answers the waiting line at once and force-releases the leases
// still held at `at`. The earliest drain time wins (Shutdown's, then Close's).
func (l *ledger) drain(at, now time.Time) {
	if l.drainAt.IsZero() || at.Before(l.drainAt) {
		l.drainAt = at
	}
	l.tick(now)
}

// tick resolves what is due at now: deadlines, expiries, the drain time.
func (l *ledger) tick(now time.Time) {
	kept, members := l.line[:0], l.members
	for i, pa := range l.line {
		switch {
		case !passed(l.due(pa), now):
			kept = append(kept, pa)
			continue
		case l.drainAt.IsZero():
			l.env.reject(pa, CodeDeadline, "deadline passed while waiting")
		default:
			l.env.reject(pa, CodeDraining, "server shutting down")
		}
		if i < members {
			l.members--
		}
	}
	l.line = kept
	force := passed(l.drainAt, now)
	for i := 0; i < len(l.leases); {
		switch {
		case force:
			l.end(i, obs.ReleaseDrain)
		case passed(l.leases[i].expires, now):
			l.end(i, obs.ReleaseExpired)
		default:
			i++
		}
	}
}

// due is when tick answers a waiting acquire: at its deadline, or at once
// (its admission, already past) once the ledger is draining.
func (l *ledger) due(pa *pendingAcquire) time.Time {
	if l.drainAt.IsZero() {
		return pa.deadline
	}
	return pa.enqueued
}

// wake is the earliest time tick has work (zero: none).
func (l *ledger) wake() time.Time {
	w := l.drainAt
	for _, pa := range l.line {
		w = earliest(w, l.due(pa))
	}
	for i := range l.leases {
		w = earliest(w, l.leases[i].expires)
	}
	return w
}

// done reports a drained ledger: nothing waits and no lease is held. A
// requested cycle that no member waits on any more is abandoned.
func (l *ledger) done() bool {
	return !l.drainAt.IsZero() && len(l.line) == 0 && len(l.leases) == 0
}

// end resolves lease i, and the cycle with it if it was the last.
func (l *ledger) end(i int, cause int64) {
	ls, last := l.leases[i], len(l.leases)-1
	l.leases[i] = l.leases[last]
	l.leases = l.leases[:last]
	l.env.end(ls, cause)
	l.settle()
}

// settle hands the cycle back to the protocol once nothing is left on it.
// It runs only after the grant: a lease exists only once granted.
func (l *ledger) settle() {
	if len(l.leases) == 0 {
		l.units = 0
		l.env.release()
	}
}

// passed reports whether instant t (zero: never) has come by now.
func passed(t, now time.Time) bool { return !t.IsZero() && !now.Before(t) }

// earliest is the earlier of two instants, zero meaning never.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// leaseID names lease seq of process p "L<p>.<seq>", so a release routes.
func leaseID(p int, seq uint64) string {
	return "L" + strconv.Itoa(p) + "." + strconv.FormatUint(seq, 10)
}

// leaseProcess parses the process out of a lease id, for a tree of n
// processes. Release ids are client input: anything but "L<p>.<seq>" in
// decimal digits with p < n names no process.
func leaseProcess(id string, n int) (int, bool) {
	rest, ok := strings.CutPrefix(id, "L")
	ps, seq, dot := strings.Cut(rest, ".")
	if !ok || !dot || !digits(ps) || !digits(seq) {
		return 0, false
	}
	p, err := strconv.Atoi(ps)
	return p, err == nil && p < n
}

func digits(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }

// pendingAcquire is one admitted acquire, from its session to its answer.
type pendingAcquire struct {
	req      Request
	sess     *session
	enqueued time.Time
	deadline time.Time // zero = no deadline
}
