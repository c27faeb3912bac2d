package serve

import (
	"sync/atomic"
	"time"

	"kofl/internal/obs"
)

// procServer is one tree process's serving state: the handoff from
// admission, the count of acquires waiting here, and the ledger its one
// worker goroutine alone owns (procServer is the ledger's env).
type procServer struct {
	p       int
	s       *Server
	handoff chan *pendingAcquire // from admission to the worker; never full
	waiting atomic.Int64         // admitted here and not yet answered
	enter   chan struct{}        // the open cycle's grant; one slot
	ctl     chan ctlMsg          // releases and drain times; unbuffered
	done    chan struct{}        // closed when the worker exits
	led     ledger
}

// ctlMsg is a client release of lease, answered to sess under request id,
// or, when drain is set, the time the worker force-releases what is held.
type ctlMsg struct {
	lease string
	id    string
	sess  *session
	drain time.Time
}

// run is the per-process worker, its ledger's only caller: one select over
// the handoff, the grant, the control channel and a timer at the ledger's
// wake. Before a cycle opens it hands the ledger every acquire already
// handed off, so a cycle takes all that fits; a lone acquire is a batch of
// one. It exits once the ledger has drained.
func (ps *procServer) run() {
	defer close(ps.done)
	led := &ps.led
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		for len(ps.handoff) > 0 {
			led.enqueue(<-ps.handoff)
		}
		led.begin(time.Now())
		if led.done() {
			return
		}
		if w := led.wake(); w.IsZero() {
			timer.Stop()
		} else {
			timer.Reset(time.Until(w))
		}
		select {
		case pa := <-ps.handoff:
			led.enqueue(pa)
		case <-ps.enter:
			ps.s.met.batches.Add(1)
			ps.s.met.batchUnits.Add(int64(led.units))
			led.grant(time.Now())
		case m := <-ps.ctl:
			if m.drain.IsZero() {
				led.release(m.lease)
				m.sess.reply(Response{ID: m.id, OK: true}) // accounted back
			} else {
				led.drain(m.drain, time.Now())
			}
		case <-timer.C:
			led.tick(time.Now())
		}
	}
}

// reject answers an acquire waiting here with an error code and unloads its
// routing claim.
func (ps *procServer) reject(pa *pendingAcquire, code, detail string) {
	ps.waiting.Add(-1)
	ps.s.loadIdx.add(ps.p, -pa.req.Units)
	ps.s.reject(pa, code, detail)
}

// request is the ledger's Out→Req.
func (ps *procServer) request(units int) error { return ps.s.net.Request(ps.p, units) }

// release is the ledger's In→Out; the process's command FIFO delivers it
// before the worker's next request.
func (ps *procServer) release() { ps.s.net.Release(ps.p) }

// grant answers pa with its lease.
func (ps *procServer) grant(pa *pendingAcquire, id string, now time.Time) {
	s := ps.s
	ps.waiting.Add(-1)
	resp := Response{ID: pa.req.ID, OK: true, Lease: id, Units: pa.req.Units, Process: ps.p}
	s.dedupe.complete(pa.req.ID, &resp, now)
	latencyUS := now.Sub(pa.enqueued).Microseconds()
	s.met.grant(pa.req.Units, latencyUS)
	s.journal.Record(obs.KindLeaseGrant, int32(ps.p), int64(pa.req.Units), latencyUS)
	pa.sess.reply(resp)
}

// end accounts one lease teardown and unloads the routing index.
func (ps *procServer) end(l lease, cause int64) {
	s := ps.s
	s.met.release(l.units, cause)
	s.journal.Record(obs.KindLeaseRelease, int32(ps.p), int64(l.units), cause)
	s.loadIdx.add(ps.p, -l.units)
}
