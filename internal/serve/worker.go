package serve

import (
	"time"

	"kofl/internal/obs"
)

// procServer is one tree process's serving state: a bounded acquire queue
// drained by one worker goroutine into batched protocol cycles, and the
// ledger that goroutine alone owns (procServer is the ledger's env).
type procServer struct {
	p     int
	s     *Server
	queue chan *pendingAcquire
	enter chan struct{}
	ctl   chan ctlMsg   // releases and drain times; unbuffered
	done  chan struct{} // closed when the worker exits
	led   ledger
	carry *pendingAcquire   // popped but did not fit the previous batch
	batch []*pendingAcquire // collection scratch, capacity k
	corks []corkedReply     // per-session reply coalescing scratch
}

// ctlMsg is a client release of lease, answered to sess under request id,
// or, when drain is set, the time the worker force-releases what is held.
type ctlMsg struct {
	lease string
	id    string
	sess  *session
	drain time.Time
}

// corkedReply accumulates the grant frames a fan-out sends to one session.
type corkedReply struct {
	ss  *session
	buf *[]byte
}

// run is the per-process worker, its ledger's only caller: one select over
// the queue, the grant, the control channel and a timer at the ledger's
// wake. It exits once the ledger has drained.
func (ps *procServer) run() {
	defer close(ps.done)
	led := &ps.led
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for !led.done() {
		if led.units == 0 && ps.carry != nil {
			first := ps.carry
			ps.carry = nil
			led.begin(ps.collect(first))
			continue
		}
		if w := led.wake(); w.IsZero() {
			timer.Stop()
		} else {
			timer.Reset(time.Until(w))
		}
		var queue <-chan *pendingAcquire // read only with no cycle open
		var enter <-chan struct{}        // read only while one is requested
		if led.units == 0 {
			queue = ps.queue
		} else if !led.granted {
			enter = ps.enter
		}
		select {
		case pa := <-queue:
			ps.s.met.queueDepth.Add(-1)
			led.begin(ps.collect(pa))
		case <-enter:
			ps.s.met.batches.Add(1)
			ps.s.met.batchUnits.Add(int64(led.units))
			led.grant(time.Now())
			ps.flush()
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
	ps.drainQueue()
}

// collect greedily drains the queue into one batch: members join while
// Σunits stays ≤ k (so a batch has at most k members); draining/expired
// acquires are rejected on the spot; the first acquire that does not fit is
// carried into the next cycle. Collection never blocks — a lone acquire is
// served as a batch of one rather than waiting for company.
func (ps *procServer) collect(first *pendingAcquire) (members []*pendingAcquire, sum int) {
	s := ps.s
	members = ps.batch[:0]
	pa := first
	now := time.Now()
	for {
		switch {
		case s.draining.Load():
			ps.reject(pa, CodeDraining, "server shutting down")
		case passed(pa.deadline, now):
			ps.reject(pa, CodeDeadline, "deadline passed while queued")
		case sum+pa.req.Units > s.opts.K:
			ps.carry = pa
			return members, sum
		default:
			members = append(members, pa)
			sum += pa.req.Units
		}
		select {
		case pa = <-ps.queue:
			s.met.queueDepth.Add(-1)
		default:
			return members, sum
		}
	}
}

// drainQueue rejects the carried acquire and everything still queued at
// shutdown. Only the worker receives from its queue.
func (ps *procServer) drainQueue() {
	if ps.carry != nil {
		ps.reject(ps.carry, CodeDraining, "server shutting down")
	}
	for len(ps.queue) > 0 {
		ps.s.met.queueDepth.Add(-1)
		ps.reject(<-ps.queue, CodeDraining, "server shutting down")
	}
}

// reject answers an acquire routed here with an error code and unloads its
// routing claim.
func (ps *procServer) reject(pa *pendingAcquire, code, detail string) {
	ps.s.loadIdx.add(ps.p, -pa.req.Units)
	ps.s.reject(pa, code, detail)
}

// request is the ledger's Out→Req. A stale enter signal (absorbed by the
// buffered channel during stabilization churn) must not masquerade as this
// cycle's grant, so drop any first; only the worker receives from enter.
func (ps *procServer) request(units int) error {
	for len(ps.enter) > 0 {
		<-ps.enter
	}
	return ps.s.net.Request(ps.p, units)
}

// release is the ledger's In→Out; the process's command FIFO delivers it
// before the worker's next request.
func (ps *procServer) release() { ps.s.net.Release(ps.p) }

// grant answers pa with its lease; the reply is corked per connection until
// flush, so a batch fan-out writes each connection once.
func (ps *procServer) grant(pa *pendingAcquire, id string, now time.Time) {
	s := ps.s
	resp := Response{ID: pa.req.ID, OK: true, Lease: id, Units: pa.req.Units, Process: ps.p}
	s.dedupe.complete(pa.req.ID, &resp, now)
	latencyUS := now.Sub(pa.enqueued).Microseconds()
	s.met.grant(pa.req.Units, latencyUS)
	s.journal.Record(obs.KindLeaseGrant, int32(ps.p), int64(pa.req.Units), latencyUS)
	ps.corks = corkReply(ps.corks, pa.sess, &resp)
	putPending(pa)
}

// flush writes the corked grant replies, one write per connection.
func (ps *procServer) flush() {
	for i := range ps.corks {
		ps.corks[i].ss.writeRaw(*ps.corks[i].buf)
		putFrameBuf(ps.corks[i].buf)
		ps.corks[i] = corkedReply{}
	}
	ps.corks = ps.corks[:0]
}

// end accounts one lease teardown and unloads the routing index.
func (ps *procServer) end(l lease, cause int64) {
	s := ps.s
	s.met.release(l.units, cause)
	s.journal.Record(obs.KindLeaseRelease, int32(ps.p), int64(l.units), cause)
	s.loadIdx.add(ps.p, -l.units)
}

// corkReply appends resp's frame to the buffer bound for ss, opening a new
// one on ss's first reply of this batch.
func corkReply(corks []corkedReply, ss *session, resp *Response) []corkedReply {
	for i := range corks {
		if corks[i].ss == ss {
			*corks[i].buf = appendResponseFrame(*corks[i].buf, resp)
			return corks
		}
	}
	buf := getFrameBuf()
	*buf = appendResponseFrame(*buf, resp)
	return append(corks, corkedReply{ss: ss, buf: buf})
}
