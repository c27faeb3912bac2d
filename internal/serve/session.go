package serve

import (
	"net"
	"sync"
	"time"
)

// session is one accepted connection, with no process affinity: every
// acquire is routed at admission. Replies come from the read loop or from a
// process worker (grants, its rejects, release acks), serialized by wmu.
type session struct {
	conn net.Conn
	s    *Server
	wmu  sync.Mutex
}

// reply writes one response frame under the session write lock; a write
// error just means the client went away (its leases still expire by TTL).
func (ss *session) reply(resp Response) {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	ss.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_ = WriteFrame(ss.conn, &resp)
}

func (ss *session) run() {
	s := ss.s
	defer func() {
		ss.conn.Close()
		s.met.sessionsActive.Add(-1)
		s.sessMu.Lock()
		delete(s.sessions, ss)
		s.sessMu.Unlock()
		s.wg.Done()
	}()
	s.sessMu.Lock()
	s.sessions[ss] = struct{}{}
	s.sessMu.Unlock()
	if s.draining.Load() {
		return // raced with Close: the conn may have missed its close
	}
	for {
		body, err := ReadFrame(ss.conn)
		if err != nil {
			return // EOF, conn closed, or framing violation: drop the session
		}
		req, err := ParseRequest(body)
		if err != nil {
			s.met.malformed.Add(1)
			ss.reply(Response{Err: CodeMalformed, Detail: err.Error()})
			continue
		}
		if err := req.Validate(s.opts.K); err != nil {
			s.met.malformed.Add(1)
			ss.reply(Response{ID: req.ID, Err: CodeMalformed, Detail: err.Error()})
			continue
		}
		switch req.Op {
		case OpAcquire:
			ss.acquire(req)
		case OpRelease:
			ss.release(req)
		case OpStats:
			st := s.Stats()
			ss.reply(Response{ID: req.ID, OK: true, Stats: &st})
		}
	}
}

// acquire admits one acquire frame: dedupe first (a retry is answered from
// the store without reaching any process), then routed admission through
// the load index, with explicit overload rejection only when both candidate
// processes are full.
func (ss *session) acquire(req *Request) {
	s := ss.s
	now := time.Now()
	if cached, fresh := s.dedupe.begin(req.ID, now); !fresh {
		if cached == nil {
			ss.reply(Response{ID: req.ID, Err: CodePending, Detail: "request id still in flight"})
			return
		}
		s.met.dedupeHits.Add(1)
		ss.reply(*cached)
		return
	}
	s.met.acquires.Add(1)
	pa := &pendingAcquire{req: *req, sess: ss, enqueued: now, deadline: req.deadlineAt(now)}
	switch {
	case s.draining.Load():
		s.reject(pa, CodeDraining, "server shutting down")
	case !s.admit(pa):
		s.reject(pa, CodeOverload, "process queues full")
	}
}

// release hands a lease to the worker its id names, which answers once the
// lease is accounted back. An id naming no process, or a stopped worker, is
// answered OK here: a retried release whose first attempt won cannot be told
// from one that expired, and both are successfully-released outcomes.
func (ss *session) release(req *Request) {
	if p, ok := leaseProcess(req.Lease, len(ss.s.procs)); ok {
		ps := ss.s.procs[p]
		select {
		case ps.ctl <- ctlMsg{lease: req.Lease, id: req.ID, sess: ss}:
			return
		case <-ps.done:
		}
	}
	ss.reply(Response{ID: req.ID, OK: true})
}
