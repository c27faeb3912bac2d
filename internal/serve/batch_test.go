package serve

import (
	"io"
	"net"
	"testing"
	"time"

	"kofl/internal/tree"
)

// unstartedServer builds a Server without Start: no goroutines run, so the
// admission internals (collect, reject, loadIndex) can be driven directly.
func unstartedServer(t *testing.T, k, l int) *Server {
	t.Helper()
	s, err := New(tree.Chain(2), Options{K: k, L: l})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// pipeSession fakes a client connection: replies drain into io.Discard.
func pipeSession(t *testing.T, s *Server) *session {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	go io.Copy(io.Discard, c2)
	return &session{conn: c1, s: s}
}

func queuedAcquire(ss *session, id string, units int) *pendingAcquire {
	pa := getPending()
	pa.req = Request{Op: OpAcquire, ID: id, Units: units}
	pa.sess = ss
	pa.enqueued = time.Now()
	return pa
}

// TestCollectGreedyFIFO pins the batch-formation rules: members join in FIFO
// order while Σunits stays ≤ k; the first acquire that does not fit is
// carried (not skipped over) into the next cycle; collection never blocks.
func TestCollectGreedyFIFO(t *testing.T) {
	s := unstartedServer(t, 3, 3)
	ss := pipeSession(t, s)
	ps := s.procs[0]

	first := queuedAcquire(ss, "a", 1)
	ps.queue <- queuedAcquire(ss, "b", 1)
	ps.queue <- queuedAcquire(ss, "c", 2) // 1+1+2 > k=3: must be carried
	ps.queue <- queuedAcquire(ss, "d", 2)

	members, sum := ps.collect(first)
	if len(members) != 2 || sum != 2 {
		t.Fatalf("batch 1: %d members Σ%d, want 2 members Σ2", len(members), sum)
	}
	if members[0].req.ID != "a" || members[1].req.ID != "b" {
		t.Fatalf("batch 1 members %q,%q want a,b", members[0].req.ID, members[1].req.ID)
	}
	if ps.carry == nil || ps.carry.req.ID != "c" {
		t.Fatalf("carry = %+v, want acquire c", ps.carry)
	}

	// Next cycle starts from the carried acquire; d (2 units) does not fit
	// next to it and is carried in turn.
	next := ps.carry
	ps.carry = nil
	members, sum = ps.collect(next)
	if len(members) != 1 || sum != 2 || members[0].req.ID != "c" {
		t.Fatalf("batch 2: %d members Σ%d (%q), want just c", len(members), sum, members[0].req.ID)
	}
	if ps.carry == nil || ps.carry.req.ID != "d" {
		t.Fatalf("carry after batch 2 = %+v, want acquire d", ps.carry)
	}

	// A lone acquire is served immediately as a batch of one.
	next = ps.carry
	ps.carry = nil
	members, sum = ps.collect(next)
	if len(members) != 1 || sum != 2 || ps.carry != nil {
		t.Fatalf("batch 3: %d members Σ%d carry=%v, want just d", len(members), sum, ps.carry)
	}
}

// TestCollectRejectsExpired: a queued acquire whose deadline passed is
// rejected during collection (counted, unloaded, dedupe-released) instead of
// wasting batch capacity.
func TestCollectRejectsExpired(t *testing.T) {
	s := unstartedServer(t, 3, 3)
	ss := pipeSession(t, s)
	ps := s.procs[0]

	expired := queuedAcquire(ss, "late", 2)
	expired.deadline = time.Now().Add(-time.Millisecond)
	s.loadIdx.add(0, 2) // the routing claim admit() would have taken
	ps.queue <- queuedAcquire(ss, "ok", 1)

	members, sum := ps.collect(expired)
	if len(members) != 1 || sum != 1 || members[0].req.ID != "ok" {
		t.Fatalf("collect kept expired acquire: %d members Σ%d", len(members), sum)
	}
	if got := s.met.deadlineRejs.Load(); got != 1 {
		t.Fatalf("deadline rejects = %d, want 1", got)
	}
	if got := s.loadIdx.load(0); got != 0 {
		t.Fatalf("load after reject = %d, want 0", got)
	}
}

// TestRejectCountsEveryCode is the regression test for the dropped-counter
// bug: reject used to count deadline and draining rejections but silently
// dropped CodeOverload (the protocol-refusal shed path), so Stats.Overloads
// under-reported. Every rejection code must land in its counter, release
// the dedupe claim, and undo the routing load.
func TestRejectCountsEveryCode(t *testing.T) {
	cases := []struct {
		code    string
		counter func(s *Server) int64
	}{
		{CodeOverload, func(s *Server) int64 { return s.met.overloads.Load() }},
		{CodeDeadline, func(s *Server) int64 { return s.met.deadlineRejs.Load() }},
		{CodeDraining, func(s *Server) int64 { return s.met.drainingRejs.Load() }},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			s := unstartedServer(t, 3, 3)
			ss := pipeSession(t, s)
			ps := s.procs[0]

			pa := queuedAcquire(ss, "r-"+tc.code, 2)
			s.loadIdx.add(0, 2)
			if _, fresh := s.dedupe.begin(pa.req.ID, time.Now()); !fresh {
				t.Fatal("dedupe claim failed")
			}
			ps.reject(pa, tc.code, "test rejection")

			if got := tc.counter(s); got != 1 {
				t.Errorf("counter for %s = %d, want 1", tc.code, got)
			}
			if got := s.loadIdx.load(0); got != 0 {
				t.Errorf("load after reject = %d, want 0", got)
			}
			if _, fresh := s.dedupe.begin("r-"+tc.code, time.Now()); !fresh {
				t.Error("dedupe claim not released: retry after reject is not fresh")
			}
		})
	}
}

// TestLoadIndexPick: the router always picks a least-loaded process when the
// tree fits one shard, and next() wraps.
func TestLoadIndexPick(t *testing.T) {
	li := newLoadIndex(4)
	li.add(0, 5)
	li.add(1, 2)
	li.add(2, 7)
	li.add(3, 2)
	if p := li.pick(); li.load(p) != 2 {
		t.Fatalf("pick chose p%d (load %d), want a load-2 process", p, li.load(p))
	}
	li.add(1, -2)
	if p := li.pick(); p != 1 {
		t.Fatalf("pick chose p%d, want the now-empty p1", p)
	}
	if n := li.next(3); n != 0 {
		t.Fatalf("next(3) = %d, want wrap to 0", n)
	}
}

// TestBatchedServeEndToEnd drives a concurrent burst and checks the batch
// counters stay coherent with the grant counters: every grant rode some
// batch, batch units cover granted units, and batching actually engaged.
func TestBatchedServeEndToEnd(t *testing.T) {
	s := startServer(t, tree.Paper(), Options{K: 3, L: 5})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for round := 0; round < 10; round++ {
				l, err := c.Acquire(1, 5*time.Second)
				if err != nil {
					continue
				}
				c.Release(l.ID)
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	st := s.Stats()
	if st.Grants == 0 {
		t.Fatal("no grants at all")
	}
	if st.Batches == 0 || st.Batches > st.Grants {
		t.Errorf("batches=%d grants=%d: want 1 ≤ batches ≤ grants", st.Batches, st.Grants)
	}
	if st.BatchUnits < st.Grants {
		t.Errorf("batch units %d < grants %d: some grant rode no batch", st.BatchUnits, st.Grants)
	}
	t.Logf("grants=%d batches=%d batch_units=%d", st.Grants, st.Batches, st.BatchUnits)
}

// load reads p's current load.
func (li *loadIndex) load(p int) int64 { return li.loads[p].Load() }
