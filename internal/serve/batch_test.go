package serve

import (
	"io"
	"net"
	"testing"
	"time"

	"kofl/internal/tree"
)

// unstartedServer builds a Server without Start: no goroutines run, so the
// admission internals (admit, the ledger, reject, loadIndex) can be driven
// directly.
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
	return &pendingAcquire{req: Request{Op: OpAcquire, ID: id, Units: units}, sess: ss, enqueued: time.Now()}
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

// TestLoadIndexPick: the router always picks a least-loaded process, at
// every n, and next() wraps.
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

	// A scan of part of a large tree misses the one idle process.
	li = newLoadIndex(200)
	for p := 0; p < 200; p++ {
		if p != 10 {
			li.add(p, 1)
		}
	}
	if p := li.pick(); p != 10 {
		t.Fatalf("n=200: pick chose p%d (load %d), want the only idle p10", p, li.load(p))
	}
}

// TestBatchedServeEndToEnd drives a concurrent burst and checks the batch
// counters stay coherent with the grant counters: every grant rode some
// batch, batch units cover granted units, and at least one batch ran.
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
