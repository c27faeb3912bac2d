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

// TestAcquireAvoidsLeasedProcess: a process's load counts the units leased
// out at it, so a client holding a lease has its next acquire routed to
// another process. Routed by acquires waiting alone, every process reads 0
// and the acquire queues at the leased one, whose next cycle waits for
// that lease's release (up to LeaseTTL).
func TestAcquireAvoidsLeasedProcess(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3})
	c := dial(t, s)
	held, err := c.Acquire(1, 5*time.Second)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	next, err := c.Acquire(1, time.Second)
	if err != nil {
		t.Fatalf("second acquire while holding p%d's lease: %v", held.Process, err)
	}
	if next.Process == held.Process {
		t.Fatalf("second acquire granted at p%d, the process whose lease is held", next.Process)
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

// TestBatchedServeQueuedBurst makes batching deterministic end to end: on
// chain(2) with k = ℓ = 3, one client holds every unit while 12 one-unit
// acquires queue, and only then releases. Each process's waiting line then
// opens cycles of up to three members, so the 13 grants ride fewer
// batches; one acquire per cycle would take a batch per grant.
func TestBatchedServeQueuedBurst(t *testing.T) {
	s := startServer(t, tree.Chain(2), Options{K: 3, L: 3})
	c := dial(t, s)
	held, err := c.Acquire(3, 5*time.Second)
	if err != nil {
		t.Fatalf("acquire every unit: %v", err)
	}
	const queued = 12
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			l, err := c.Acquire(1, 10*time.Second)
			if err == nil {
				err = c.Release(l.ID)
			}
			errs <- err
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().QueueDepth == queued })
	if err := c.Release(held.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	for i := 0; i < queued; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	}
	st := s.Stats()
	if st.Grants != queued+1 || st.Batches >= st.Grants {
		t.Fatalf("grants=%d batches=%d: want %d grants in fewer batches", st.Grants, st.Batches, queued+1)
	}
	t.Logf("grants=%d batches=%d batch_units=%d", st.Grants, st.Batches, st.BatchUnits)
}

// load reads p's current load.
func (li *loadIndex) load(p int) int64 { return li.loads[p].Load() }
