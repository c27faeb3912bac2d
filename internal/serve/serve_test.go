package serve

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kofl/internal/tree"
)

// startServer builds and starts a lease server, registering cleanup.
func startServer(t *testing.T, tr *tree.Tree, opts Options) *Server {
	t.Helper()
	s, err := New(tr, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAcquireReleaseBasic(t *testing.T) {
	s := startServer(t, tree.Paper(), Options{K: 3, L: 5})
	c := dial(t, s)

	l, err := c.Acquire(2, 5*time.Second)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l.Units != 2 || !strings.HasPrefix(l.ID, "L") {
		t.Fatalf("bad lease %+v", l)
	}
	if held := s.UnitsHeld(); held != 2 {
		t.Fatalf("UnitsHeld=%d want 2", held)
	}
	if err := c.Release(l.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	waitFor(t, time.Second, func() bool { return s.UnitsHeld() == 0 })

	// Releasing again is idempotent.
	if err := c.Release(l.ID); err != nil {
		t.Fatalf("double Release: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Grants != 1 || st.K != 3 || st.L != 5 {
		t.Fatalf("stats %+v", st)
	}
	if st.LatencyCount != 1 || st.LatencyP99us <= 0 {
		t.Fatalf("latency not recorded: %+v", st)
	}
}

func TestAcquireIdempotent(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3})
	c := dial(t, s)

	l1, err := c.AcquireID("req-once", 1, 0, 0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// A retry with the same id must replay the original grant, not take a
	// second lease.
	l2, err := c.AcquireID("req-once", 1, 0, 0)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if l1.ID != l2.ID {
		t.Fatalf("retry got a different lease: %q vs %q", l1.ID, l2.ID)
	}
	if held := s.UnitsHeld(); held != 1 {
		t.Fatalf("UnitsHeld=%d want 1 (dedupe leaked a lease)", held)
	}
	if st := s.Stats(); st.DedupeHits != 1 {
		t.Fatalf("DedupeHits=%d want 1", st.DedupeHits)
	}
	c.Release(l1.ID)
}

func TestDedupeTTLReadmits(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3, DedupeTTL: 50 * time.Millisecond})
	c := dial(t, s)

	l1, err := c.AcquireID("ttl-id", 1, 0, 0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := c.Release(l1.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // let the dedupe entry expire
	l2, err := c.AcquireID("ttl-id", 1, 0, 0)
	if err != nil {
		t.Fatalf("re-acquire after TTL: %v", err)
	}
	if l1.ID == l2.ID {
		t.Fatalf("expired dedupe entry replayed the old lease %q", l1.ID)
	}
	c.Release(l2.ID)
}

func TestLeaseExpiryAutoReleases(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3})
	c := dial(t, s)

	// lease_ms clamps to the server max but may shrink it.
	if _, err := c.AcquireID("short", 2, 0, 40); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if held := s.UnitsHeld(); held != 2 {
		t.Fatalf("UnitsHeld=%d want 2", held)
	}
	waitFor(t, 2*time.Second, func() bool { return s.UnitsHeld() == 0 })
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("Expired=%d want 1", st.Expired)
	}

	// The units must actually be back in the protocol: a fresh full-size
	// acquire succeeds.
	l, err := c.Acquire(2, 5*time.Second)
	if err != nil {
		t.Fatalf("re-acquire after expiry: %v", err)
	}
	c.Release(l.ID)
}

func TestOverloadRejectsExplicitly(t *testing.T) {
	// Two processes (chain(2): the root and one child), QueueDepth 2, and
	// a held lease on the one unit so nothing waiting can be granted. 10×
	// the per-process bound in concurrent acquires must produce ErrOverload
	// rejections and zero panics/hangs — the acceptance criterion for
	// saturation behavior — and leave nothing counted as waiting.
	s := startServer(t, tree.Chain(2), Options{K: 1, L: 1, QueueDepth: 2})
	blocker := dial(t, s)
	l, err := blocker.Acquire(1, 5*time.Second)
	if err != nil {
		t.Fatalf("blocker acquire: %v", err)
	}

	const flood = 20 // 10× QueueDepth
	var wg sync.WaitGroup
	var overloads, grants atomic.Int64
	for i := 0; i < flood; i++ {
		c := dial(t, s)
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			lz, err := c.Acquire(1, 0)
			switch {
			case errors.Is(err, ErrOverload):
				overloads.Add(1)
			case err == nil:
				grants.Add(1)
				c.Release(lz.ID)
			}
		}(c)
	}

	// Give the flood time to hit the queues, then unblock.
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Overloads > 0 })
	blocker.Release(l.ID)
	wg.Wait()

	st := s.Stats()
	if st.Overloads == 0 || overloads.Load() == 0 {
		t.Fatalf("no overload rejections under 10x flood: %+v", st)
	}
	if overloads.Load()+grants.Load() == 0 {
		t.Fatal("flood produced neither grants nor rejections")
	}
	if st.QueueDepth != 0 {
		t.Fatalf("QueueDepth=%d after every acquire was answered, want 0", st.QueueDepth)
	}
}

func TestDeadlineRejectsQueuedAcquire(t *testing.T) {
	s := startServer(t, tree.Chain(2), Options{K: 1, L: 1})
	blocker := dial(t, s)
	l, err := blocker.Acquire(1, 5*time.Second)
	if err != nil {
		t.Fatalf("blocker acquire: %v", err)
	}
	c := dial(t, s)
	// The acquire is routed to the idle process, whose cycle then waits on
	// the single resource unit the blocker holds. The paper gives a request
	// no way to be withdrawn, so the server answers it at its 30ms deadline
	// while the protocol request stays outstanding.
	start := time.Now()
	_, err = c.Acquire(1, 30*time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err=%v want ErrDeadline", err)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("ErrDeadline after %v, want it at the 30ms deadline (≤ 250ms)", el)
	}
	blocker.Release(l.ID)
}

// queueBehindCycle sets up one unit on chain(2): a blocker holds it at one
// process and a second acquire waits on the protocol at the other, so any
// further acquire queues behind an open cycle. It returns the blocker's
// lease and the waiting acquire's outcome.
func queueBehindCycle(t *testing.T, s *Server) (*Client, *Lease, <-chan error) {
	t.Helper()
	blocker := dial(t, s)
	l, err := blocker.Acquire(1, 5*time.Second)
	if err != nil {
		t.Fatalf("blocker acquire: %v", err)
	}
	waiter := dial(t, s)
	waited := make(chan error, 1)
	go func() {
		lw, err := waiter.Acquire(1, 0)
		if err == nil {
			err = waiter.Release(lw.ID)
		}
		waited <- err
	}()
	waitFor(t, time.Second, func() bool { return s.Stats().QueueDepth == 1 })
	return blocker, l, waited
}

// TestDeadlineAnswersQueuedBehindCycle: an acquire queued behind an open
// cycle is answered at its 30ms deadline, not when a cycle ends (up to
// LeaseTTL).
func TestDeadlineAnswersQueuedBehindCycle(t *testing.T) {
	s := startServer(t, tree.Chain(2), Options{K: 1, L: 1})
	blocker, l, waited := queueBehindCycle(t, s)
	c := dial(t, s)
	start := time.Now()
	_, err := c.Acquire(1, 30*time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err=%v want ErrDeadline", err)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("ErrDeadline after %v, want it at the 30ms deadline (≤ 250ms)", el)
	}
	blocker.Release(l.ID)
	if err := <-waited; err != nil {
		t.Fatalf("waiting acquire: %v", err)
	}
}

// TestShutdownAnswersQueuedAcquire: Shutdown answers an acquire queued
// behind an open cycle ErrDraining at once, not at DrainTimeout.
func TestShutdownAnswersQueuedAcquire(t *testing.T) {
	s := startServer(t, tree.Chain(2), Options{K: 1, L: 1, DrainTimeout: 2 * time.Second})
	blocker, l, waited := queueBehindCycle(t, s)
	c := dial(t, s)
	queued := make(chan error, 1)
	go func() {
		_, err := c.Acquire(1, 0)
		queued <- err
	}()
	waitFor(t, time.Second, func() bool { return s.Stats().QueueDepth == 2 })
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Shutdown(context.Background())
	}()
	if err := <-queued; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued acquire: err=%v want ErrDraining", err)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("ErrDraining after %v, want it at once (≤ 250ms, DrainTimeout 2s)", el)
	}
	if err := <-waited; !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire waiting on the protocol: err=%v want ErrDraining", err)
	}
	blocker.Release(l.ID)
	<-done
}

func TestGracefulDrain(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3, DrainTimeout: 2 * time.Second})
	c := dial(t, s)
	l, err := c.Acquire(1, 5*time.Second)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Shutdown(context.Background())
	}()

	// While draining, new acquires are rejected with ErrDraining.
	waitFor(t, time.Second, func() bool { return s.draining.Load() })
	if _, err := c.Acquire(1, 0); !errors.Is(err, ErrDraining) && err == nil {
		t.Fatalf("acquire during drain: err=%v want ErrDraining or conn error", err)
	}
	// Release the held lease: the drain completes well before DrainTimeout.
	if err := c.Release(l.ID); err != nil {
		t.Logf("release during drain: %v (conn may be closing)", err)
	}
	select {
	case <-done:
	case <-time.After(4 * time.Second):
		t.Fatal("Shutdown did not finish after the last lease was released")
	}
	if st := s.Stats(); st.Leases != 0 || st.UnitsHeld != 0 {
		t.Fatalf("leases survived shutdown: %+v", st)
	}
}

func TestDrainTimeoutForceReleases(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3, DrainTimeout: 50 * time.Millisecond})
	c := dial(t, s)
	if _, err := c.Acquire(2, 5*time.Second); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Never release: Shutdown must force-release at DrainTimeout and return.
	start := time.Now()
	s.Shutdown(context.Background())
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("Shutdown took %v despite a 50ms DrainTimeout", el)
	}
	if held := s.UnitsHeld(); held != 0 {
		t.Fatalf("UnitsHeld=%d after forced drain", held)
	}
}

func TestCloseWithOutstandingLease(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3})
	c := dial(t, s)
	if _, err := c.Acquire(1, 5*time.Second); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an outstanding lease")
	}
}

func TestMalformedFramesAnswerNotKill(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	// A parseable frame with an unknown field: the session answers with the
	// malformed code and stays up.
	if err := WriteFrame(conn, map[string]any{"op": "acquire", "id": "m1", "bogus": true}); err != nil {
		t.Fatalf("write: %v", err)
	}
	body, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	resp, err := parseResponse(body)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if resp.Err != CodeMalformed {
		t.Fatalf("err=%q want %q", resp.Err, CodeMalformed)
	}

	// The same connection still serves a valid request afterwards.
	if err := WriteFrame(conn, Request{Op: OpStats, ID: "m2"}); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	body, err = ReadFrame(conn)
	if err != nil {
		t.Fatalf("read 2: %v", err)
	}
	resp, err = parseResponse(body)
	if err != nil || !resp.OK || resp.Stats == nil {
		t.Fatalf("stats after malformed: resp=%+v err=%v", resp, err)
	}
	if resp.Stats.Malformed != 1 {
		t.Fatalf("Malformed=%d want 1", resp.Stats.Malformed)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t, tree.Star(3), Options{K: 2, L: 3})
	c := dial(t, s)
	l, err := c.Acquire(1, 5*time.Second)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"kofl_serve_grants_total 1",
		"kofl_serve_units_held 1",
		"kofl_serve_acquire_latency_us_count 1",
		`kofl_serve_acquire_latency_us_bucket{le="+Inf"} 1`,
		"# TYPE kofl_serve_sessions_total counter",
		"# TYPE kofl_serve_units_held gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
	c.Release(l.ID)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestIdleServerIsPaced: with no acquire waiting, the server's processes hold
// protocol frames for DefaultIdlePace beats instead of circulating the
// tokens at the busy cadence, which would spin the CPUs the sessions need.
func TestIdleServerIsPaced(t *testing.T) {
	s := startServer(t, tree.Paper(), Options{K: 3, L: 5})
	waitFor(t, 5*time.Second, s.Ready)
	time.Sleep(200 * time.Millisecond)
	f0 := s.Net().FramesDelivered()
	time.Sleep(500 * time.Millisecond)
	if idle := s.Net().FramesDelivered() - f0; idle > 20_000 {
		t.Errorf("an idle server delivered %d frames in 500ms: no idle beat", idle)
	}
}
