package runtime_test

import (
	"context"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/runtime"
	"kofl/internal/tree"
)

// TestPacingThrottlesIdleChurn pins the two-level delivery pacing contract:
// with no request outstanding the token circulation runs at IdlePace (orders
// of magnitude below full speed, which measures in the millions of frames
// per second), yet a request still gets granted promptly because demand
// switches delivery to the busy pace.
func TestPacingThrottlesIdleChurn(t *testing.T) {
	tr := tree.Star(5)
	cfg := core.Config{K: 2, L: 3, CMAX: 4, Features: core.Full()}
	n, err := runtime.New(tr, cfg, runtime.Options{
		Timeout:  5 * time.Millisecond,
		Pace:     10 * time.Microsecond,
		IdlePace: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	enter := make(chan struct{}, 4)
	n.OnEnter(1, func(int) { enter <- struct{}{} })
	n.Start(context.Background())
	defer n.Stop()

	// Let the protocol stabilize, then measure the idle frame rate. Star(5)
	// has 8 directed links; at IdlePace=1ms each delivers ≤ ~1000 frames/s,
	// so ~4000 frames land in the window — against ~1M+ unpaced.
	time.Sleep(300 * time.Millisecond)
	if d := n.Demand(); d != 0 {
		t.Fatalf("idle demand = %d, want 0", d)
	}
	f0 := n.FramesDelivered()
	time.Sleep(500 * time.Millisecond)
	idleFrames := n.FramesDelivered() - f0
	if idleFrames > 50_000 {
		t.Errorf("idle churn delivered %d frames in 500ms: pacing not engaged", idleFrames)
	}

	// A request must still be served promptly: demand flips delivery to the
	// busy pace for the duration of the cycle.
	start := time.Now()
	if err := n.Request(1, 1); err != nil {
		t.Fatalf("Request: %v", err)
	}
	select {
	case <-enter:
	case <-time.After(10 * time.Second):
		t.Fatal("grant timed out under pacing")
	}
	n.Release(1)
	if wait := time.Since(start); wait > 2*time.Second {
		t.Errorf("grant took %v under pacing", wait)
	}

	// The demand counter drains back to zero once the grant lands.
	deadline := time.Now().Add(2 * time.Second)
	for n.Demand() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("demand stuck at %d after grant", n.Demand())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestWakesIdleHolds pins demand-driven delivery with an idle beat no
// request could afford to wait out: bootstrap is not quiescent and so does
// not beat at all, a Request releases every frame held along its path, and
// Stop does not wait for the holds either.
func TestRequestWakesIdleHolds(t *testing.T) {
	tr := tree.Paper()
	cfg := core.Config{K: 3, L: 5, CMAX: 4, Features: core.Full()}
	n, err := runtime.New(tr, cfg, runtime.Options{
		Timeout:  5 * time.Second, // above a lap at one 200ms beat per hop
		IdlePace: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	enter := make(chan struct{}, 1)
	n.OnEnter(3, func(int) { enter <- struct{}{} })
	n.Start(context.Background())
	defer n.Stop()

	// The root fires once at Start; from there to a legitimate census is
	// milliseconds at the busy cadence, against half a minute at 200ms per
	// hop.
	deadline := time.Now().Add(time.Second)
	for !n.Stabilized() {
		if time.Now().After(deadline) {
			t.Fatal("network never stabilized: bootstrap ran at the idle beat")
		}
		time.Sleep(time.Millisecond)
	}
	awaitHolds(t, n)

	start := time.Now()
	if err := n.Request(3, 2); err != nil {
		t.Fatalf("Request: %v", err)
	}
	select {
	case <-enter:
	case <-time.After(10 * time.Second):
		t.Fatal("grant timed out")
	}
	if wait := time.Since(start); wait > 100*time.Millisecond {
		t.Errorf("grant took %v: the request waited out idle holds", wait)
	}
	if n.DemandWakes() == 0 {
		t.Error("DemandWakes() = 0 after a request on an idle network")
	}
	n.Release(3)

	awaitHolds(t, n)
	start = time.Now()
	n.Stop()
	if wait := time.Since(start); wait > 100*time.Millisecond {
		t.Errorf("Stop took %v: it waited out idle holds", wait)
	}
}

// awaitHolds returns once no request is outstanding and a process has since
// started an idle hold, i.e. the token convoy is parked for an IdlePace beat.
func awaitHolds(t *testing.T, n *runtime.Net) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.Demand() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("demand stuck at %d", n.Demand())
		}
		time.Sleep(time.Millisecond)
	}
	for paced := n.FramesPaced(); n.FramesPaced() == paced; {
		if time.Now().After(deadline) {
			t.Fatal("no idle hold taken on a quiescent network")
		}
		time.Sleep(time.Millisecond)
	}
}
