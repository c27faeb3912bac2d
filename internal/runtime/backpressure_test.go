package runtime

import (
	"context"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/tree"
)

// TestSendDropsOnFullLink fills one outgoing link to capacity and proves the
// regression contract of the backpressure path: Send on a full link drops
// the frame — counted in FramesDropped — instead of panicking
// (the historical behavior) or blocking the process loop.
func TestSendDropsOnFullLink(t *testing.T) {
	tr := tree.Chain(2)
	cfg := core.Config{K: 1, L: 1, CMAX: 2, Features: core.Full()}
	n, err := New(tr, cfg, Options{LinkBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr := n.procs[0]
	env := &liveEnv{pr: pr}
	env.Send(0, message.NewRes()) // fills the 1-frame link
	if got := n.FramesDropped(); got != 0 {
		t.Fatalf("drops after first send = %d, want 0", got)
	}
	env.Send(0, message.NewRes()) // link full: must drop, not panic
	env.Send(0, message.NewRes())
	if got := n.FramesDropped(); got != 2 {
		t.Fatalf("FramesDropped = %d, want 2", got)
	}
}

// TestInjectOverflowDrops overflows a 1-frame link with pre-start noise:
// injection must drop the excess (counted), never block or panic.
func TestInjectOverflowDrops(t *testing.T) {
	tr := tree.Chain(2)
	cfg := core.Config{K: 1, L: 1, CMAX: 2, Features: core.Full()}
	n, err := New(tr, cfg, Options{LinkBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 50
	n.InjectNoise(7, frames)
	// 2 directed links of capacity 1 ⇒ at most 2 frames stored.
	if got := n.FramesDropped(); got < frames-2 {
		t.Fatalf("FramesDropped = %d, want ≥ %d", got, frames-2)
	}
}

// TestSaturatedNetworkDegradesNotCrashes runs the protocol with 1-frame
// links while flooding every link with mid-run noise and garbage: frames
// must be dropped (the backpressure signal), and the network must still
// serve a request afterwards — degraded service, no panic.
func TestSaturatedNetworkDegradesNotCrashes(t *testing.T) {
	tr := tree.Star(4)
	cfg := core.Config{K: 1, L: 2, CMAX: 2, Features: core.Full()}
	n, err := New(tr, cfg, Options{Timeout: 2 * time.Millisecond, LinkBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan int, 16)
	for p := 0; p < tr.N(); p++ {
		n.OnEnter(p, func(p int) { granted <- p })
	}
	n.Start(context.Background())
	defer n.Stop()

	// Flood mid-run: tiny links + injected frames force full-link drops on
	// both the injection path and the protocol's own Send path.
	for i := 0; i < 200; i++ {
		n.InjectNoise(int64(i), 5)
		n.InjectGarbage(int64(1000 + i))
		time.Sleep(100 * time.Microsecond)
	}
	if n.FramesDropped() == 0 {
		t.Fatal("expected full-link drops under the flood")
	}

	// The flood is over; the self-stabilizing protocol must recover and
	// serve. Requests race the residual churn, so retry until granted.
	deadline := time.After(15 * time.Second)
	p := 1
	if err := n.Request(p, 1); err != nil {
		t.Fatalf("request: %v", err)
	}
	for {
		select {
		case q := <-granted:
			if q == p {
				n.Release(p)
				return
			}
		case <-deadline:
			t.Fatalf("no grant after flood: dropped=%d rejected=%d",
				n.FramesDropped(), n.FramesRejected())
		}
	}
}
