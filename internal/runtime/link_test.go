package runtime

import (
	"context"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/tree"
)

// TestLinkFIFOPerChannel pins the order contract of the shared inbox: the
// frames one neighbour sends arrive in the order it sent them, whatever the
// receiver's other neighbours write in between.
func TestLinkFIFOPerChannel(t *testing.T) {
	tr := tree.Star(4)
	cfg := core.Config{K: 1, L: 1, CMAX: 2, Features: core.Full()}
	n, err := New(tr, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const perEdge = 200 // 3 × 200 < the centre's 3 × DefaultLinkBuffer: nothing drops
	var wg sync.WaitGroup
	for p := 1; p < tr.N(); p++ {
		wg.Add(1)
		go func(env *liveEnv) {
			defer wg.Done()
			for c := 0; c < perEdge; c++ {
				env.Send(0, message.NewCtrl(c, false, 0, 0))
			}
		}(&liveEnv{pr: n.procs[p]})
	}
	next := make([]int, tr.Degree(0))
	for i := 0; i < perEdge*(tr.N()-1); i++ {
		d := <-n.procs[0].inbox
		m, _, err := message.Decode(d.frame[:])
		if err != nil {
			t.Fatalf("frame %d on channel %d: %v", i, d.ch, err)
		}
		if m.C != next[d.ch] {
			t.Fatalf("channel %d delivered C=%d, want %d", d.ch, m.C, next[d.ch])
		}
		next[d.ch]++
	}
	wg.Wait()
	if got := n.FramesDropped(); got != 0 {
		t.Fatalf("FramesDropped = %d, want 0", got)
	}
}

// TestLinkHopAllocatesNothing: a frame travels inline, so one hop — encode
// and send, receive, verify and decode — costs no allocation.
func TestLinkHopAllocatesNothing(t *testing.T) {
	n, err := New(tree.Chain(2), core.Config{K: 1, L: 1, CMAX: 2, Features: core.Full()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := &liveEnv{pr: n.procs[0]}
	msg := message.NewCtrl(7, true, 1, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		env.Send(0, msg)
		d := <-n.procs[1].inbox
		if m, _, err := message.Decode(d.frame[:]); err != nil || m != msg {
			t.Fatalf("hop delivered %v, %v; want %v", m, err, msg)
		}
	})
	if allocs != 0 {
		t.Fatalf("one hop allocates %.1f times, want 0", allocs)
	}
}

// TestStartedNetRunsOneGoroutinePerProcess: no pump layer — a started
// network is n goroutines.
func TestStartedNetRunsOneGoroutinePerProcess(t *testing.T) {
	tr := tree.Paper()
	n, err := New(tr, core.Config{K: 3, L: 5, CMAX: 4, Features: core.Full()}, Options{
		Timeout: 5 * time.Millisecond, Pace: 10 * time.Microsecond, IdlePace: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stop returns on the last wg.Done, a few instructions before that
	// goroutine is gone: let the stragglers of earlier tests exit.
	time.Sleep(10 * time.Millisecond)
	before := goruntime.NumGoroutine()
	n.Start(context.Background())
	defer n.Stop()
	if got := goruntime.NumGoroutine() - before; got != tr.N() {
		t.Errorf("Start launched %d goroutines, want %d", got, tr.N())
	}
}

// TestMidRunNoiseIsRejected: raw noise injected into a running network is
// checksum-rejected and counted, never handed to the state machine. Without
// the controller nothing creates tokens from the empty configuration, so the
// noise is the only traffic there is.
func TestMidRunNoiseIsRejected(t *testing.T) {
	n, err := New(tree.Paper(), core.Config{K: 3, L: 5, CMAX: 4, Features: core.NonStabilizing()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.Start(context.Background())
	defer n.Stop()
	const frames = 64 // seed 3 draws no frame that passes checksum and kind
	n.InjectNoise(3, frames)
	deadline := time.Now().Add(10 * time.Second)
	for n.FramesRejected() < frames {
		if time.Now().After(deadline) {
			t.Fatalf("FramesRejected = %d after 10s, want %d", n.FramesRejected(), frames)
		}
		time.Sleep(time.Millisecond)
	}
	if got := n.FramesDelivered(); got != 0 {
		t.Fatalf("FramesDelivered = %d, want 0: noise reached the state machine", got)
	}
	if got := n.FramesDropped(); got != 0 {
		t.Fatalf("FramesDropped = %d, want 0", got)
	}
}
