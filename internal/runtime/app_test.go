package runtime_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/runtime"
	"kofl/internal/tree"
)

// appNet starts a live network that counts OnEnter per process, and waits
// for its first legitimate census.
func appNet(t *testing.T, tr *tree.Tree, cfg core.Config) (*runtime.Net, []atomic.Int64, []chan struct{}) {
	t.Helper()
	n := startNet(t, tr, cfg, runtime.Options{Timeout: 5 * time.Millisecond})
	enters := make([]atomic.Int64, tr.N())
	entered := make([]chan struct{}, tr.N())
	for p := range entered {
		entered[p] = make(chan struct{}, 4)
		n.OnEnter(p, func(p int) {
			enters[p].Add(1)
			entered[p] <- struct{}{}
		})
	}
	n.Start(context.Background())
	t.Cleanup(n.Stop)
	for deadline := time.Now().Add(10 * time.Second); !n.Stabilized(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("not stabilized 10s after Start")
		}
	}
	return n, enters, entered
}

func awaitEnter(t *testing.T, entered chan struct{}, p int) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("process %d: no grant within 10s", p)
	}
}

func awaitDemand(t *testing.T, n *runtime.Net, want int64) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); n.Demand() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("demand %d, want %d", n.Demand(), want)
		}
	}
}

// TestUnrequestedEntryIsReleased: a process corrupted into Req with its need
// covered enters a critical section its application never asked for. That
// entry fires no OnEnter and leaves Demand at 0, and the process goes back
// to Out at once, so the application's next request is accepted and granted
// once.
func TestUnrequestedEntryIsReleased(t *testing.T) {
	n, enters, entered := appNet(t, tree.Paper(), core.Config{K: 3, L: 5, CMAX: 4, Features: core.Full()})
	n.Corrupt(0, core.Snapshot{State: core.Req, Need: 1, RSet: []int{0}})
	if got := enters[0].Load(); got != 0 {
		t.Fatalf("unrequested entry fired OnEnter %d times", got)
	}
	if d := n.Demand(); d != 0 {
		t.Fatalf("demand %d after an unrequested entry, want 0", d)
	}
	if err := n.Request(0, 1); err != nil {
		t.Fatalf("request after the unrequested entry: %v (want the process back in Out)", err)
	}
	awaitEnter(t, entered[0], 0)
	n.Release(0)
	awaitDemand(t, n, 0)
	if got := enters[0].Load(); got != 1 {
		t.Fatalf("OnEnter fired %d times for one request", got)
	}
}

// TestAskedRequestSurvivesCorruption: while every unit is leased at process
// 1, process 2 asks for both and waits. A fault then puts process 2 in Out,
// or in Req for one unit. Once process 1 releases, process 2 is entered
// exactly once, with one OnEnter, and for the two units it asked: while it
// holds them, a third request waits.
func TestAskedRequestSurvivesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap core.Snapshot
	}{
		{"out", core.Snapshot{State: core.Out, Prio: core.NoPrio}},
		{"req-other-need", core.Snapshot{State: core.Req, Need: 1, Prio: core.NoPrio}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, enters, entered := appNet(t, tree.Star(4), core.Config{K: 2, L: 2, CMAX: 2, Features: core.Full()})
			if err := n.Request(1, 2); err != nil {
				t.Fatal(err)
			}
			awaitEnter(t, entered[1], 1)
			if err := n.Request(2, 2); err != nil {
				t.Fatal(err)
			}
			n.Corrupt(2, tc.snap)
			if got := enters[2].Load(); got != 0 {
				t.Fatalf("entered %d times while every unit is leased elsewhere", got)
			}
			if d := n.Demand(); d != 1 {
				t.Fatalf("demand %d after the fault, want the asked request's 1", d)
			}
			n.Release(1)
			awaitEnter(t, entered[2], 2)
			if err := n.Request(3, 1); err != nil {
				t.Fatal(err)
			}
			select {
			case <-entered[3]:
				t.Fatal("process 3 granted while process 2 should hold both units")
			case <-time.After(200 * time.Millisecond):
			}
			n.Release(2)
			awaitEnter(t, entered[3], 3)
			n.Release(3)
			awaitDemand(t, n, 0)
			if got := enters[2].Load(); got != 1 {
				t.Fatalf("OnEnter fired %d times for process 2's one request", got)
			}
		})
	}
}

// TestZeroNeedIsGranted: Request(p, 0) is entered inside Node.Request, on
// the process goroutine, before Request returns. That entry is the grant.
func TestZeroNeedIsGranted(t *testing.T) {
	n, enters, _ := appNet(t, tree.Chain(3), core.Config{K: 1, L: 1, CMAX: 2, Features: core.Full()})
	for round := int64(1); round <= 2; round++ {
		if err := n.Request(1, 0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, d := enters[1].Load(), n.Demand(); got != round || d != 0 {
			t.Fatalf("round %d: OnEnter %d times, demand %d; want %d and 0", round, got, d, round)
		}
		if g := n.Grants(); g != round {
			t.Fatalf("round %d: Grants() = %d", round, g)
		}
		n.Release(1)
	}
}
