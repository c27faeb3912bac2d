package runtime_test

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/runtime"
	"kofl/internal/serve"
	"kofl/internal/tree"
)

// TestFirstLapAtStart pins the start-up firing: the root takes its timeout
// action when Start launches it, so a network whose Timeout is an hour still
// creates its tokens and reaches a legitimate census at once — from the
// empty configuration, from a garbage start, and behind the lease server's
// readiness probe.
func TestFirstLapAtStart(t *testing.T) {
	cfg := core.Config{K: 3, L: 5, CMAX: 4, Features: core.Full()}
	t.Run("empty", func(t *testing.T) {
		n, err := runtime.New(tree.Paper(), cfg, runtime.Options{Timeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		n.Start(context.Background())
		defer n.Stop()
		awaitStabilized(t, n.Stabilized)
		if got := n.Timeouts(); got != 1 {
			t.Errorf("Timeouts() = %d, want 1: the start-up firing alone", got)
		}
	})

	t.Run("garbage", func(t *testing.T) {
		tr := tree.Paper()
		n, err := runtime.New(tr, cfg, runtime.Options{Timeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		n.InjectGarbage(7)
		var held, peak atomic.Int64
		granted := make([]chan struct{}, tr.N())
		for p := range granted {
			granted[p] = make(chan struct{}, 1)
			n.OnEnter(p, func(int) {
				h := held.Add(int64(need(p, cfg)))
				for m := peak.Load(); h > m && !peak.CompareAndSwap(m, h); m = peak.Load() {
				}
				granted[p] <- struct{}{}
			})
		}
		n.Start(context.Background())
		defer n.Stop()
		awaitStabilized(t, n.Stabilized)

		// No request is issued before the census, so every grant counted
		// comes after stabilization, where at most ℓ units are out at once.
		var wg sync.WaitGroup
		for p := 1; p < tr.N(); p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					if err := n.Request(p, need(p, cfg)); err != nil {
						t.Errorf("Request(%d): %v", p, err)
						return
					}
					select {
					case <-granted[p]:
					case <-time.After(10 * time.Second):
						t.Errorf("process %d: grant timed out (round %d)", p, r)
						return
					}
					time.Sleep(200 * time.Microsecond)
					held.Add(-int64(need(p, cfg)))
					n.Release(p)
				}
			}(p)
		}
		wg.Wait()
		if got := peak.Load(); got > int64(cfg.L) {
			t.Errorf("%d units held at once after stabilization, want ≤ ℓ = %d", got, cfg.L)
		}
	})

	t.Run("serve", func(t *testing.T) {
		srv, err := serve.New(tree.Paper(), serve.Options{
			K: 3, L: 5, Timeout: time.Hour, DebugAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		awaitStabilized(t, srv.Ready)
		resp, err := http.Get("http://" + srv.DebugAddr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/readyz = %d with Ready() true, want 200", resp.StatusCode)
		}
	})
}

// need is process p's request size in TestFirstLapAtStart.
func need(p int, cfg core.Config) int { return 1 + p%cfg.K }

// awaitStabilized fails t unless ready holds within a second, well inside
// the hour-long Timeout.
func awaitStabilized(t *testing.T, ready func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !ready() {
		if time.Now().After(deadline) {
			t.Fatal("not stabilized 1s after Start with an hour-long Timeout")
		}
		time.Sleep(time.Millisecond)
	}
}
