package serve

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/tree"
)

// rootStray is the process fault that once stopped the server: the root
// corrupted into Req for one unit with a token reserved, a critical section
// its application never asked for.
var rootStray = core.Snapshot{State: core.Req, Need: 1, RSet: []int{0}}

// TestServeChurnMatrix is the race-mode integration matrix: N concurrent
// clients churning acquire/release against a live tree — with batched
// multi-unit admission engaged — while a fault is injected mid-run: garbage
// and noise on the links, the root corrupted into rootStray
// ("-corrupt-root"), or every process corrupted into a random state
// ("-corrupt-all"). It asserts the serving layer's safety story:
//
//   - every sub-lease grants EXACTLY the units its acquire requested (a
//     batch fan-out must never leak one member's units into another's
//     lease);
//   - after the faults are consumed and the protocol re-stabilizes, the
//     units-held watermark never exceeds ℓ (the paper's safety property,
//     observed at the lease layer);
//   - the server keeps granting after the fault burst (liveness — the
//     declared churn is inside the self-stabilizing fault model), and the
//     batch counters stay coherent with the grant counters.
//
// During the fault burst itself the watermark is unconstrained: garbage
// tokens can transiently over-provision a self-stabilizing system, which is
// exactly why the assertion window starts after re-stabilization.
func TestServeChurnMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("churn matrix in -short mode")
	}
	type churnCase struct {
		name    string
		tr      *tree.Tree
		k, l    int
		clients int
		fault   string // "" = link garbage and noise
	}
	var cases []churnCase
	for _, tc := range []churnCase{
		{"paper-k3-l5-c12", tree.Paper(), 3, 5, 12, ""},
		{"star8-k2-l3-c16", tree.Star(8), 2, 3, 16, ""},
		{"chain6-k1-l1-c8", tree.Chain(6), 1, 1, 8, ""},
	} {
		for _, fault := range []string{"", "corrupt-root", "corrupt-all"} {
			c := tc
			c.fault = fault
			if fault != "" {
				c.name += "-" + fault
			}
			cases = append(cases, c)
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := startServer(t, tc.tr, Options{K: tc.k, L: tc.l, QueueDepth: 8})

			ctx, stop := context.WithCancel(context.Background())
			defer stop()
			var wg sync.WaitGroup
			var unitViolations atomic.Int64
			for i := 0; i < tc.clients; i++ {
				c := dial(t, s)
				rng := rand.New(rand.NewSource(int64(i) + 1))
				wg.Add(1)
				go func(c *Client, rng *rand.Rand) {
					defer wg.Done()
					for ctx.Err() == nil {
						units := 1 + rng.Intn(tc.k)
						l, err := c.Acquire(units, 500*time.Millisecond)
						if err != nil {
							continue // overload/deadline rejects are expected churn
						}
						if l.Units != units || l.Units < 1 || l.Units > tc.k {
							unitViolations.Add(1)
						}
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
						c.Release(l.ID)
					}
				}(c, rng)
			}

			// Fault mid-churn: one corruption, or three waves of
			// well-formed garbage tokens plus raw byte noise, then 150ms.
			time.Sleep(200 * time.Millisecond)
			switch tc.fault {
			case "corrupt-root":
				s.Corrupt(0, rootStray)
			case "corrupt-all":
				cfg := core.Config{K: tc.k, L: tc.l, N: tc.tr.N(), CMAX: core.DefaultCMAX}
				rng := rand.New(rand.NewSource(40))
				for p := 0; p < tc.tr.N(); p++ {
					s.Corrupt(p, core.RandomSnapshot(cfg, tc.tr.Degree(p), rng))
				}
			}
			for wave := int64(0); wave < 3; wave++ {
				if tc.fault == "" {
					s.InjectGarbage(40 + wave)
					s.InjectNoise(41+wave, 64)
				}
				time.Sleep(50 * time.Millisecond)
			}

			// Let the protocol consume the faults and re-stabilize, then
			// open the safety-assertion window.
			time.Sleep(1500 * time.Millisecond)
			s.ResetMaxUnitsHeld()
			grantsBefore := s.Stats().Grants
			time.Sleep(1 * time.Second)
			maxHeld := s.MaxUnitsHeld()
			grantsAfter := s.Stats().Grants
			stop()
			wg.Wait()

			if v := unitViolations.Load(); v != 0 {
				t.Errorf("%d sub-leases outside their request (want exact units, 1..k)", v)
			}
			if maxHeld > int64(tc.l) {
				t.Errorf("post-stabilization units-held watermark %d exceeds l=%d", maxHeld, tc.l)
			}
			if grantsAfter == grantsBefore {
				t.Errorf("no grants in the post-stabilization window (liveness lost)")
			}
			st := s.Stats()
			if st.Batches == 0 || st.Batches > st.Grants {
				t.Errorf("batches=%d grants=%d: want 1 ≤ batches ≤ grants", st.Batches, st.Grants)
			}
			if st.BatchUnits < st.Grants {
				t.Errorf("batch units %d < grants %d: some grant rode no batch", st.BatchUnits, st.Grants)
			}
			t.Logf("grants=%d batches=%d overloads=%d deadlines=%d expired=%d framesRejected=%d framesDropped=%d maxHeld=%d",
				st.Grants, st.Batches, st.Overloads, st.DeadlineRejects, st.Expired, st.FramesRejected, st.FramesDropped, maxHeld)
		})
	}
}

// TestServeFaultFreeWatermark pins the invariant without any injection: in a
// fault-free run the watermark must respect ℓ from the first grant on.
func TestServeFaultFreeWatermark(t *testing.T) {
	s := startServer(t, tree.Paper(), Options{K: 3, L: 5, QueueDepth: 8})
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		c := dial(t, s)
		rng := rand.New(rand.NewSource(int64(i) + 100))
		wg.Add(1)
		go func(c *Client, rng *rand.Rand) {
			defer wg.Done()
			for ctx.Err() == nil {
				l, err := c.Acquire(1+rng.Intn(3), 500*time.Millisecond)
				if err != nil {
					continue
				}
				c.Release(l.ID)
			}
		}(c, rng)
	}
	time.Sleep(1500 * time.Millisecond)
	stop()
	wg.Wait()
	if maxHeld := s.MaxUnitsHeld(); maxHeld > 5 {
		t.Fatalf("fault-free watermark %d exceeds l=5", maxHeld)
	}
	if s.Stats().Grants == 0 {
		t.Fatal("no grants at all")
	}
}

// TestCorruptedProcessKeepsServing: a server whose root is corrupted into a
// critical section nobody asked for (rootStray) serves on. 50 sequential
// one-unit acquires, each released at once, are all granted before the
// fault and all after it.
func TestCorruptedProcessKeepsServing(t *testing.T) {
	s := startServer(t, tree.Paper(), Options{K: 3, L: 5})
	for deadline := time.Now().Add(10 * time.Second); !s.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("not ready 10s after Start")
		}
	}
	c := dial(t, s)
	serve50 := func(when string) {
		t.Helper()
		granted := 0
		var last error
		for i := 0; i < 50; i++ {
			l, err := c.Acquire(1, 500*time.Millisecond)
			if err != nil {
				last = err
				continue
			}
			granted++
			c.Release(l.ID)
		}
		if granted != 50 {
			t.Fatalf("%s the fault: %d/50 acquires granted (last error: %v)", when, granted, last)
		}
	}
	serve50("before")
	s.Corrupt(0, rootStray)
	serve50("after")
}
