package serve_test

import (
	"runtime"
	"testing"
	"time"

	"kofl/internal/serve"
	"kofl/internal/serve/loadgen"
	"kofl/internal/tree"
)

// TestOnePStarvationGuard serves an open loop on a single P. Token
// circulation under demand must park often enough for that P to reach the
// netpoller: a delivery loop that only yields keeps a goroutine runnable at
// all times, network readiness is then noticed on sysmon's 10ms tick alone,
// and the queues overflow (17 % completion when the busy rest is a Gosched).
// Completion only — a one-P run's latency is the host's business.
func TestOnePStarvationGuard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := serve.New(tree.Paper(), serve.Options{K: 3, L: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := loadgen.Run(loadgen.Config{
		Addr:     s.Addr(),
		Rate:     1600,
		Duration: 1500 * time.Millisecond,
		MaxUnits: 3,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("%+v", res)
	if res.Completed != res.Offered || res.Overloads != 0 {
		t.Fatalf("completed %d of %d offered, %d overload rejects: the single P is starved",
			res.Completed, res.Offered, res.Overloads)
	}
	if res.Violations != 0 {
		t.Fatalf("%d protocol violations", res.Violations)
	}
}
