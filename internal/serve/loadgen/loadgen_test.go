package loadgen

import (
	"strings"
	"testing"
	"time"

	"kofl/internal/serve"
	"kofl/internal/tree"
)

// TestLoadgenSmoke is the CI smoke: a short open-loop run against a live
// server must complete with zero protocol violations and a non-empty
// latency histogram. It is the cheap always-on version of BenchmarkServe.
func TestLoadgenSmoke(t *testing.T) {
	s, err := serve.New(tree.Paper(), serve.Options{K: 3, L: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := Run(Config{
		Addr:     s.Addr(),
		Clients:  4,
		Rate:     200,
		Duration: 1500 * time.Millisecond,
		MaxUnits: 3,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("%+v", res)
	if res.Violations != 0 {
		t.Fatalf("%d protocol violations", res.Violations)
	}
	if res.Completed == 0 {
		t.Fatal("no completed acquires")
	}
	if res.LatencyCount == 0 || res.LatencyP99us <= 0 {
		t.Fatalf("empty latency histogram: %+v", res)
	}
	if res.LatencyP50us > res.LatencyP95us || res.LatencyP95us > res.LatencyP99us {
		t.Fatalf("non-monotonic percentiles: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d transport errors against a healthy local server", res.Errors)
	}
}

// TestLoadgenConfigValidation pins what Run rejects. Every case points at
// a closed port, so a config error that names its field was raised before
// dialing; the rates above MaxRate used to panic (2e9 rounds the arrival gap
// to 0 ns: integer divide by zero) or size the schedule at Duration/gap.
func TestLoadgenConfigValidation(t *testing.T) {
	const closed = "127.0.0.1:1"
	for _, c := range []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"zero rate", Config{Rate: 0, Duration: time.Second}, "Rate and Duration"},
		{"negative rate", Config{Rate: -1, Duration: time.Second}, "Rate and Duration"},
		{"zero duration", Config{Rate: 100}, "Rate and Duration"},
		{"rate rounds the gap to zero", Config{Rate: 2e9, Duration: time.Second}, "Rate 2e+09/s"},
		{"rate just above the cap", Config{Rate: MaxRate + 1, Duration: time.Second}, "Rate 1.000001e+06/s"},
		{"closed port", Config{Rate: MaxRate, Duration: time.Second}, "connect"},
	} {
		c.cfg.Addr = closed
		_, err := Run(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
