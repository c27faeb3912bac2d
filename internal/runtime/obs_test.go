package runtime_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/obs"
	"kofl/internal/runtime"
	"kofl/internal/tree"
)

// TestRuntimeObservability boots the full protocol from a garbage start with
// a journal attached and a registry over the network's counters, waits for
// stabilization, and checks the whole telemetry surface: the Stabilized
// readiness signal, the journal's stabilized transition and fault records,
// the paced/timeout counters, and a strict-format exposition of the runtime
// registry (the runtime half of the exposition-correctness satellite).
func TestRuntimeObservability(t *testing.T) {
	tr := tree.Paper()
	cfg := core.Config{K: 3, L: 5, CMAX: 4, Features: core.Full()}
	j := obs.NewJournal(256, func() int64 { return time.Now().UnixNano() })
	n, err := runtime.New(tr, cfg, runtime.Options{
		Timeout:  5 * time.Millisecond,
		IdlePace: 100 * time.Microsecond,
		Journal:  j,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.InjectGarbage(7)
	if n.Stabilized() {
		t.Fatal("Stabilized before Start")
	}
	n.Start(context.Background())
	defer n.Stop()

	deadline := time.Now().Add(30 * time.Second)
	for !n.Stabilized() {
		if time.Now().After(deadline) {
			t.Fatal("network never stabilized")
		}
		time.Sleep(2 * time.Millisecond)
	}

	var sawStab, sawFault, sawTimeout bool
	for _, e := range j.Snapshot() {
		switch e.Kind {
		case obs.KindStabilized:
			sawStab = true
			if e.A != int64(cfg.L) {
				t.Errorf("stabilized entry carries res=%d, want %d", e.A, cfg.L)
			}
		case obs.KindFaultInjected:
			sawFault = true
		case obs.KindTimeout:
			sawTimeout = true
		}
	}
	if !sawStab || !sawFault || !sawTimeout {
		t.Fatalf("journal missing events: stabilized=%v fault=%v timeout=%v",
			sawStab, sawFault, sawTimeout)
	}
	if n.Timeouts() == 0 {
		t.Error("Timeouts() = 0 after a garbage-start bootstrap")
	}
	// Holds start with quiescence, i.e. at the first frame a process
	// receives after the legitimate census.
	for n.FramesPaced() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("FramesPaced() = 0 on a stabilized idle network with IdlePace set")
		}
		time.Sleep(time.Millisecond)
	}

	reg := obs.NewRegistry()
	n.Register(reg)
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"kofl_runtime_frames_delivered_total",
		"kofl_runtime_frames_paced_total",
		"kofl_runtime_demand_wakes_total",
		"kofl_runtime_timeout_retransmissions_total",
		"kofl_runtime_stabilized 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q in:\n%s", want, out)
		}
	}
	if err := obs.CheckExposition([]byte(out)); err != nil {
		t.Fatalf("runtime exposition fails strict format check: %v\n%s", err, out)
	}
}
