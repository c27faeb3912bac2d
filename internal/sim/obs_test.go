package sim_test

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"kofl/internal/core"
	"kofl/internal/obs"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// TestSimObservability runs the full protocol from an arbitrary (empty)
// configuration with instrumentation enabled and checks the whole opt-in
// surface: the journal's stabilization telemetry stamped at the simulation
// clock, the kofl_sim_* func metrics agreeing with the kernel counters, and
// a strict-format exposition.
func TestSimObservability(t *testing.T) {
	tr := tree.Paper()
	cfg := core.Config{K: 3, L: 5, N: tr.N(), CMAX: 4, Features: core.Full()}
	reg := obs.NewRegistry()
	j := obs.NewJournal(512, func() int64 { return time.Now().UnixNano() })
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 42, Obs: reg, Journal: j})
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%3, 3, 5, 0))
	}

	if !s.RunUntil(2_000_000, s.TokensCorrect) {
		t.Fatal("system never reached a legitimate token population")
	}
	s.Run(50_000) // steady-state churn on top

	var stabClock int64 = -1
	for _, e := range j.Snapshot() {
		if e.Kind == obs.KindStabilized {
			stabClock = e.Time
			if e.A != int64(cfg.L) {
				t.Errorf("stabilized entry carries res=%d, want %d", e.A, cfg.L)
			}
		}
	}
	if stabClock < 0 {
		t.Fatal("journal has no stabilized entry")
	}
	if stabClock > s.Steps {
		t.Errorf("stabilized entry stamped at clock %d, beyond %d executed steps", stabClock, s.Steps)
	}

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"kofl_sim_steps_total",
		"kofl_sim_enabled_actions",
		"kofl_sim_actionset_spills_total",
		"kofl_sim_census_legitimate 1",
		"kofl_sim_overk_violations_total",
		"kofl_sim_stabilizations_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("sim exposition missing %q in:\n%s", want, out)
		}
	}
	if err := obs.CheckExposition([]byte(out)); err != nil {
		t.Fatalf("sim exposition fails strict format check: %v\n%s", err, out)
	}

	// The token-population invariant as a metric: with 64 applications
	// enabled at the start the enabled set outgrows its sorted array exactly
	// once, while they drain, and a legitimate population — ℓ resource
	// tokens, a pusher, a priority token, a controller — never fills it again.
	t.Run("spills", func(t *testing.T) {
		tr := tree.Prufer(64, rand.New(rand.NewSource(3)))
		cfg.N = tr.N()
		reg := obs.NewRegistry()
		s := sim.MustNew(tr, cfg, sim.Options{Seed: 42, Obs: reg})
		const spills = "kofl_sim_actionset_spills_total"
		if got := promValue(t, reg, spills); got != 0 {
			t.Fatalf("%s = %d before any application is attached", spills, got)
		}
		for p := 0; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1+p%3, 3, 5, 0))
		}
		if !s.RunUntil(2_000_000, s.TokensCorrect) {
			t.Fatal("system never reached a legitimate token population")
		}
		if got := promValue(t, reg, spills); got != 1 {
			t.Errorf("%s = %d after the start-up drain, want 1", spills, got)
		}
		s.Run(200_000)
		if got := promValue(t, reg, spills); got != 1 {
			t.Errorf("%s = %d after 200k legitimate steps, want it unchanged at 1", spills, got)
		}
		if got := promValue(t, reg, "kofl_sim_enabled_actions"); got > 16 {
			t.Errorf("%d enabled actions in a legitimate configuration", got)
		}
	})
}

// promValue returns the value of the unlabelled series name in reg's
// exposition.
func promValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("series %s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("series %s not exposed", name)
	return 0
}

// TestSimObsMatchesScanOracle steps the instrumented maintained-census kernel
// and the instrumented ScanCensus oracle kernel over the same seed and
// checks they journal identical stabilization telemetry — the differential
// test that the per-step fast-path legitimacy check (direct field compares)
// agrees with the full Census().LegitimateFor.
func TestSimObsMatchesScanOracle(t *testing.T) {
	run := func(scan bool) []obs.Entry {
		tr := tree.Paper()
		cfg := core.Config{K: 3, L: 5, N: tr.N(), CMAX: 4, Features: core.Full()}
		j := obs.NewJournal(4096, nil)
		s := sim.MustNew(tr, cfg, sim.Options{Seed: 7, Journal: j, ScanCensus: scan})
		for p := 0; p < tr.N(); p++ {
			workload.Attach(s, p, workload.Fixed(1+p%3, 3, 5, 0))
		}
		s.Run(300_000)
		return j.Snapshot()
	}
	fast, oracle := run(false), run(true)
	if len(fast) != len(oracle) {
		t.Fatalf("journals diverge: %d entries (maintained) vs %d (scan oracle)", len(fast), len(oracle))
	}
	for i := range fast {
		if fast[i] != oracle[i] {
			t.Fatalf("journal entry %d diverges:\n  maintained: %+v\n  oracle:     %+v", i, fast[i], oracle[i])
		}
	}
}
