package sim_test

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"kofl/internal/core"
	"kofl/internal/obs"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// TestSimObservability runs the full protocol from an arbitrary (empty)
// configuration with instrumentation enabled and checks the opt-in surface:
// the kofl_sim_* func metrics agreeing with the kernel state, in a
// strict-format exposition.
func TestSimObservability(t *testing.T) {
	tr := tree.Paper()
	cfg := core.Config{K: 3, L: 5, N: tr.N(), CMAX: 4, Features: core.Full()}
	reg := obs.NewRegistry()
	s := sim.MustNew(tr, cfg, sim.Options{Seed: 42, Obs: reg})
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%3, 3, 5, 0))
	}

	if !s.RunUntil(2_000_000, s.TokensCorrect) {
		t.Fatal("system never reached a legitimate token population")
	}
	s.Run(50_000) // steady-state churn on top

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
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("sim exposition missing %q in:\n%s", want, out)
		}
	}
	if err := obs.CheckExposition([]byte(out)); err != nil {
		t.Fatalf("sim exposition fails strict format check: %v\n%s", err, out)
	}
	if got := promValue(t, reg, "kofl_sim_steps_total"); got != s.Steps {
		t.Errorf("kofl_sim_steps_total = %d, the kernel ran %d steps", got, s.Steps)
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
