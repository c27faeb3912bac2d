package sim

import "kofl/internal/obs"

// obsState is the simulation's opt-in instrumentation (Options.Obs /
// Options.Journal). The kernel counters (Steps, Delivered, Timeouts,
// AppActions) and the maintained census are bridged through func metrics —
// read at scrape time, zero cost per step. The only per-step work is the
// transition detection in Step: one Health read compared against the
// previous step, inside the zero-allocation stepping contract. Whether it
// stays inside the ≤2% overhead budget is unverified — the benchmark's
// sim.obs_overhead_frac reads above it; see docs/ARCHITECTURE.md
// "Observability". The cold half lives below.
type obsState struct {
	journal *obs.Journal

	// Previous-step flags for edge detection.
	prevLegit bool
	prevOverK bool

	// Totals, exposed via CounterFunc (the step loop is single-threaded, so
	// plain fields suffice).
	violations     int64 // OverK windows opened
	stabilizations int64 // illegitimate→legitimate transitions
}

// obsTransition records OverK-window and legitimacy edges in the counters
// and the journal, stamped at the simulation clock.
func (s *Sim) obsTransition(legit bool, unitsInUse, overKCount int) {
	o := s.obsSt
	overK := overKCount > 0
	if overK != o.prevOverK {
		o.prevOverK = overK
		if overK {
			o.violations++
			if o.journal != nil {
				o.journal.RecordAt(s.clock, obs.KindOverKOpen, int32(s.LastAction.Proc),
					int64(overKCount), int64(unitsInUse))
			}
		} else if o.journal != nil {
			o.journal.RecordAt(s.clock, obs.KindOverKClose, int32(s.LastAction.Proc), 0, 0)
		}
	}
	if legit != o.prevLegit {
		o.prevLegit = legit
		res := int64(s.Census().Res())
		if legit {
			o.stabilizations++
			if o.journal != nil {
				o.journal.RecordAt(s.clock, obs.KindStabilized, int32(s.LastAction.Proc), res, 0)
			}
		} else if o.journal != nil {
			o.journal.RecordAt(s.clock, obs.KindDestabilized, int32(s.LastAction.Proc), res, 0)
		}
	}
}

// initObs attaches the instrumentation state and registers the kofl_sim_*
// series on reg (setup time only; per-step cost is obsStep alone).
func (s *Sim) initObs(reg *obs.Registry, journal *obs.Journal) {
	o := &obsState{journal: journal}
	s.obsSt = o
	// Seed edge detection from the actual initial state so step 1 does not
	// journal a phantom transition.
	legit, _, overK := s.Health()
	o.prevLegit, o.prevOverK = legit, overK > 0

	if reg == nil {
		return
	}
	reg.CounterFunc("kofl_sim_steps_total", "actions executed", func() int64 { return s.Steps })
	reg.CounterFunc("kofl_sim_timeouts_total", "root timeout firings", func() int64 { return s.Timeouts })
	reg.CounterFunc("kofl_sim_app_actions_total", "application actions executed", func() int64 { return s.AppActions })
	reg.CounterFunc("kofl_sim_deliveries_total", "message deliveries executed", func() int64 {
		var t int64
		for _, d := range s.Delivered {
			t += d
		}
		return t
	})
	reg.GaugeFunc("kofl_sim_enabled_actions", "currently enabled actions", func() int64 {
		return int64(s.actions.Len())
	})
	reg.CounterFunc("kofl_sim_actionset_spills_total",
		"times the enabled set outgrew its sorted array and moved to bitmaps (constant once the token population is legitimate)",
		func() int64 { return s.actions.spills })
	reg.GaugeFunc("kofl_sim_census_overk", "processes in CS holding more than k units", func() int64 {
		return int64(s.Census().OverK)
	})
	reg.GaugeFunc("kofl_sim_census_legitimate", "token populations legitimate (0/1)", func() int64 {
		if s.TokensCorrect() {
			return 1
		}
		return 0
	})
	reg.CounterFunc("kofl_sim_overk_violations_total",
		"safety-violation windows opened (some process entered CS over k)",
		func() int64 { return o.violations })
	reg.CounterFunc("kofl_sim_stabilizations_total",
		"illegitimate-to-legitimate token-population transitions",
		func() int64 { return o.stabilizations })
}
