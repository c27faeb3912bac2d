package sim

import "kofl/internal/obs"

// initObs registers the kofl_sim_* series on reg (Options.Obs): the kernel
// counters (Steps, Delivered, Timeouts, AppActions), the action set and the
// maintained census, bridged through func metrics read at scrape time. A
// step does no instrumentation work.
func (s *Sim) initObs(reg *obs.Registry) {
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
}
