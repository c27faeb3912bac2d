package campaign

import (
	"math"
	"slices"

	"kofl/internal/checker"
)

// Dist is a JSON-friendly summary of an int64 sample vector. All fields are
// pure functions of the sample values and their order, so a Dist computed
// from samples collected in a fixed order is byte-for-byte reproducible when
// marshalled.
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Median int64   `json:"median"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// Describe summarizes samples into a Dist. The mean and the sample standard
// deviation are accumulated in the order given, keeping float rounding
// deterministic for a fixed input order; the median is the nearest-rank
// 50th percentile.
func Describe(samples []int64) Dist {
	n := len(samples)
	if n == 0 {
		return Dist{}
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	d := Dist{N: n, Mean: sum / float64(n)}
	if n >= 2 {
		var acc float64
		for _, v := range samples {
			dv := float64(v) - d.Mean
			acc += dv * dv
		}
		d.Stddev = math.Sqrt(acc / float64(n-1))
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	d.Median = sorted[(n+1)/2-1]
	d.Min, d.Max = sorted[0], sorted[n-1]
	return d
}

// CV returns the coefficient of variation (stddev / mean), the scale-free
// spread measure adaptive seed escalation keys on. It is 0 when the mean is
// 0 or fewer than two samples were described.
func (d Dist) CV() float64 {
	if d.Mean == 0 || d.N < 2 {
		return 0
	}
	return d.Stddev / d.Mean
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) for the sample
// vector: 1 for perfectly equal allocations, approaching 1/n under total
// starvation of all but one participant. It is 0 for an empty or all-zero
// vector by convention.
func JainIndex(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// CellResult is one grid cell's aggregate over its seed sweep, plus the
// per-run results it was computed from (in seed order).
type CellResult struct {
	Cell         Cell   `json:"cell"`
	Label        string `json:"label"`
	N            int    `json:"n"`
	RingLen      int    `json:"ring_len"`
	WaitingBound int64  `json:"waiting_bound"`

	// Totals over all runs of the cell.
	TotalGrants   int64 `json:"total_grants"`
	TotalResets   int64 `json:"total_resets"`
	TotalTimeouts int64 `json:"total_timeouts"`
	TotalStorms   int64 `json:"total_storms"`
	TotalSafety   int   `json:"total_safety_violations"`
	TotalRes      int64 `json:"total_delivered_res"`
	TotalCtrl     int64 `json:"total_delivered_ctrl"`

	// Distributions over runs.
	Grants      Dist  `json:"grants"`
	Convergence Dist  `json:"convergence"` // ConvergedAt of converged runs
	Waiting     Dist  `json:"waiting"`     // per-run worst waiting times
	Diverged    int   `json:"diverged"`    // runs that never converged
	MaxWaiting  int64 `json:"max_waiting"` // worst over all runs

	// Derived ratios (0 when undefined).
	WaitingRatio float64 `json:"waiting_ratio"` // MaxWaiting / WaitingBound
	ResPerGrant  float64 `json:"res_per_grant"`
	CtrlPerGrant float64 `json:"ctrl_per_grant"`
	Availability float64 `json:"availability"` // mean legit-step fraction
	MeanJain     float64 `json:"mean_jain"`

	Runs []RunResult `json:"runs"`
}

// Report is the order-independent campaign outcome: the normalized spec and
// one CellResult per plan cell, in plan order. Round, Fingerprint and
// Parent tie the report to the Plan that produced it — Merge stamps them so
// escalation rounds and shard provenance are checkable after the fact.
type Report struct {
	Name string `json:"name"`
	Spec Spec   `json:"spec"`
	// Round is 0 for the base grid, ≥ 1 for escalation rounds.
	Round int `json:"round,omitempty"`
	// Fingerprint is the producing plan's fingerprint; Parent is the
	// previous round's (escalation rounds only).
	Fingerprint string       `json:"plan_fingerprint"`
	Parent      string       `json:"parent_fingerprint,omitempty"`
	Cells       int          `json:"cells"`
	RunsPer     int          `json:"runs_per_cell"`
	TotalRuns   int          `json:"total_runs"`
	Results     []CellResult `json:"results"`
}

// round6 trims float noise to 6 decimals so emitted JSON stays readable;
// it is a pure function, so determinism is unaffected.
func round6(f float64) float64 { return math.Round(f*1e6) / 1e6 }

// aggregate merges per-run results — already ordered by (cell, seed) — into
// the Report. It runs single-threaded after the pool drains; every float
// accumulation therefore has a fixed order and the output is reproducible.
func aggregate(plan *Plan, results [][]RunResult) *Report {
	cells := plan.Cells
	rep := &Report{
		Name:        plan.Name,
		Spec:        plan.Spec,
		Round:       plan.Round,
		Fingerprint: plan.Fingerprint,
		Parent:      plan.Parent,
		Cells:       len(cells),
		RunsPer:     plan.Seeds.Count,
		TotalRuns:   len(cells) * plan.Seeds.Count,
		Results:     make([]CellResult, 0, len(cells)),
	}
	for i, c := range cells {
		tr, err := c.Topology.Build()
		if err != nil {
			panic(err)
		}
		cr := CellResult{
			Cell:         c,
			Label:        c.Label(),
			N:            tr.N(),
			RingLen:      tr.RingLen(),
			WaitingBound: checker.Bound(tr.N(), c.L),
			Runs:         results[i],
		}
		var grants, converged, waiting []int64
		var legitFrac, jainSum float64
		for _, rr := range results[i] {
			grants = append(grants, rr.Grants)
			waiting = append(waiting, rr.MaxWaiting)
			cr.TotalGrants += rr.Grants
			cr.TotalResets += rr.Resets
			cr.TotalTimeouts += rr.Timeouts
			cr.TotalStorms += rr.Storms
			cr.TotalSafety += rr.SafetyAfter
			cr.TotalRes += rr.DeliveredRes
			cr.TotalCtrl += rr.DeliveredCtrl
			if rr.Converged {
				converged = append(converged, rr.ConvergedAt)
			} else {
				cr.Diverged++
			}
			if rr.MaxWaiting > cr.MaxWaiting {
				cr.MaxWaiting = rr.MaxWaiting
			}
			if rr.Steps > 0 {
				legitFrac += float64(rr.LegitSteps) / float64(rr.Steps)
			}
			jainSum += rr.Jain
		}
		cr.Grants = Describe(grants)
		cr.Convergence = Describe(converged)
		cr.Waiting = Describe(waiting)
		if cr.WaitingBound > 0 {
			cr.WaitingRatio = round6(float64(cr.MaxWaiting) / float64(cr.WaitingBound))
		}
		if cr.TotalGrants > 0 {
			cr.ResPerGrant = round6(float64(cr.TotalRes) / float64(cr.TotalGrants))
			cr.CtrlPerGrant = round6(float64(cr.TotalCtrl) / float64(cr.TotalGrants))
		}
		if n := len(results[i]); n > 0 {
			cr.Availability = round6(legitFrac / float64(n))
			cr.MeanJain = round6(jainSum / float64(n))
		}
		rep.Results = append(rep.Results, cr)
	}
	return rep
}
