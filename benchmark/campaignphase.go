package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	goruntime "runtime"
	"time"

	"kofl/internal/campaign"
	"kofl/internal/core"
	"kofl/internal/sim"
)

const (
	// campaignWorkers is fixed, not nproc-derived, so that records compare
	// across machines, and is 1: two workers ran the grid at 430 slots/s for
	// ten runs in a row on this host, and at 780 before and after, which no
	// bound survives. The traced pass times two workers for
	// campaign.worker_speedup.
	campaignWorkers = 1
	campaignCells   = 64
	// campaignSlotsPerS fixes how many slots a second of budget buys (slot
	// counts, like step counts, are fixed by the arguments and never by
	// the clock).
	campaignSlotsPerS = 330
)

// campaignSpec is the BENCH-campaign grid: chain/star × n∈{8,12,16,24} × four
// (k,ℓ) pairs × storm periods {0, 4000}, 10 k steps per run — thousands of
// short runs in which sim.New, the monitors and aggregation dominate and
// steady-state stepping is minor.
func campaignSpec(seed int64, seeds int) campaign.Spec {
	var topos []campaign.TopologySpec
	for _, n := range []int{8, 12, 16, 24} {
		topos = append(topos,
			campaign.TopologySpec{Kind: "chain", N: n},
			campaign.TopologySpec{Kind: "star", N: n})
	}
	return campaign.Spec{
		Name:       "BENCH-campaign",
		Topologies: topos,
		KL:         []campaign.KL{{K: 1, L: 1}, {K: 2, L: 3}, {K: 3, L: 5}, {K: 2, L: 8}},
		Seeds:      campaign.SeedRange{First: seed, Count: seeds},
		Steps:      10_000,
		Workload:   campaign.WorkloadSpec{Need: 0, Hold: 2, Think: 4},
		Faults:     campaign.FaultSpec{StormPeriods: []int64{0, 4_000}},
	}
}

// campaignSeeds is the seeds per cell that make one repetition of the grid
// last about d.
func campaignSeeds(d time.Duration) int {
	return max(int(d.Seconds()*campaignSlotsPerS/campaignCells+0.5), 1)
}

// campaignRep is one pass through the four stages.
type campaignRep struct {
	slots                     int
	plan, exec, merge, report time.Duration
	mallocs                   uint64
	sha                       [32]byte
	safety, divergedCalm      int
	divergedStorm             int
	maxWaitingRatio           float64
}

func (r campaignRep) slotsPerS() float64 {
	return float64(r.slots) / (r.exec + r.merge + r.report).Seconds()
}

// runCampaignRep plans, executes, merges and renders the grid once.
func runCampaignRep(spec campaign.Spec, workers int, rep int64, tr *tracer) (campaignRep, error) {
	var r campaignRep
	root := tr.begin("campaign.rep", -1, rep)
	defer tr.end(root)

	t0 := time.Now()
	sp := tr.begin("campaign.plan", root, rep)
	plan, err := campaign.NewPlan(spec)
	tr.end(sp)
	r.plan = time.Since(t0)
	if err != nil {
		return r, err
	}
	r.slots = len(plan.Slots)

	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	t0 = time.Now()
	sp = tr.begin("campaign.execute", root, rep)
	part, err := campaign.ExecuteShard(plan, 0, 1, campaign.Options{Workers: workers})
	tr.end(sp)
	r.exec = time.Since(t0)
	if err != nil {
		return r, err
	}
	goruntime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs

	t0 = time.Now()
	sp = tr.begin("campaign.merge", root, rep)
	rpt, err := campaign.Merge(plan, []*campaign.Partial{part})
	tr.end(sp)
	r.merge = time.Since(t0)
	if err != nil {
		return r, err
	}

	t0 = time.Now()
	sp = tr.begin("campaign.report", root, rep)
	js, err := rpt.JSON()
	tr.end(sp)
	r.report = time.Since(t0)
	if err != nil {
		return r, err
	}
	r.sha = sha256.Sum256(js)

	for _, c := range rpt.Results {
		r.safety += c.TotalSafety
		if c.Cell.StormPeriod == 0 {
			r.divergedCalm += c.Diverged
		} else {
			r.divergedStorm += c.Diverged
		}
		r.maxWaitingRatio = max(r.maxWaitingRatio, c.WaitingRatio)
	}
	return r, nil
}

// checkCampaign applies the campaign's share of the correctness gate.
func checkCampaign(reps []campaignRep) []string {
	var bad []string
	r := reps[0]
	if r.safety != 0 {
		bad = append(bad, fmt.Sprintf("campaign: %d safety violations after convergence", r.safety))
	}
	if r.divergedCalm != 0 {
		bad = append(bad, fmt.Sprintf("campaign: %d runs diverged in storm-free cells", r.divergedCalm))
	}
	if r.maxWaitingRatio > 1 {
		bad = append(bad, fmt.Sprintf("campaign: waiting ratio %.3f exceeds Theorem 2's bound", r.maxWaitingRatio))
	}
	for _, o := range reps[1:] {
		if o.sha != r.sha {
			bad = append(bad, fmt.Sprintf("campaign: report %x differs from %x of an earlier repetition", o.sha[:6], r.sha[:6]))
			break
		}
	}
	return bad
}

// sha48 is the report digest's leading 48 bits, which a JSON number carries
// exactly; the result file has the full digest.
func sha48(sha [32]byte) float64 {
	return float64(binary.BigEndian.Uint64(sha[:8]) >> 16)
}

// simNewTotal builds, and times, the simulator of every slot of the plan the
// way the engine does (one tree per cell, one sim.New per slot): the share
// of execute that is construction and that no stepping speed-up can touch.
func simNewTotal(spec campaign.Spec, tr *tracer) (time.Duration, error) {
	plan, err := campaign.NewPlan(spec)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for ci, c := range plan.Cells {
		t, err := c.Topology.Build()
		if err != nil {
			return 0, err
		}
		cfg := core.Config{K: c.K, L: c.L, N: t.N(), CMAX: c.CMAX, Features: core.Full()}
		sp := tr.begin("campaign.sim_new", -1, int64(ci))
		t0 := time.Now()
		for _, slot := range plan.Slots {
			if slot.Cell != ci {
				continue
			}
			if _, err := sim.New(t, cfg, sim.Options{Seed: slot.Seed, TimeoutTicks: c.TimeoutTicks}); err != nil {
				return 0, err
			}
		}
		total += time.Since(t0)
		tr.end(sp)
	}
	return total, nil
}
