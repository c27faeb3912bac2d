package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"kofl/internal/adversary"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/obs"
	"kofl/internal/sim"
	"kofl/internal/tree"
	"kofl/internal/workload"
)

// Options configures an engine invocation. Workers ≤ 0 selects one worker
// per logical CPU.
type Options struct {
	Workers int
	// TraceDir is where the outlier trace capture writes per-slot trace
	// files when the spec's TraceSpec is configured. Empty disables capture
	// even when the spec asks for it — but note the capture predicate
	// annotates the report (RunResult.Trace), so all shards of one campaign
	// must agree on whether TraceDir is set.
	TraceDir string
	// Obs, when non-nil, receives per-worker slot-completion counters and
	// shard totals (see ExecObs) — the data behind koflcampaign's progress
	// lines. It never affects report bytes.
	Obs *ExecObs
}

// features maps a variant name to the protocol feature set.
func features(v string) (core.Features, error) {
	switch v {
	case "full", "":
		return core.Full(), nil
	case "naive":
		return core.Naive(), nil
	case "pusher":
		return core.PusherOnly(), nil
	case "nonstab", "non-stabilizing":
		return core.NonStabilizing(), nil
	default:
		return core.Features{}, fmt.Errorf("campaign: unknown variant %q (full|naive|pusher|nonstab)", v)
	}
}

// RunResult is the outcome of one (cell, seed) simulation.
type RunResult struct {
	Seed       int64   `json:"seed"`
	Steps      int64   `json:"steps"`
	Grants     int64   `json:"grants"`
	Jain       float64 `json:"jain"`
	MaxWaiting int64   `json:"max_waiting"`
	// WaitingRatio is MaxWaiting over Theorem 2's ℓ(2n-3)² bound — the
	// bound-proximity statistic the outlier-trace predicate keys on.
	WaitingRatio  float64 `json:"waiting_ratio"`
	Circulations  int64   `json:"circulations"`
	Resets        int64   `json:"resets"`
	Timeouts      int64   `json:"timeouts"`
	Converged     bool    `json:"converged"`
	ConvergedAt   int64   `json:"converged_at"`
	SafetyAfter   int     `json:"safety_after_convergence"`
	LegitSteps    int64   `json:"legit_steps"`
	DeliveredRes  int64   `json:"delivered_res"`
	DeliveredCtrl int64   `json:"delivered_ctrl"`
	Storms        int64   `json:"storms,omitempty"`
	// Trace is the filename of this run's captured outlier trace, when the
	// spec's TraceSpec predicate fired (see traceCapture).
	Trace string `json:"trace,omitempty"`
}

// SlotResult pairs a run result with the global slot index it fills.
type SlotResult struct {
	Slot   int       `json:"slot"`
	Result RunResult `json:"result"`
}

// Partial is the byte-stable output of executing one shard of a plan: the
// shard's results in ascending slot order, stamped with the plan
// fingerprint so Merge can refuse partials from a different plan.
type Partial struct {
	Name        string `json:"name"`
	Fingerprint string `json:"plan_fingerprint"`
	Round       int    `json:"round,omitempty"`
	Shard       int    `json:"shard"`
	Of          int    `json:"of"`
	// Traced records whether outlier trace capture was active on this
	// shard. Capture annotates results (RunResult.Trace), so Merge refuses
	// to mix traced and untraced partials — the mix would silently break
	// the byte-identity contract with the unsharded run.
	Traced  bool         `json:"traced,omitempty"`
	Results []SlotResult `json:"results"`
}

// JSON marshals the partial with stable indentation; like reports, the
// bytes do not depend on the worker count.
func (pt *Partial) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(pt, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParsePartial decodes a partial report file (unknown fields rejected).
func ParsePartial(b []byte) (*Partial, error) {
	var pt Partial
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pt); err != nil {
		return nil, fmt.Errorf("campaign: bad partial: %w", err)
	}
	return &pt, nil
}

// cellRuntime is the immutable per-cell execution context ExecuteShard
// memoizes before the worker pool starts: the built topology and the
// compiled fault schedules, shared by every seed slot of the cell (and by
// every worker — nothing here is mutated during simulation; executors keep
// their cursor and RNG state in themselves). Historically each slot rebuilt
// the identical tree and recompiled the identical scripts, which dominated
// the per-slot setup cost on short runs.
type cellRuntime struct {
	tree     *tree.Tree
	feat     core.Features
	storm    *adversary.Schedule // legacy storm column; nil when inactive
	scenario *adversary.Schedule // scenario column; nil when inactive
}

// newCellRuntime builds the memoized context for one cell. Cells are
// validated during grid expansion, so errors here indicate a hand-edited
// plan; they are annotated with the cell label and surfaced, not panicked.
func newCellRuntime(spec Spec, c Cell) (*cellRuntime, error) {
	tr, err := c.Topology.Build()
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", c.Label(), err)
	}
	feat, err := features(c.Variant)
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", c.Label(), err)
	}
	rt := &cellRuntime{tree: tr, feat: feat}
	if c.StormPeriod > 0 {
		rt.storm, err = adversary.Compile(adversary.LegacyStorm(c.StormPeriod), spec.Steps)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", c.Label(), err)
		}
	}
	if c.Scenario != "" {
		script, err := spec.scenarioScript(c.Scenario)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", c.Label(), err)
		}
		rt.scenario, err = adversary.Compile(script, spec.Steps)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", c.Label(), err)
		}
	}
	return rt, nil
}

// workerState is the reusable per-worker mutable state: the fault RNG
// (re-seeded per slot instead of re-allocated), the run monitor (reset and
// re-attached per slot, retaining its slice capacity), and one workload
// cycle per process (re-parameterized per slot). With it, a worker's
// steady-state slot execution allocates only the simulator itself — monitor
// and workload churn used to be the main source of GC pressure that capped
// parallel efficiency.
type workerState struct {
	faultSrc rand.Source
	faultRng *rand.Rand
	run      checker.Run
	cycles   []*workload.Cycle
}

func newWorkerState() *workerState {
	src := rand.NewSource(0)
	return &workerState{
		faultSrc: src,
		faultRng: rand.New(src),
	}
}

// cycle returns the worker's pooled workload cycle for process p, reset to
// the given fixed parameters.
func (ws *workerState) cycle(p, need int, hold, think int64) *workload.Cycle {
	for len(ws.cycles) <= p {
		ws.cycles = append(ws.cycles, workload.Fixed(0, 0, 0, 0))
	}
	c := ws.cycles[p]
	c.Reset(need, hold, think, 0)
	return c
}

// chunkSize picks the dispatch granularity for claiming slots off the shared
// cursor: small enough that the tail of the slot list still spreads across
// workers when per-slot costs are skewed (~8 claims per worker), large
// enough that workers rarely touch the shared counter.
func chunkSize(slots, workers int) int {
	c := slots / (workers * 8)
	if c < 1 {
		c = 1
	}
	if c > 64 {
		c = 64
	}
	return c
}

// ExecuteShard runs shard i of m of the plan across the worker pool and
// returns its partial report. Slot results land in slots addressed by the
// plan's enumeration, so the partial's bytes are identical for any worker
// count; ExecuteShard(plan, 0, 1, opts) is the whole plan.
//
// Dispatch is chunked work-stealing over the slot list: workers claim runs
// of slots from a shared atomic cursor, so load balances dynamically without
// a per-slot channel handoff; each worker carries its own reusable state
// (workerState) and every referenced cell's topology and fault schedules are
// built once up front (cellRuntime), not once per slot.
func ExecuteShard(plan *Plan, i, m int, opts Options) (*Partial, error) {
	slots, err := plan.Shard(i, m)
	if err != nil {
		return nil, err
	}
	var capture *traceCapture
	if plan.Spec.Trace.Enabled() && opts.TraceDir != "" {
		capture, err = newTraceCapture(opts.TraceDir, plan.Spec.Trace)
		if err != nil {
			return nil, err
		}
	}
	rts := make([]*cellRuntime, len(plan.Cells))
	for _, slot := range slots {
		if rts[slot.Cell] != nil {
			continue
		}
		rt, err := newCellRuntime(plan.Spec, plan.Cells[slot.Cell])
		if err != nil {
			return nil, err
		}
		rts[slot.Cell] = rt
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Obs != nil {
		opts.Obs.slotsTotal.Store(int64(len(slots)))
	}
	results := make([]SlotResult, len(slots))
	chunk := int64(chunkSize(len(slots), workers))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := newWorkerState()
			var wc *obs.Counter
			if opts.Obs != nil {
				wc = opts.Obs.worker(w)
			}
			for {
				end := cursor.Add(chunk)
				start := end - chunk
				if start >= int64(len(slots)) {
					return
				}
				if end > int64(len(slots)) {
					end = int64(len(slots))
				}
				for j := start; j < end; j++ {
					slot := slots[j]
					rt := rts[slot.Cell]
					rr := runSlot(plan.Spec, plan.Cells[slot.Cell], rt, slot, ws, nil)
					if capture != nil {
						capture.capture(plan, slot, rt, ws, &rr)
					}
					results[j] = SlotResult{Slot: slot.Index, Result: rr}
					if wc != nil {
						wc.Add(1)
						opts.Obs.slotsDone.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if capture != nil {
		if err := capture.firstErr(); err != nil {
			return nil, err
		}
	}
	return &Partial{
		Name:        plan.Name,
		Fingerprint: plan.Fingerprint,
		Round:       plan.Round,
		Shard:       i,
		Of:          m,
		Traced:      capture != nil,
		Results:     results,
	}, nil
}

// runSlot is runOne plus failure context: a panic escaping a worker
// goroutine kills the whole process, so it is re-raised annotated with the
// slot index, cell label, and seed — enough to reproduce the failing run
// with `koflcampaign run -shard`.
func runSlot(spec Spec, c Cell, rt *cellRuntime, slot Slot, ws *workerState, attach func(*sim.Sim)) RunResult {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("campaign: slot %d (cell %s, seed %d): %v",
				slot.Index, c.Label(), slot.Seed, r))
		}
	}()
	return runOne(spec, c, rt, slot.Seed, ws, attach)
}

// runOne executes one simulation: a pure function of (spec, cell, seed) —
// rt is derived from (spec, cell) and ws only carries recycled allocations,
// never state that survives into the next run's results. attach, when
// non-nil, is called with the simulator after the initial configuration is
// established — the point where the engine's run monitor attaches — and must
// not perturb scheduling (observers and step hooks are safe; see the
// determinism contract).
func runOne(spec Spec, c Cell, rt *cellRuntime, seed int64, ws *workerState, attach func(*sim.Sim)) RunResult {
	tr := rt.tree
	cfg := core.Config{K: c.K, L: c.L, N: tr.N(), CMAX: c.CMAX, Features: rt.feat}
	s := sim.MustNew(tr, cfg, sim.Options{Seed: seed, TimeoutTicks: c.TimeoutTicks})
	// Establish the true initial configuration (token seeding for
	// non-controller variants, arbitrary-start faults) BEFORE attaching the
	// run monitor: its construction-time observation must account the
	// configuration the run actually starts from.
	if !cfg.Features.Controller {
		s.SeedLegitimate()
	}
	if spec.Faults.ArbitraryStart {
		// Re-seeding the worker's RNG yields the exact draw sequence of the
		// historical per-slot rand.New(rand.NewSource(seed+1000)).
		ws.faultSrc.Seed(seed + 1000)
		adversary.ArbitraryConfiguration(s, ws.faultRng)
	}
	if attach != nil {
		attach(s)
	}
	// One step hook reads the census (legitimacy, safety, availability) in
	// O(1); one observer takes every protocol event.
	mon := &ws.run
	mon.Attach(s)
	for p := 0; p < tr.N(); p++ {
		need := spec.Workload.Need
		if need <= 0 {
			need = 1 + p%c.K
		}
		workload.Attach(s, p, ws.cycle(p, need, spec.Workload.Hold, spec.Workload.Think))
	}

	// The fault surface runs through the adversary engine: a legacy storm
	// column compiles to the equivalent rotating-storm script (byte-identical
	// fault sequence, see adversary.LegacyStorm), and a scenario column to
	// its declarative script. Both can be active in one cell — the axes
	// cross — in which case the storm executor fires first each step.
	var storms int64
	var execs []*adversary.Executor
	if rt.storm != nil {
		execs = append(execs, adversary.MustNewExecutor(s, rt.storm, seed))
	}
	if rt.scenario != nil {
		execs = append(execs, adversary.MustNewExecutor(s, rt.scenario, seed))
	}
	if len(execs) > 0 {
		for s.Steps < spec.Steps {
			for _, e := range execs {
				e.BeforeStep()
			}
			if !s.Step() {
				break
			}
		}
		for _, e := range execs {
			storms += e.Fired()
		}
	} else {
		s.Run(spec.Steps)
	}

	at, ok := mon.ConvergedAt()
	rr := RunResult{
		Seed:          seed,
		Steps:         s.Steps,
		Grants:        mon.Total(),
		Jain:          round6(JainIndex(mon.Enters)),
		MaxWaiting:    mon.Max(),
		WaitingRatio:  round6(mon.BoundRatio(tr.N(), c.L)),
		Circulations:  mon.Completed,
		Resets:        mon.Resets,
		Timeouts:      mon.Timeouts,
		Converged:     ok,
		ConvergedAt:   at,
		LegitSteps:    mon.LegitSteps,
		DeliveredRes:  s.Delivered[message.Res],
		DeliveredCtrl: s.Delivered[message.Ctrl],
		Storms:        storms,
	}
	if ok {
		rr.SafetyAfter = mon.ViolationsAfter(at)
	}
	return rr
}
