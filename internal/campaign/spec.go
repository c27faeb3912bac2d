// Package campaign is the staged sweep pipeline: it expands a declarative
// grid of simulation parameters into an explicit execution Plan, runs the
// plan's (cell, seed) slots — whole or one shard at a time, on one machine
// or many — across a worker pool, and merges the partial results back into
// an order-independent aggregate Report.
//
// The four stages:
//
//	plan     Spec → Plan          NewPlan / EscalationPlan
//	execute  Plan → Partial       ExecuteShard (outlier trace capture)
//	merge    []Partial → Report   Merge (coverage/overlap/provenance checks)
//	report   Report → JSON/CSV    Report.JSON / WriteCSV
//
// Run composes the first three for the single-process case; RunEscalated
// additionally loops re-plan → execute → merge for adaptive seed
// escalation. Each stage's artifact (plan, partial, report) is a
// serializable JSON file, which is what makes campaigns cross-machine
// shardable: ship the plan, run `ExecuteShard(plan, i, m)` anywhere, and
// merge the partials at the end.
//
// Determinism contract: each run is a pure function of (cell, seed) — the
// simulator guarantees that — and every result lands in a slot addressed by
// the plan's (cell index, run index) enumeration, then aggregates strictly
// in plan order. The marshalled Report is therefore byte-identical for any
// worker count AND any sharding: Merge over m partials reproduces the
// unsharded report exactly (TestShardMergeMatrix), which is what makes
// cross-machine campaign results trustworthy artifacts.
//
// Every run carries a checker.CensusMonitor, which reads the sim
// kernel's incrementally maintained census in O(1) per step — see
// docs/ARCHITECTURE.md at the repository root for how the two incremental
// kernels and the determinism contract fit together.
package campaign

import (
	"fmt"
	"math/rand"

	"kofl/internal/adversary"
	"kofl/internal/core"
	"kofl/internal/tree"
)

// TopologySpec names one tree constructor of a sweep. Kind selects the
// family; the other fields parameterize it (unused fields are ignored).
type TopologySpec struct {
	// Kind is one of chain|star|balanced|caterpillar|broom|spider|paper|
	// random|prufer|bounded|degseq.
	Kind string `json:"kind"`
	// N sizes chain, star, random, prufer and bounded topologies.
	N int `json:"n,omitempty"`
	// Degree caps the maximum degree of bounded topologies (≥ 2).
	Degree int `json:"degree,omitempty"`
	// Degrees is the exact target degree sequence of degseq topologies
	// (one entry per process; the sample is uniform over labeled trees
	// realizing it).
	Degrees []int `json:"degrees,omitempty"`
	// Arity and Depth size balanced trees; Depth doubles as the leg length
	// of spiders.
	Arity int `json:"arity,omitempty"`
	Depth int `json:"depth,omitempty"`
	// Spine and Legs size caterpillars (spine length × legs per spine
	// process) and brooms (handle length × bristle count); Legs doubles as
	// the leg count of spiders.
	Spine int `json:"spine,omitempty"`
	Legs  int `json:"legs,omitempty"`
	// Seed draws the random topology (Kinds "random", "prufer", "bounded"
	// and "degseq"); it is part of the grid cell, not the per-run seed, so
	// every run of a cell sees the same tree.
	Seed int64 `json:"seed,omitempty"`
}

// Build constructs the tree, or reports why the spec is invalid.
func (ts TopologySpec) Build() (*tree.Tree, error) {
	switch ts.Kind {
	case "chain":
		if ts.N < 2 {
			return nil, fmt.Errorf("campaign: chain needs n ≥ 2, got %d", ts.N)
		}
		return tree.Chain(ts.N), nil
	case "star":
		if ts.N < 2 {
			return nil, fmt.Errorf("campaign: star needs n ≥ 2, got %d", ts.N)
		}
		return tree.Star(ts.N), nil
	case "balanced":
		if ts.Arity < 1 || ts.Depth < 1 {
			return nil, fmt.Errorf("campaign: balanced needs arity ≥ 1 and depth ≥ 1")
		}
		return tree.Balanced(ts.Arity, ts.Depth), nil
	case "caterpillar":
		if ts.Spine < 1 {
			return nil, fmt.Errorf("campaign: caterpillar needs spine ≥ 1")
		}
		return tree.Caterpillar(ts.Spine, ts.Legs), nil
	case "broom":
		if ts.Spine < 1 || ts.Legs < 0 || ts.Spine+ts.Legs < 2 {
			return nil, fmt.Errorf("campaign: broom needs spine (handle) ≥ 1 and spine+legs ≥ 2")
		}
		return tree.Broom(ts.Spine, ts.Legs), nil
	case "spider":
		if ts.Legs < 1 || ts.Depth < 1 {
			return nil, fmt.Errorf("campaign: spider needs legs ≥ 1 and depth (leg length) ≥ 1")
		}
		return tree.Spider(ts.Legs, ts.Depth), nil
	case "paper":
		return tree.Paper(), nil
	case "random":
		if ts.N < 2 {
			return nil, fmt.Errorf("campaign: random needs n ≥ 2, got %d", ts.N)
		}
		return tree.Random(ts.N, rand.New(rand.NewSource(ts.Seed))), nil
	case "prufer":
		if ts.N < 2 {
			return nil, fmt.Errorf("campaign: prufer needs n ≥ 2, got %d", ts.N)
		}
		return tree.Prufer(ts.N, rand.New(rand.NewSource(ts.Seed))), nil
	case "bounded":
		if ts.N < 2 {
			return nil, fmt.Errorf("campaign: bounded needs n ≥ 2, got %d", ts.N)
		}
		// BoundedDegree validates Degree ≥ 2 and reports rejection-sampling
		// failure for constraints too tight to satisfy.
		return tree.BoundedDegree(ts.N, ts.Degree, rand.New(rand.NewSource(ts.Seed)))
	case "degseq":
		// FromDegreeSequence validates the sequence (length ≥ 2, every
		// degree ≥ 1, sum 2(n-1)).
		return tree.FromDegreeSequence(ts.Degrees, rand.New(rand.NewSource(ts.Seed)))
	default:
		return nil, fmt.Errorf("campaign: unknown topology kind %q", ts.Kind)
	}
}

// Label renders the topology as a stable sweep label, e.g. "star-16".
func (ts TopologySpec) Label() string {
	switch ts.Kind {
	case "chain", "star":
		return fmt.Sprintf("%s-%d", ts.Kind, ts.N)
	case "balanced":
		return fmt.Sprintf("balanced-%dx%d", ts.Arity, ts.Depth)
	case "caterpillar":
		return fmt.Sprintf("caterpillar-%dx%d", ts.Spine, ts.Legs)
	case "broom":
		return fmt.Sprintf("broom-%dx%d", ts.Spine, ts.Legs)
	case "spider":
		return fmt.Sprintf("spider-%dx%d", ts.Legs, ts.Depth)
	case "random", "prufer":
		return fmt.Sprintf("%s-%d-s%d", ts.Kind, ts.N, ts.Seed)
	case "bounded":
		return fmt.Sprintf("bounded-%d-d%d-s%d", ts.N, ts.Degree, ts.Seed)
	case "degseq":
		return fmt.Sprintf("degseq-%d-s%d", len(ts.Degrees), ts.Seed)
	default:
		return ts.Kind
	}
}

// KL is one explicit (k, ℓ) pair of a sweep.
type KL struct {
	K int `json:"k"`
	L int `json:"l"`
}

// WorkloadSpec configures the generator attached to every process of every
// run: request Need units (0 = spread 1+p%k over processes), hold the
// critical section for Hold steps, think for Think steps, repeat forever.
type WorkloadSpec struct {
	Need  int   `json:"need"`
	Hold  int64 `json:"hold"`
	Think int64 `json:"think"`
}

// FaultSpec configures fault injection. ArbitraryStart throws every run into
// a fully arbitrary configuration before the first step (Theorem 1's
// universal quantifier). StormPeriods is a grid axis: each entry adds a cell
// column in which a fault storm strikes every that-many steps, rotating over
// token loss, duplication, state corruption and channel garbage (0 = no
// storms; an empty list means a single storm-free column).
type FaultSpec struct {
	ArbitraryStart bool    `json:"arbitrary_start,omitempty"`
	StormPeriods   []int64 `json:"storm_periods,omitempty"`
}

// ScenarioSpec names one adversary scenario of the grid's fault axis. The
// zero value is the fault-free column. A Name alone selects a built-in
// scenario (see `koflcampaign scenarios`); an inline Script carries the
// scenario in the spec itself. Normalization embeds the resolved script
// either way, so the plan fingerprint always covers the exact fault
// schedule a cell ran under — a scenario edit is a different plan.
type ScenarioSpec struct {
	Name   string            `json:"name,omitempty"`
	Script *adversary.Script `json:"script,omitempty"`
}

// SeedRange is the per-cell seed sweep: Count seeds starting at First.
type SeedRange struct {
	First int64 `json:"first"`
	Count int   `json:"count"`
}

// TraceSpec opts outlier slots into internal/trace capture. A slot whose
// run trips the predicate — waiting time at least WaitingFraction of
// Theorem 2's ℓ(2n-3)² bound, or (with Diverged) a run that never converged
// — is deterministically replayed with a trace log attached, and the trace
// is written as a per-slot file whose name is recorded in the run's report
// row. The rest of the grid pays nothing: capture is a replay of the
// outlier slot only, which the determinism contract makes exact.
//
// The predicate is part of the spec (and therefore of the report bytes);
// the output directory is an engine option (Options.TraceDir), so shards
// on different machines can write wherever they like without perturbing
// the merged report.
type TraceSpec struct {
	// WaitingFraction captures runs with MaxWaiting ≥ fraction × bound
	// (0 disables the waiting predicate).
	WaitingFraction float64 `json:"waiting_fraction,omitempty"`
	// Diverged captures runs that never converged.
	Diverged bool `json:"diverged,omitempty"`
	// Cap bounds the entries kept per trace (default 20000).
	Cap int `json:"cap,omitempty"`
}

// Enabled reports whether any capture predicate is configured.
func (ts TraceSpec) Enabled() bool { return ts.WaitingFraction > 0 || ts.Diverged }

// EscalationSpec configures adaptive seed escalation: after the base grid,
// cells whose behavior is noisy — any diverged run, a coefficient of
// variation of the convergence time at least CV, or (when WaitingCV is set)
// a waiting-ratio CV at least WaitingCV — are re-planned with Factor× the
// seed count and fresh seeds continuing where the previous round stopped,
// for up to Rounds rounds or until the per-cell seed budget MaxSeeds is
// spent. Each round's plan is an ordinary Plan: shardable, mergeable, and
// byte-reproducible.
type EscalationSpec struct {
	// Rounds is the maximum number of escalation rounds (0 = disabled).
	Rounds int `json:"rounds,omitempty"`
	// Factor multiplies the seed count each round (default 2).
	Factor int `json:"factor,omitempty"`
	// CV is the convergence-time coefficient-of-variation trigger
	// (default 0.5).
	CV float64 `json:"cv,omitempty"`
	// WaitingCV additionally triggers on the coefficient of variation of
	// the per-run worst waiting times — the bound-proximity noise the
	// outlier-trace predicate keys on (0 = disabled). The per-cell waiting
	// bound is constant, so this is exactly the waiting-ratio CV.
	WaitingCV float64 `json:"waiting_cv,omitempty"`
	// MaxSeeds caps the cumulative per-cell seed budget across the base
	// grid and every escalation round (0 = uncapped). A round that would
	// exceed it is clamped to the remaining budget; once the budget is
	// spent, escalation stops.
	MaxSeeds int `json:"max_seeds,omitempty"`
}

// Spec is a declarative campaign: the cross product of Topologies × (k,ℓ)
// pairs × CMAX × Variants × Timeouts × Faults.StormPeriods defines the grid
// cells, and every cell runs Seeds.Count independent seeds.
//
// The (k,ℓ) axis comes from KL when non-empty, otherwise from the cross
// product K × L with invalid pairs (k < 1 or k > ℓ) silently skipped — so a
// sweep can say K=[1,2,4], L=[1,2,4,8] and only meaningful combinations run.
type Spec struct {
	Name       string         `json:"name"`
	Topologies []TopologySpec `json:"topologies"`
	KL         []KL           `json:"kl,omitempty"`
	K          []int          `json:"k,omitempty"`
	L          []int          `json:"l,omitempty"`
	// CMAX values (default [4]).
	CMAX []int `json:"cmax,omitempty"`
	// Variants are protocol rungs: full|naive|pusher|nonstab (default [full]).
	Variants []string `json:"variants,omitempty"`
	// Timeouts sweeps the root's retransmission timeout in scheduler steps
	// (0 = topology-derived default; empty list means a single default column).
	Timeouts []int64 `json:"timeouts,omitempty"`
	// Scenarios is the adversary axis of the fault surface: each entry adds
	// a cell column running under that declarative fault scenario (see
	// ScenarioSpec and internal/adversary). An empty list means a single
	// scenario-free column; it crosses with Faults.StormPeriods, so a spec
	// can sweep legacy storms and scripted scenarios side by side.
	Scenarios []ScenarioSpec `json:"scenarios,omitempty"`
	// Seeds is the per-cell seed range. A wholly omitted range defaults to
	// {First: 1, Count: 1}; when Count is set, First is used verbatim
	// (0 is a valid first seed).
	Seeds SeedRange `json:"seeds"`
	// Steps is the scheduler-step budget per run (default 100_000).
	Steps    int64        `json:"steps"`
	Workload WorkloadSpec `json:"workload"`
	Faults   FaultSpec    `json:"faults"`
	// Trace opts outlier slots into per-slot trace capture (see TraceSpec).
	Trace TraceSpec `json:"trace,omitempty"`
	// Escalation configures adaptive seed escalation (see EscalationSpec).
	Escalation EscalationSpec `json:"escalation,omitempty"`
}

// Cell is one grid point: a fully determined simulation configuration that
// the engine runs once per seed.
type Cell struct {
	Index        int          `json:"index"`
	Topology     TopologySpec `json:"topology"`
	K            int          `json:"k"`
	L            int          `json:"l"`
	CMAX         int          `json:"cmax"`
	Variant      string       `json:"variant"`
	TimeoutTicks int64        `json:"timeout_ticks,omitempty"`
	StormPeriod  int64        `json:"storm_period,omitempty"`
	// Scenario names the adversary scenario this cell runs under (empty =
	// none); the script itself lives in the spec's Scenarios list, which
	// the plan fingerprint covers.
	Scenario string `json:"scenario,omitempty"`
}

// Label renders the cell compactly for CSV rows and progress lines.
func (c Cell) Label() string {
	s := fmt.Sprintf("%s k=%d l=%d cmax=%d %s", c.Topology.Label(), c.K, c.L, c.CMAX, c.Variant)
	if c.TimeoutTicks > 0 {
		s += fmt.Sprintf(" to=%d", c.TimeoutTicks)
	}
	if c.StormPeriod > 0 {
		s += fmt.Sprintf(" storm=%d", c.StormPeriod)
	}
	if c.Scenario != "" {
		s += " adv=" + c.Scenario
	}
	return s
}

// normalized returns a copy of the spec with defaults filled in.
func (sp Spec) normalized() Spec {
	if len(sp.CMAX) == 0 {
		sp.CMAX = []int{core.DefaultCMAX}
	}
	if len(sp.Variants) == 0 {
		sp.Variants = []string{"full"}
	}
	if len(sp.Timeouts) == 0 {
		sp.Timeouts = []int64{0}
	}
	if len(sp.Faults.StormPeriods) == 0 {
		sp.Faults.StormPeriods = []int64{0}
	}
	if sp.Seeds.Count <= 0 {
		// Only a wholly omitted seed range gets the {1, 1} default; an
		// explicit First (with any Count) is always respected, including 0.
		sp.Seeds.Count = 1
		if sp.Seeds.First == 0 {
			sp.Seeds.First = 1
		}
	}
	if sp.Steps <= 0 {
		sp.Steps = 100_000
	}
	// Resolve built-in scenario names into embedded scripts so the plan
	// fingerprint covers the exact fault schedule (an unknown name stays
	// unresolved and fails cell validation with a usable error). The slice
	// is copied: normalization must not mutate the caller's spec.
	if len(sp.Scenarios) > 0 {
		scenarios := make([]ScenarioSpec, len(sp.Scenarios))
		copy(scenarios, sp.Scenarios)
		for i, sc := range scenarios {
			if sc.Script == nil && sc.Name != "" {
				if b, ok := adversary.Lookup(sc.Name); ok {
					scenarios[i].Script = b
				}
			}
			if sc.Script != nil && sc.Name == "" {
				scenarios[i].Name = sc.Script.Name
			}
		}
		sp.Scenarios = scenarios
	}
	if sp.Escalation.Rounds > 0 {
		if sp.Escalation.Factor < 2 {
			sp.Escalation.Factor = 2
		}
		if sp.Escalation.CV <= 0 {
			sp.Escalation.CV = 0.5
		}
	}
	return sp
}

// validateScenarios checks the scenario axis's topology-independent
// invariants: every non-empty column resolved to a named, structurally
// valid script that compiles over the spec's step budget, with no duplicate
// names (a cell references its scenario by name).
func (sp Spec) validateScenarios(scenarios []ScenarioSpec) error {
	seen := map[string]bool{}
	for i, sc := range scenarios {
		if sc.Script == nil {
			if sc.Name != "" {
				return fmt.Errorf("campaign: scenario %q is not a built-in and carries no script (see `koflcampaign scenarios`)", sc.Name)
			}
			continue // the fault-free column
		}
		if sc.Name == "" {
			return fmt.Errorf("campaign: scenario %d: inline scripts need a name", i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("campaign: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if _, err := adversary.Compile(sc.Script, sp.Steps); err != nil {
			return fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
		}
	}
	return nil
}

// scenarioScript resolves a cell's scenario name against the (normalized)
// spec's scenario list.
func (sp Spec) scenarioScript(name string) (*adversary.Script, error) {
	for _, sc := range sp.Scenarios {
		if sc.Name == name {
			if sc.Script == nil {
				return nil, fmt.Errorf("campaign: scenario %q is not a built-in and carries no script (see `koflcampaign scenarios`)", name)
			}
			return sc.Script, nil
		}
	}
	return nil, fmt.Errorf("campaign: cell references unknown scenario %q", name)
}

// scenarioColumns returns the effective scenario axis: the spec's list, or
// the single scenario-free column.
func (sp Spec) scenarioColumns() []ScenarioSpec {
	if len(sp.Scenarios) == 0 {
		return []ScenarioSpec{{}}
	}
	return sp.Scenarios
}

// pairs returns the effective (k,ℓ) axis (see Spec doc).
func (sp Spec) pairs() []KL {
	if len(sp.KL) > 0 {
		return sp.KL
	}
	var out []KL
	for _, k := range sp.K {
		for _, l := range sp.L {
			if k >= 1 && k <= l {
				out = append(out, KL{K: k, L: l})
			}
		}
	}
	return out
}

// Cells expands the grid in deterministic order (topology → (k,ℓ) → CMAX →
// variant → timeout → storm period) and validates every cell eagerly so the
// worker pool cannot fail mid-flight.
func (sp Spec) Cells() ([]Cell, error) {
	n := sp.normalized()
	if len(n.Topologies) == 0 {
		return nil, fmt.Errorf("campaign: spec %q has no topologies", n.Name)
	}
	pairs := n.pairs()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("campaign: spec %q has no valid (k,ℓ) pairs", n.Name)
	}
	scenarios := n.scenarioColumns()
	if err := n.validateScenarios(scenarios); err != nil {
		return nil, err
	}
	var cells []Cell
	for _, ts := range n.Topologies {
		tr, err := ts.Build()
		if err != nil {
			return nil, err
		}
		// Topology-dependent scenario validation (target process ids,
		// adjacency, ring positions): every scenario must be valid on every
		// topology of the grid, checked here so the worker pool cannot fail
		// mid-flight.
		for _, sc := range scenarios {
			if sc.Script == nil {
				continue
			}
			if err := sc.Script.ValidateFor(tr); err != nil {
				return nil, fmt.Errorf("campaign: scenario %q on topology %s: %w", sc.Name, ts.Label(), err)
			}
		}
		for _, kl := range pairs {
			if kl.K < 1 || kl.K > kl.L {
				return nil, fmt.Errorf("campaign: invalid pair k=%d ℓ=%d", kl.K, kl.L)
			}
			if n.Workload.Need > kl.K {
				// Fail loudly rather than silently clamping: a clamped need
				// would run a different workload than the spec records.
				return nil, fmt.Errorf("campaign: workload need %d exceeds k=%d (pair k=%d ℓ=%d)",
					n.Workload.Need, kl.K, kl.K, kl.L)
			}
			for _, cmax := range n.CMAX {
				for _, v := range n.Variants {
					if _, err := features(v); err != nil {
						return nil, err
					}
					for _, to := range n.Timeouts {
						for _, storm := range n.Faults.StormPeriods {
							for _, sc := range scenarios {
								cells = append(cells, Cell{
									Index:        len(cells),
									Topology:     ts,
									K:            kl.K,
									L:            kl.L,
									CMAX:         cmax,
									Variant:      v,
									TimeoutTicks: to,
									StormPeriod:  storm,
									Scenario:     sc.Name,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}
