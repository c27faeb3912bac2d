// Package kofl is a self-stabilizing k-out-of-ℓ exclusion library for
// oriented tree networks — an implementation of Datta, Devismes, Horn and
// Larmore, "Self-Stabilizing k-out-of-ℓ Exclusion on Tree Networks"
// (IPPS 2009, arXiv:0812.1093).
//
// There are ℓ units of a shared resource; any process of the tree may
// request up to k ≤ ℓ units at a time. The protocol circulates ℓ resource
// tokens in DFS order over the tree's virtual ring, a pusher token that
// breaks deadlocks, a priority token that breaks livelocks, and a
// counter-flushing controller that makes the whole construction
// self-stabilizing: from any corrupted state — arbitrary process memory,
// up to CMAX garbage messages per channel — the system converges to exactly
// (ℓ, 1, 1) tokens and then satisfies safety, fairness and (k,ℓ)-liveness.
//
// Two execution substrates are provided:
//
//   - System — a deterministic simulated network with an adversarial
//     scheduler; runs are reproducible from a seed, and monitors report
//     convergence, waiting time and safety. This is what the campaign
//     engine, the paper-fidelity tests and the benchmark use.
//   - Live — a goroutine-per-process runtime over buffered Go channels with
//     wire-encoded frames and a wall-clock root timeout.
//
// Quickstart:
//
//	tr := kofl.Star(8)
//	sys, _ := kofl.New(tr, kofl.Options{K: 2, L: 3})
//	sys.Request(3, 2)          // process 3 asks for 2 units
//	sys.Run(100_000)           // let the adversary schedule
//	m := sys.Metrics()         // grants, waiting time, resets, census
package kofl

import (
	"kofl/internal/adversary"
	"kofl/internal/campaign"
	"kofl/internal/checker"
	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

// Tree is an oriented rooted tree; process 0 is the root, a non-root
// process's channel 0 leads to its parent.
type Tree = tree.Tree

// NewTree builds a tree from a parent array (parents[0] must be
// tree.NoParent, i.e. -1).
func NewTree(parents []int) (*Tree, error) { return tree.New(parents) }

// Chain returns a path of n processes rooted at one end.
func Chain(n int) *Tree { return tree.Chain(n) }

// Star returns a root with n-1 leaf children.
func Star(n int) *Tree { return tree.Star(n) }

// Balanced returns a balanced tree of the given arity and depth.
func Balanced(arity, depth int) *Tree { return tree.Balanced(arity, depth) }

// Caterpillar returns a spine of `spine` processes with `legs` leaves each.
func Caterpillar(spine, legs int) *Tree { return tree.Caterpillar(spine, legs) }

// PaperTree returns the 8-process example tree of the paper's figures.
func PaperTree() *Tree { return tree.Paper() }

// Variant selects the protocol rung from the paper's incremental
// construction. The zero value is the full self-stabilizing protocol.
type Variant uint8

const (
	// FullProtocol is the complete self-stabilizing protocol (default).
	FullProtocol Variant = iota
	// NaiveVariant circulates resource tokens only (deadlocks; Figure 2).
	NaiveVariant
	// PusherVariant adds the pusher token (livelocks; Figure 3).
	PusherVariant
	// NonStabilizingVariant adds the priority token but no controller:
	// correct while fault-free, not self-stabilizing.
	NonStabilizingVariant
)

func (v Variant) features() core.Features {
	switch v {
	case NaiveVariant:
		return core.Naive()
	case PusherVariant:
		return core.PusherOnly()
	case NonStabilizingVariant:
		return core.NonStabilizing()
	default:
		return core.Full()
	}
}

// String names the variant.
func (v Variant) String() string {
	switch v {
	case NaiveVariant:
		return "naive"
	case PusherVariant:
		return "pusher"
	case NonStabilizingVariant:
		return "non-stabilizing"
	default:
		return "full"
	}
}

// Errata selects paper-literal pseudocode behaviors; each field documents
// where the printed pseudocode and the paper's prose and proofs part.
type Errata = core.Errata

// State is a process's application-interface state.
type State = core.State

// The three interface states of the paper.
const (
	Out = core.Out
	Req = core.Req
	In  = core.In
)

// Census is a snapshot of the global token population.
type Census = sim.Census

// Options configures a System or a Live network.
type Options struct {
	// K is the per-request cap, L the number of resource units (1 ≤ K ≤ L).
	K, L int
	// CMAX bounds initial garbage per channel (default 4); it sizes the
	// counter-flushing domain.
	CMAX int
	// Seed drives the simulation's randomness (System only).
	Seed int64
	// Variant selects the protocol rung (default: full protocol).
	Variant Variant
	// Errata switches to paper-literal pseudocode (default: corrected).
	Errata Errata
	// TimeoutTicks overrides the root's retransmission timeout in scheduler
	// steps (System only; 0 = topology-derived default).
	TimeoutTicks int64
}

func (o Options) config(t *Tree) core.Config {
	cmax := o.CMAX
	if cmax == 0 {
		cmax = core.DefaultCMAX
	}
	return core.Config{
		K: o.K, L: o.L, N: t.N(), CMAX: cmax,
		Features: o.Variant.features(),
		Errata:   o.Errata,
	}
}

// WaitingBound returns Theorem 2's worst-case waiting time ℓ(2n-3)² for a
// stabilized system of n processes and ℓ units.
func WaitingBound(n, l int) int64 { return checker.Bound(n, l) }

// CampaignSpec declares a parallel sweep: a grid of topologies, (k,ℓ)
// pairs, CMAX values, variants, timeouts and fault schedules, each cell run
// over a seed range. See the campaign package for the field reference and
// internal/campaign/README.md for the spec format.
type CampaignSpec = campaign.Spec

// CampaignTopology names one tree constructor of a campaign grid.
type CampaignTopology = campaign.TopologySpec

// CampaignKL is one explicit (k, ℓ) pair of a campaign grid.
type CampaignKL = campaign.KL

// CampaignSeeds is the per-cell seed range of a campaign.
type CampaignSeeds = campaign.SeedRange

// CampaignWorkload configures the request generator of every campaign run.
type CampaignWorkload = campaign.WorkloadSpec

// CampaignFaults configures fault injection (arbitrary starts, storm
// periods) for a campaign.
type CampaignFaults = campaign.FaultSpec

// CampaignScenario is one column of a campaign's adversary-scenario axis:
// a built-in scenario by name, or an inline AdversaryScript.
type CampaignScenario = campaign.ScenarioSpec

// AdversaryScript is a declarative fault scenario: phases × targets ×
// fault kinds × budgets, compiled to a deterministic per-step fault
// schedule (see internal/adversary).
type AdversaryScript = adversary.Script

// ParseAdversaryScript decodes and validates a JSON scenario script
// (unknown fields and foreign schema versions rejected).
func ParseAdversaryScript(b []byte) (*AdversaryScript, error) { return adversary.Parse(b) }

// CampaignReport is the order-independent aggregate a campaign produces.
type CampaignReport = campaign.Report

// CampaignOptions tunes the engine (worker count, trace capture directory,
// execution counters).
type CampaignOptions = campaign.Options

// CampaignPlan is the serializable execution plan of a campaign — the
// enumeration of every (cell, seed) slot, partitionable into deterministic
// shards for cross-machine execution.
type CampaignPlan = campaign.Plan

// CampaignPartial is the byte-stable result of executing one shard of a
// campaign plan.
type CampaignPartial = campaign.Partial

// CampaignEscalated is a campaign outcome with adaptive seed escalation:
// the base report plus one report per escalation round.
type CampaignEscalated = campaign.Escalated

// ParseCampaignSpec decodes a JSON campaign spec (unknown fields rejected).
func ParseCampaignSpec(b []byte) (CampaignSpec, error) { return campaign.ParseSpec(b) }

// PlanCampaign expands spec into its base execution plan (the pipeline's
// first stage). The plan round-trips through JSON (Plan.JSON /
// campaign.ParsePlan), which is the unit of cross-machine distribution.
func PlanCampaign(spec CampaignSpec) (*CampaignPlan, error) { return campaign.NewPlan(spec) }

// ExecuteCampaignShard runs shard i of m of a campaign plan across workers
// goroutines and returns its byte-stable partial report.
func ExecuteCampaignShard(plan *CampaignPlan, i, m, workers int) (*CampaignPartial, error) {
	return campaign.ExecuteShard(plan, i, m, campaign.Options{Workers: workers})
}

// MergeCampaign validates that the partials exactly cover the plan and
// reassembles them into the Report an unsharded run produces, byte for
// byte.
func MergeCampaign(plan *CampaignPlan, partials []*CampaignPartial) (*CampaignReport, error) {
	return campaign.Merge(plan, partials)
}

// RunCampaign expands spec into grid cells and runs every (cell, seed) pair
// as an independent System across workers goroutines (workers ≤ 0 = one per
// logical CPU). The aggregate Report — and its JSON/CSV renderings — is
// byte-identical for every worker count AND every sharding of the same
// plan: results land in slots addressed by (cell, seed) and are merged in
// plan order. Escalation rounds are not run (see RunEscalatedCampaign).
func RunCampaign(spec CampaignSpec, workers int) (*CampaignReport, error) {
	return campaign.Run(spec, campaign.Options{Workers: workers})
}

// RunEscalatedCampaign runs the full adaptive pipeline: the base grid, then
// up to spec.Escalation.Rounds re-planned sweeps of the cells whose
// convergence statistics stayed noisy, each with an escalated seed count.
// The result is reproducible run-to-run for a fixed spec.
func RunEscalatedCampaign(spec CampaignSpec, workers int) (*CampaignEscalated, error) {
	return campaign.RunEscalated(spec, campaign.Options{Workers: workers})
}
