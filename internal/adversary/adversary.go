// Package adversary is the declarative fault-scenario engine: it compiles a
// serializable scenario Script — phases, targets, fault kinds and budgets —
// into a deterministic per-step fault Schedule, and executes that schedule
// against the sim kernel through an Executor.
//
// The paper's convergence claim is universally quantified over transient
// faults (arbitrary process memory plus up to CMAX garbage messages per
// channel), so the fault surface the experiments can express directly bounds
// how hard the protocol is stress-tested. Scripts widen that surface far
// beyond the historical periodic rotating storm: a script composes
//
//   - phases — warmup / storm / quiescence windows, optionally repeated;
//   - targets — a single process, random-by-seed picks, the subtree rooted
//     at a process, a segment of the virtual ring, or the two directed
//     channels between neighbors;
//   - kinds — state corruption (via sim.Sim.RestoreNode), token
//     drop/duplication/injection, channel garbage bursts capped at CMAX,
//     in-channel message reorder, and the legacy rotating storm;
//   - budgets — caps on total fired events per run and per phase, plus a
//     minimum inter-fault gap.
//
// # Determinism
//
// Everything is resolved from the slot seed: the Executor owns a single
// rand.Rand seeded with slotSeed + Script.RngOffset, and every
// seed-dependent choice (random targets, fault magnitudes, garbage
// contents) draws from it in schedule order. A (script, topology, seed)
// triple therefore produces a byte-reproducible fault sequence, which is
// what lets the campaign layer treat scenarios as an ordinary grid axis —
// shardable, mergeable, and replayable by the trace layer.
//
// # Resync contract
//
// Every fault primitive in this package mutates the simulation only through
// the two tracked surfaces of the fault-injection resync rule: channel
// contents through the channel API (Seed/Replace/Push/Pop, whose emptiness
// and message hooks keep the enabled-action set and the token census in
// sync), and process state through sim.Sim.RestoreNode (which folds the
// state delta into the census). No primitive needs a ResyncActions call.
// The package-level differential tests prove this per fault kind, per
// scheduler, against the FullRescan/ScanCensus oracles.
package adversary

import "fmt"

// SchemaVersion is the script schema this engine compiles. Parse rejects
// other versions so stored scenario files fail loudly instead of silently
// meaning something else after a schema change.
const SchemaVersion = 1

// Script is a declarative, serializable fault scenario. The zero value is
// invalid; a script must declare Version = SchemaVersion and at least one
// phase.
type Script struct {
	// Version pins the schema (must equal SchemaVersion).
	Version int `json:"version"`
	// Name labels the scenario in reports, traces and CLI listings.
	Name string `json:"name,omitempty"`
	// RngOffset shifts the executor's RNG seed: the fault stream is drawn
	// from rand.NewSource(slotSeed + RngOffset). Distinct offsets decorrelate
	// scenarios sharing a slot seed; the legacy storm uses its period here.
	RngOffset int64 `json:"rng_offset,omitempty"`
	// Repeat loops the phase sequence until the run's step budget is
	// exhausted (requires a positive total phase length).
	Repeat bool `json:"repeat,omitempty"`
	// Budget caps the whole run (see Budget).
	Budget Budget `json:"budget,omitempty"`
	// Phases execute in order, each owning a window of scheduler steps.
	Phases []Phase `json:"phases"`
}

// Phase is one window of the scenario: Steps scheduler steps during which
// the phase's events fire. A phase with no events is a warmup or quiescence
// window.
type Phase struct {
	Name string `json:"name,omitempty"`
	// Steps is the window length in scheduler steps. 0 means "the rest of
	// the run" and is only valid for the last phase of a non-repeating
	// script.
	Steps int64 `json:"steps"`
	// Budget caps this phase instance (per repetition, see Budget).
	Budget Budget  `json:"budget,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// Event is one fault source within a phase. Exactly one schedule applies:
// Every > 0 fires periodically at phase-relative steps Every, 2·Every, …;
// otherwise the event fires once at phase-relative step At (0 = the phase's
// first step).
type Event struct {
	// Kind is one of corrupt|drop|duplicate|inject|garbage|reorder|storm.
	Kind string `json:"kind"`
	// Target selects the processes/channels the fault applies to (default:
	// the whole system). The storm kind is always global and must not set a
	// target.
	Target Target `json:"target,omitempty"`
	// Token selects the message kind for drop/duplicate/inject:
	// res|push|prio|ctrl (default res).
	Token string `json:"token,omitempty"`
	// At is the phase-relative one-shot step (used when Every == 0).
	At int64 `json:"at,omitempty"`
	// Every is the phase-relative period (0 = one-shot).
	Every int64 `json:"every,omitempty"`
	// Count is the fault magnitude: messages dropped/duplicated/injected,
	// channels reordered, or the per-channel garbage maximum (0 defaults to
	// 1, except garbage where 0 means CMAX).
	Count int `json:"count,omitempty"`
	// Jitter adds rng.Intn(Jitter+1) to Count at each firing.
	Jitter int `json:"jitter,omitempty"`
}

// Target selects the fault's victims. Kind semantics:
//
//	""|"all"   every process / every channel (the default)
//	"proc"     process Proc; channels: all channels incident to Proc
//	"random"   Count processes/channels drawn from the executor RNG per firing
//	"subtree"  the subtree rooted at Proc; channels internal to it
//	"ring"     the virtual-ring segment of Len positions starting at From;
//	           channels: the segment's directed edges
//	"channel"  the two directed channels between neighbors Proc and Peer
type Target struct {
	Kind  string `json:"kind,omitempty"`
	Proc  int    `json:"proc,omitempty"`
	Peer  int    `json:"peer,omitempty"`
	Count int    `json:"count,omitempty"`
	From  int    `json:"from,omitempty"`
	Len   int    `json:"len,omitempty"`
}

// Budget bounds fault volume. At script level it caps the whole run; at
// phase level it caps one phase instance (each repetition of a repeated
// phase gets a fresh phase budget). A trigger suppressed by a budget simply
// does not fire: it consumes no randomness and counts nothing.
type Budget struct {
	// Events caps how many events may fire (0 = unlimited).
	Events int `json:"events,omitempty"`
	// MinGap is the minimum number of scheduler steps between two fired
	// events (0 = no gap required).
	MinGap int64 `json:"min_gap,omitempty"`
}

// eventKinds is the closed set of fault kinds (see Executor for semantics).
var eventKinds = map[string]bool{
	"corrupt":   true,
	"drop":      true,
	"duplicate": true,
	"inject":    true,
	"garbage":   true,
	"reorder":   true,
	"storm":     true,
}

// targetKinds is the closed set of target kinds.
var targetKinds = map[string]bool{
	"": true, "all": true, "proc": true, "random": true,
	"subtree": true, "ring": true, "channel": true,
}

// Validate checks the script's structural invariants: schema version, phase
// windows, event kinds and schedules, target kinds, budget signs. Topology-
// dependent target ranges (process ids, adjacency, ring positions) are
// checked by ValidateFor once a tree is known.
func (sc *Script) Validate() error {
	if sc.Version != SchemaVersion {
		return fmt.Errorf("adversary: script %q has schema version %d, this engine compiles version %d",
			sc.Name, sc.Version, SchemaVersion)
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("adversary: script %q has no phases", sc.Name)
	}
	if err := sc.Budget.validate("script"); err != nil {
		return err
	}
	var cycle int64
	for pi, ph := range sc.Phases {
		if ph.Steps < 0 {
			return fmt.Errorf("adversary: phase %d (%q) has negative length %d", pi, ph.Name, ph.Steps)
		}
		if ph.Steps == 0 {
			if pi != len(sc.Phases)-1 {
				return fmt.Errorf("adversary: phase %d (%q) has open length (steps 0) but is not the last phase", pi, ph.Name)
			}
			if sc.Repeat {
				return fmt.Errorf("adversary: phase %d (%q) has open length (steps 0), which cannot repeat", pi, ph.Name)
			}
		}
		cycle += ph.Steps
		if err := ph.Budget.validate(fmt.Sprintf("phase %d", pi)); err != nil {
			return err
		}
		for ei, ev := range ph.Events {
			where := fmt.Sprintf("phase %d event %d", pi, ei)
			if !eventKinds[ev.Kind] {
				return fmt.Errorf("adversary: %s: unknown kind %q (corrupt|drop|duplicate|inject|garbage|reorder|storm)", where, ev.Kind)
			}
			if ev.Every < 0 || ev.At < 0 || ev.Count < 0 || ev.Jitter < 0 {
				return fmt.Errorf("adversary: %s: negative schedule or magnitude", where)
			}
			if ev.Every > 0 && ev.At > 0 {
				return fmt.Errorf("adversary: %s: 'at' and 'every' are mutually exclusive", where)
			}
			if ev.Every == 0 && ph.Steps > 0 && ev.At >= ph.Steps {
				return fmt.Errorf("adversary: %s: one-shot at step %d outside the phase's %d-step window", where, ev.At, ph.Steps)
			}
			if _, err := tokenKind(ev.Token); err != nil {
				return fmt.Errorf("adversary: %s: %w", where, err)
			}
			if ev.Kind == "storm" {
				if ev.Target != (Target{}) {
					return fmt.Errorf("adversary: %s: the storm kind is global and takes no target", where)
				}
				if ev.Every <= 0 {
					return fmt.Errorf("adversary: %s: storm needs a period (every > 0)", where)
				}
				continue
			}
			if !targetKinds[ev.Target.Kind] {
				return fmt.Errorf("adversary: %s: unknown target kind %q", where, ev.Target.Kind)
			}
			if ev.Target.Proc < 0 || ev.Target.Peer < 0 || ev.Target.Count < 0 ||
				ev.Target.From < 0 || ev.Target.Len < 0 {
				return fmt.Errorf("adversary: %s: negative target field", where)
			}
		}
	}
	if sc.Repeat && cycle == 0 {
		return fmt.Errorf("adversary: script %q repeats a zero-length phase cycle", sc.Name)
	}
	return nil
}

func (b Budget) validate(where string) error {
	if b.Events < 0 || b.MinGap < 0 {
		return fmt.Errorf("adversary: %s budget has negative field", where)
	}
	return nil
}
