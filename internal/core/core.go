// Package core implements the paper's contribution: the self-stabilizing
// k-out-of-ℓ exclusion protocol for oriented trees (Algorithms 1 and 2 of
// Datta, Devismes, Horn, Larmore, IPPS 2009).
//
// The protocol is written as a pure state machine: a Node reacts to
// delivered messages, timeouts and application polls, and talks to the
// outside world only through the Env (sending, timer) and App (critical
// section) interfaces. The same code runs under the deterministic simulator
// (internal/sim) and the live goroutine runtime (internal/runtime).
//
// The paper builds the protocol incrementally — resource tokens alone
// deadlock (Fig. 2), adding the pusher livelocks (Fig. 3), adding the
// priority token yields a correct but non-fault-tolerant protocol, and the
// counter-flushing controller makes it self-stabilizing. Features switches
// reproduce each rung of that ladder with the same engine.
package core

import (
	"fmt"
	"math"

	"kofl/internal/message"
)

// State is the application-interface state of a process.
type State uint8

const (
	// Out: the application holds no resource units and requests none.
	Out State = iota
	// Req: the application is requesting Need resource units.
	Req
	// In: the application is executing its critical section.
	In
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case Out:
		return "Out"
	case Req:
		return "Req"
	case In:
		return "In"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// NoPrio is the ⊥ value of the Prio variable.
const NoPrio = -1

// Features selects which of the paper's mechanisms are active, mirroring the
// incremental construction of §3. The zero value is the "naive" protocol
// (resource-token circulation only). Controller requires Pusher and
// Priority: the controller regulates all three token types.
type Features struct {
	Pusher     bool // PushT circulation (deadlock freedom)
	Priority   bool // PrioT circulation (livelock freedom)
	Controller bool // ctrl circulation + counter flushing (self-stabilization)
}

// Naive returns the token-circulation-only variant of Figure 2.
func Naive() Features { return Features{} }

// PusherOnly returns the deadlock-free but livelock-prone variant of Figure 3.
func PusherOnly() Features { return Features{Pusher: true} }

// NonStabilizing returns the correct but non-fault-tolerant variant
// (resource + pusher + priority tokens, no controller).
func NonStabilizing() Features { return Features{Pusher: true, Priority: true} }

// Full returns the complete self-stabilizing protocol.
func Full() Features { return Features{Pusher: true, Priority: true, Controller: true} }

// Errata selects between the paper's literal pseudocode and the corrected
// semantics its prose and proofs describe. Both flags default to false,
// i.e. to the corrected behavior.
type Errata struct {
	// LiteralPusherGuard applies Algorithm 1 line 21 / Algorithm 2 line 17
	// as printed: a process releases its reservations on a pusher only if it
	// HOLDS the priority token (Prio ≠ ⊥). The prose and all proofs require
	// the opposite guard (Prio = ⊥), which is the default.
	LiteralPusherGuard bool
	// PaperCountOrder performs the controller's PT/PPr accumulation after
	// the end-of-traversal block, as printed (Algorithm 1 lines 45-72). The
	// default accumulates before the completion check so that a token the
	// root reserved from its last channel is counted exactly once per
	// circulation (the printed order miscounts it, causing spurious token
	// creation followed by a spurious reset; ablation A2 measures this).
	PaperCountOrder bool
}

// Config carries the protocol parameters shared by every process.
type Config struct {
	// K is the per-request maximum, L the number of resource units; 1≤K≤L.
	K, L int
	// N is the number of processes in the tree.
	N int
	// CMAX bounds the number of arbitrary messages initially in each
	// channel; it sizes the counter-flushing domain.
	CMAX int
	// UnboundedCounters implements the paper's concluding remark: with
	// unbounded process memory the CMAX channel assumption can be dropped
	// (Katz-Perry). The counter-flushing flag then ranges over a domain so
	// large that no realistic amount of channel garbage can exhaust it.
	UnboundedCounters bool
	// Features selects the protocol variant; Errata the pseudocode fidelity.
	Features Features
	Errata   Errata
}

// DefaultCMAX is the channel garbage bound every entry point uses when the
// caller leaves CMAX unset.
const DefaultCMAX = 4

// MaxL is the largest usable ℓ: the controller's saturating surplus count
// PT ∈ [0..ℓ+1] travels in a 16-bit field (message.Message.PT and the wire
// codec), and convergence from an over-full configuration relies on it not
// wrapping.
const MaxL = math.MaxUint16 - 1

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("core: need at least 2 processes, got %d", c.N)
	}
	if c.K < 1 || c.L < c.K {
		return fmt.Errorf("core: need 1 ≤ k ≤ ℓ, got k=%d ℓ=%d", c.K, c.L)
	}
	if c.L > MaxL {
		return fmt.Errorf("core: ℓ=%d does not fit the controller frame: ℓ+1 is counted in 16 bits, need ℓ ≤ %d", c.L, MaxL)
	}
	if c.CMAX < 0 {
		return fmt.Errorf("core: CMAX must be ≥ 0, got %d", c.CMAX)
	}
	if c.Features.Controller && (!c.Features.Pusher || !c.Features.Priority) {
		return fmt.Errorf("core: the controller regulates pusher and priority tokens; enable all three")
	}
	return nil
}

// CounterMod returns the size of the counter-flushing domain:
// myC ∈ [0 .. 2(n-1)(CMAX+1)], i.e. modulus 2(n-1)(CMAX+1)+1. With
// UnboundedCounters the domain is effectively infinite (2⁴⁰).
func (c Config) CounterMod() int {
	if c.UnboundedCounters {
		return 1 << 40
	}
	return 2*(c.N-1)*(c.CMAX+1) + 1
}

// LegitimatePopulation is the one rule for a legitimate token population:
// exactly ℓ resource tokens, exactly one priority token and one pusher when
// those features are on, and no reset pending. The simulator applies it to
// its global census, the live runtime to the root's census of a controller
// traversal — which saturates, so an over-full population reads ℓ+1 or 2.
func (c Config) LegitimatePopulation(res, prio, push int, resetPending bool) bool {
	return res == c.L &&
		(!c.Features.Priority || prio == 1) &&
		(!c.Features.Pusher || push == 1) &&
		!resetPending
}

// Env is the protocol's view of its process's communication substrate.
type Env interface {
	// Send enqueues m on the process's outgoing channel with label ch.
	Send(ch int, m message.Message)
	// RestartTimer re-arms the root's retransmission timeout; a no-op at
	// non-root processes.
	RestartTimer()
}

// App is the application side of the paper's interface: the protocol calls
// EnterCS when a request is granted and polls ReleaseCS to learn when the
// critical section has been completed.
type App interface {
	// EnterCS hands the reserved resource units to the application.
	EnterCS()
	// ReleaseCS reports that the application is NOT (any longer) executing
	// its critical section.
	ReleaseCS() bool
}

// NopApp is an App that never requests; useful for pure-circulation
// experiments and as an embedding base.
type NopApp struct{}

// EnterCS implements App.
func (NopApp) EnterCS() {}

// ReleaseCS implements App; a NopApp is never in its critical section.
func (NopApp) ReleaseCS() bool { return true }

// EventKind tags protocol events observable by monitors.
type EventKind uint8

const (
	// EvRequest: the application issued a request (N1 = need).
	EvRequest EventKind = iota
	// EvEnterCS: the process entered its critical section (N1 = need,
	// N2 = reserved tokens handed over).
	EvEnterCS
	// EvExitCS: the process left its critical section (N1 = tokens released).
	EvExitCS
	// EvReserve: a resource token was reserved (N1 = channel it came from).
	EvReserve
	// EvEvict: the pusher evicted reservations (N1 = tokens released).
	EvEvict
	// EvPrioAcquire: the process captured the priority token (N1 = channel).
	EvPrioAcquire
	// EvPrioRelease: the process released the priority token.
	EvPrioRelease
	// EvCirculation: the controller completed a traversal at the root
	// (N1/N2/N3 = counted resource/priority/pusher tokens; Flag = reset
	// decision for the next traversal).
	EvCirculation
	// EvCreate: the root created tokens (N1/N2/N3 = resource/priority/pusher
	// tokens created).
	EvCreate
	// EvDrop: the root destroyed a token during a reset traversal
	// (N1 = message.Kind).
	EvDrop
	// EvTimeout: the root's retransmission timeout fired.
	EvTimeout
)

// Event is one observable protocol event at process P.
type Event struct {
	Kind       EventKind
	P          int
	N1, N2, N3 int
	Flag       bool
}

// Observer receives protocol events; may be nil.
type Observer func(Event)
