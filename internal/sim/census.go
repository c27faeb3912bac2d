package sim

import (
	"fmt"

	"kofl/internal/channel"
	"kofl/internal/core"
	"kofl/internal/message"
)

// Census is a global snapshot of where every token of the system lives: in
// transit ("free", the paper's term) or stored in process state (reserved
// resource tokens in RSet multisets; a held priority token as Prio ≠ ⊥).
type Census struct {
	FreeRes, ReservedRes int
	FreePush             int
	FreePrio, HeldPrio   int
	Ctrl                 int // ctrl messages in transit (valid or not)
	ResetCtrl            int // ctrl messages in transit with R set
	InCS                 int // processes with State = In
	UnitsInUse           int // Σ |RSet| over processes with State = In
	OverK                int // processes with State = In and |RSet| > k
}

// Res returns the total resource-token population.
func (c Census) Res() int { return c.FreeRes + c.ReservedRes }

// Prio returns the total priority-token population.
func (c Census) Prio() int { return c.FreePrio + c.HeldPrio }

// String summarizes the census.
func (c Census) String() string {
	return fmt.Sprintf("census{res=%d(%d free) push=%d prio=%d(%d held) ctrl=%d inCS=%d units=%d}",
		c.Res(), c.FreeRes, c.FreePush, c.Prio(), c.HeldPrio, c.Ctrl, c.InCS, c.UnitsInUse)
}

// Census returns the current global token census. By default it is the
// incrementally maintained census — O(1), assembled from the shared channel
// population counter (channel-side fields) and the node-state fold
// (node-side fields) — so monitors can read it every step for free. With
// Options.ScanCensus it recomputes the census from a full snapshot scan on
// every call: the differential-testing oracle, exactly like
// Options.FullRescan for the enabled-action set.
func (s *Sim) Census() Census {
	if s.scanCensus {
		return s.CensusScan()
	}
	c := s.census
	c.FreeRes = int(s.hub.Counts.Kinds[message.Res])
	c.FreePush = int(s.hub.Counts.Kinds[message.Push])
	c.FreePrio = int(s.hub.Counts.Kinds[message.Prio])
	c.Ctrl = int(s.hub.Counts.Kinds[message.Ctrl])
	c.ResetCtrl = int(s.hub.Counts.ResetCtrl)
	return c
}

// CensusScan computes the census from scratch by walking every channel and
// every process: the historical snapshot implementation, kept as the oracle
// the differential and fuzz tests compare the maintained census against, and
// as the rebuild primitive behind resyncCensus.
func (s *Sim) CensusScan() Census {
	var c Census
	for i := range int32(len(s.chans)) {
		for _, m := range s.hub.Chan(i).Snapshot() {
			switch m.Kind {
			case message.Res:
				c.FreeRes++
			case message.Push:
				c.FreePush++
			case message.Prio:
				c.FreePrio++
			case message.Ctrl:
				c.Ctrl++
				if m.R {
					c.ResetCtrl++
				}
			}
		}
	}
	var n core.Node
	for i := range int32(len(s.procs)) {
		s.view(&n, i)
		c.ReservedRes += n.Reserved()
		if n.HoldsPrio() {
			c.HeldPrio++
		}
		if n.State() == core.In {
			c.InCS++
			c.UnitsInUse += n.Reserved()
			if n.Reserved() > s.Cfg.K {
				c.OverK++
			}
		}
	}
	return c
}

// nodeDelta is the before-image of one node's census-relevant state, taken
// by beginTrack and folded against the after-image by endTrack. Passing it
// by value keeps the node-tracking brackets on the kernel hot path free of
// closure allocation and indirect calls.
type nodeDelta struct {
	slot  int32
	res   int32
	prio  bool
	state core.State
	skip  bool // census disabled or reentrant frame: fold nothing
}

// beginTrack opens a node-tracking bracket around a state mutation of the
// process at slot; the returned before-image must be handed to endTrack after the
// mutation. Every kernel entry point into a core.Node (message
// handling, timeout, Handle calls, RestoreNode) is bracketed this way;
// messages the node sends while handling are accounted separately by the
// channels' shared population counter.
//
// Reentrant brackets for the SAME node (an application's EnterCS callback
// polling its own Handle mid-delivery) are not double-counted: the outermost
// frame observes the full before/after delta. A nested bracket for a
// DIFFERENT node (user callbacks may drive another process's Handle) opens
// its own frame, which is sound because census deltas of distinct nodes are
// independent and additive. Brackets nest like the calls that open them, so
// the open ones form a stack — almost always of depth one.
func (s *Sim) beginTrack(slot int) nodeDelta {
	if s.scanCensus {
		return nodeDelta{skip: true}
	}
	for _, q := range s.tracking {
		if int(q) == slot {
			return nodeDelta{skip: true}
		}
	}
	s.tracking = append(s.tracking, int32(slot))
	res, prio, state := s.vars.Probe(slot)
	return nodeDelta{slot: int32(slot), res: res, prio: prio, state: state}
}

// endTrack closes the innermost open node-tracking bracket, folding the state
// delta of its process since beginTrack into the maintained census. It
// reports whether the node left Req — the one way a delivery or timeout
// calls the application's EnterCS — or, for a frame that folds nothing,
// that it cannot tell.
func (s *Sim) endTrack(d nodeDelta) (leftReq bool) {
	if d.skip {
		return true
	}
	s.tracking = s.tracking[:len(s.tracking)-1]
	res32, prioA, state := s.vars.Probe(int(d.slot))
	resA, resB := int(res32), int(d.res)
	inA := state == core.In

	s.census.ReservedRes += resA - resB
	if prioA != d.prio {
		if prioA {
			s.census.HeldPrio++
		} else {
			s.census.HeldPrio--
		}
	}
	if d.state == core.In {
		s.census.InCS--
		s.census.UnitsInUse -= resB
		if resB > s.Cfg.K {
			s.census.OverK--
		}
	}
	if inA {
		s.census.InCS++
		s.census.UnitsInUse += resA
		if resA > s.Cfg.K {
			s.census.OverK++
		}
	}
	return d.state == core.Req && state != core.Req
}

// trackNode runs fn — which may mutate the protocol state of the process at
// slot — and folds the resulting state delta into the maintained census: the
// closure convenience form of beginTrack/endTrack for cold paths.
func (s *Sim) trackNode(slot int, fn func()) {
	d := s.beginTrack(slot)
	fn()
	s.endTrack(d)
}

// resyncCensus rebuilds the maintained census — the node-side fold and the
// shared channel population counter — from a full snapshot scan: the census
// half of ResyncActions. Mutations through the channel API and node
// transitions driven through the kernel (Step, Handles, RestoreNode) keep
// the census in sync without it.
func (s *Sim) resyncCensus() {
	if s.scanCensus {
		return
	}
	full := s.CensusScan()
	s.census = full
	s.hub.Counts = channel.Counts{}
	s.hub.Counts.Kinds[message.Res] = int64(full.FreeRes)
	s.hub.Counts.Kinds[message.Push] = int64(full.FreePush)
	s.hub.Counts.Kinds[message.Prio] = int64(full.FreePrio)
	s.hub.Counts.Kinds[message.Ctrl] = int64(full.Ctrl)
	s.hub.Counts.ResetCtrl = int64(full.ResetCtrl)
}

// RestoreNode overwrites process p's protocol state with snap (clamped into
// variable domains, see core.Node.Restore) while keeping the maintained
// census in sync — the supported way for fault injectors to corrupt process
// state. State corruption cannot change action enablement, so no action-set
// resync is needed.
func (s *Sim) RestoreNode(p int, snap core.Snapshot) {
	slot := int(s.slot(p))
	s.trackNode(slot, func() {
		var n core.Node
		s.view(&n, int32(slot))
		n.Restore(snap)
	})
}

// Health is the copy-free per-step read of the maintained census: whether
// the token populations are legitimate (core.Config.LegitimatePopulation,
// with a reset pending while a ctrl message carries R or the root's reset
// flag is set), the units in use and the number of processes over their k
// cap. It is what the per-step monitors consume, so a step assembles no
// Census value; under Options.ScanCensus it reads the snapshot oracle
// instead.
func (s *Sim) Health() (legit bool, unitsInUse, overK int) {
	rootReset := s.vars.ResetFlag()
	if s.scanCensus {
		c := s.CensusScan()
		return s.Cfg.LegitimatePopulation(c.Res(), c.Prio(), c.FreePush, c.ResetCtrl > 0 || rootReset),
			c.UnitsInUse, c.OverK
	}
	ct, c := &s.hub.Counts, &s.census
	legit = s.Cfg.LegitimatePopulation(int(ct.Kinds[message.Res])+c.ReservedRes,
		int(ct.Kinds[message.Prio])+c.HeldPrio, int(ct.Kinds[message.Push]),
		ct.ResetCtrl > 0 || rootReset)
	return legit, c.UnitsInUse, c.OverK
}

// TokensCorrect reports whether the current token populations are
// legitimate (see Health).
func (s *Sim) TokensCorrect() bool {
	legit, _, _ := s.Health()
	return legit
}

// SeedLegitimate places a legitimate initial token population for variants
// without the controller (which cannot create their own tokens): ℓ resource
// tokens, then the pusher, then the priority token — per enabled feature —
// all queued on the root's outgoing channel 0, i.e. at ring START.
func (s *Sim) SeedLegitimate() {
	c := s.Out(s.Tree.Root(), 0)
	for i := 0; i < s.Cfg.L; i++ {
		c.Seed(message.NewRes())
	}
	if s.Cfg.Features.Pusher {
		c.Seed(message.NewPush())
	}
	if s.Cfg.Features.Priority {
		c.Seed(message.NewPrio())
	}
}

// Seed enqueues msgs (in order) on the outgoing channel ch of process p,
// without counting them as sent — for scenario and fault setup.
func (s *Sim) Seed(p, ch int, msgs ...message.Message) {
	c := s.Out(p, ch)
	for _, m := range msgs {
		c.Seed(m)
	}
}
