package core

import (
	"fmt"

	"kofl/internal/message"
)

// HandleMessage processes one delivered message: m arrived on the process's
// incoming channel with label q. It implements the per-channel receive
// actions of Algorithms 1 and 2, followed by the bottom half of the loop.
func (n *Node) HandleMessage(q int, m message.Message, env Env) {
	if q < 0 || q >= int(n.deg) {
		panic(fmt.Sprintf("core: process %d: message on channel %d of %d", n.id, q, n.deg))
	}
	switch m.Kind {
	case message.Res:
		n.receiveRes(env, q)
	case message.Push:
		n.receivePush(env, q)
	case message.Prio:
		n.receivePrio(env, q)
	case message.Ctrl:
		// Without the controller mechanism there is no valid ctrl message;
		// any that appear are initial-configuration garbage and are ignored.
		if n.vars.cfg.Features.Controller {
			n.receiveCtrl(env, q, m)
		}
	default:
		// Arbitrary garbage kinds left by faults are dropped: the protocol
		// only reacts to its four message types.
	}
	n.bottomHalf(env)
}

// receiveRes implements Algorithm 1 lines 10-19 / Algorithm 2 lines 9-15.
func (n *Node) receiveRes(env Env, q int) {
	if n.isRoot && n.vars.reset {
		// During a reset traversal the root destroys every token it receives.
		n.emit(Event{Kind: EvDrop, N1: int(message.Res)})
		return
	}
	if sl := n.slot(); sl.state == Req && sl.rlen < sl.need {
		n.rsetPush(int32(q))
		n.emit(Event{Kind: EvReserve, N1: q})
		return
	}
	n.forwardRes(env, q)
}

// receivePush implements Algorithm 1 lines 20-34 / Algorithm 2 lines 16-24.
//
// The release guard follows the paper's prose: a process NOT holding the
// priority token, not in its critical section and not enabled to enter it
// must drop its reservations. Errata.LiteralPusherGuard switches to the
// pseudocode as printed (Prio ≠ ⊥), which inverts the priority shield
// (erratum E1).
func (n *Node) receivePush(env Env, q int) {
	v, sl := n.vars, n.slot()
	if n.isRoot && v.reset {
		n.emit(Event{Kind: EvDrop, N1: int(message.Push)})
		return
	}
	prioCond := sl.prio == NoPrio
	if v.cfg.Errata.LiteralPusherGuard {
		prioCond = sl.prio != NoPrio
	}
	if prioCond && (sl.state != Req || sl.rlen < sl.need) && sl.state != In {
		if sl.rlen > 0 {
			evicted := int(sl.rlen)
			n.releaseAll(env)
			n.emit(Event{Kind: EvEvict, N1: evicted})
		}
	}
	n.forwardPush(env, q)
}

// receivePrio implements Algorithm 1 lines 35-41 / Algorithm 2 lines 25-31.
// The token is captured whenever Prio = ⊥; the bottom half immediately
// forwards it again unless it shields an unsatisfied request.
func (n *Node) receivePrio(env Env, q int) {
	if n.isRoot && n.vars.reset {
		n.emit(Event{Kind: EvDrop, N1: int(message.Prio)})
		return
	}
	if sl := n.slot(); sl.prio == NoPrio {
		sl.prio = int32(q)
		n.emit(Event{Kind: EvPrioAcquire, N1: q})
		return
	}
	env.Send((q+1)%int(n.deg), message.NewPrio())
}
