package core

import "kofl/internal/message"

// receiveCtrl dispatches the controller message to the root (Algorithm 1
// lines 42-76) or non-root (Algorithm 2 lines 32-60) logic.
func (n *Node) receiveCtrl(env Env, q int, m message.Message) {
	if n.isRoot {
		n.rootCtrl(env, q, m)
	} else {
		n.nodeCtrl(env, q, m)
	}
}

// rootCtrl implements the root's controller handling. A message is valid iff
// it arrives from Succ carrying the current myC; everything else is a
// duplicate or garbage and is silently dropped (counter flushing).
//
// When Succ wraps to 0 a full traversal ended: the root now knows the token
// census (PT+SToken resource tokens, PPr+SPrio priority tokens, SPush
// pushers — each saturating, so "too many" is detectable with bounded
// memory) and either tops up missing tokens or flags a reset traversal that
// erases every token before recreating exactly (ℓ, 1, 1).
func (n *Node) rootCtrl(env Env, q int, m message.Message) {
	v, sl := n.vars, n.slot()
	if int32(q) != sl.succ || m.C != sl.myC {
		return // invalid: ignore, do not retransmit
	}
	pt, ppr := int(m.PT), int(m.PPr)
	if !v.cfg.Errata.PaperCountOrder {
		// Corrected order (erratum E2): tokens parked at the root are
		// accounted to the traversal that is about to complete, so each
		// token is counted exactly once per circulation.
		pt, ppr = n.accumulate(pt, ppr, q)
	}
	sl.succ = (sl.succ + 1) % n.deg
	if sl.succ == 0 {
		// End of traversal (Algorithm 1 lines 45-68).
		sl.myC = (sl.myC + 1) % v.cmod
		resCount := pt + int(v.stoken)
		prioCount := ppr + int(v.sprio)
		pushCount := int(v.spush)
		v.reset = resCount > v.cfg.L || prioCount > 1 || pushCount > 1
		n.emit(Event{Kind: EvCirculation, N1: resCount, N2: prioCount, N3: pushCount, Flag: v.reset})
		if v.reset {
			n.rsetClear()
			sl.prio = NoPrio
		} else {
			createdRes, createdPrio, createdPush := 0, 0, 0
			if prioCount < 1 && v.cfg.Features.Priority {
				env.Send(0, message.NewPrio())
				createdPrio = 1
			}
			for pt+int(v.stoken) < v.cfg.L {
				env.Send(0, message.NewRes())
				v.stoken = int32(min(int(v.stoken)+1, v.cfg.L+1))
				createdRes++
			}
			if pushCount < 1 && v.cfg.Features.Pusher {
				env.Send(0, message.NewPush())
				createdPush = 1
			}
			if createdRes+createdPrio+createdPush > 0 {
				n.emit(Event{Kind: EvCreate, N1: createdRes, N2: createdPrio, N3: createdPush})
			}
		}
		v.stoken, v.sprio, v.spush = 0, 0, 0
		pt, ppr = 0, 0
	}
	if v.cfg.Errata.PaperCountOrder {
		// Paper order: accumulate after the completion block (lines 69-72).
		pt, ppr = n.accumulate(pt, ppr, q)
	}
	env.Send(int(sl.succ), message.NewCtrl(sl.myC, v.reset, pt, ppr))
	env.RestartTimer()
}

// accumulate adds the tokens the controller passes at this visit — the
// reserved resource tokens that arrived from channel q and a held priority
// token that arrived from q — into the saturating counters.
func (n *Node) accumulate(pt, ppr, q int) (int, int) {
	pt = min(pt+n.multiplicity(q), n.vars.cfg.L+1)
	if int(n.slot().prio) == q {
		ppr = min(ppr+1, 2)
	}
	return pt, ppr
}

// nodeCtrl implements Algorithm 2 lines 32-60. A non-root process accepts a
// controller (1) from its parent (channel 0) — adopting its flag value when
// it differs from myC and restarting its local DFS — or (2) from Succ ≠ 0
// carrying myC, continuing the local DFS. A duplicate from the parent with
// an unchanged flag is retransmitted without processing "to prevent
// deadlock"; everything else is dropped.
func (n *Node) nodeCtrl(env Env, q int, m message.Message) {
	sl := n.slot()
	ok := false
	if int32(q) == sl.succ && m.C == sl.myC && sl.succ != 0 {
		sl.succ = (sl.succ + 1) % n.deg
		ok = true
		if m.R {
			n.applyReset()
		}
	}
	if q == 0 {
		ok = true
		if m.C != sl.myC {
			sl.succ = int32(min(1, int(n.deg)-1))
			if m.R {
				n.applyReset()
			}
		}
		sl.myC = m.C
	}
	if ok {
		pt, ppr := n.accumulate(int(m.PT), int(m.PPr), q)
		env.Send(int(sl.succ), message.NewCtrl(sl.myC, m.R, pt, ppr))
	}
}

// applyReset erases the process's reservations and priority hold when
// visited by a reset-flagged controller.
func (n *Node) applyReset() {
	sl := n.slot()
	if sl.rlen > 0 {
		n.emit(Event{Kind: EvEvict, N1: int(sl.rlen)})
	}
	n.rsetClear()
	sl.prio = NoPrio
}

// HandleTimeout implements the root's retransmission (Algorithm 1 lines
// 99-102): after a long enough silence the controller is presumed lost and
// a fresh copy with zeroed counts is sent toward Succ. Counter flushing
// absorbs the duplicates this may create. No-op at non-roots and in
// variants without the controller.
func (n *Node) HandleTimeout(env Env) {
	if !n.isRoot || !n.vars.cfg.Features.Controller {
		return
	}
	n.emit(Event{Kind: EvTimeout})
	v, sl := n.vars, n.slot()
	env.Send(int(sl.succ), message.NewCtrl(sl.myC, v.reset, 0, 0))
	env.RestartTimer()
}
