package sim

import (
	"fmt"

	"kofl/internal/core"
	"kofl/internal/message"
)

// RandomScheduler picks uniformly among the enabled actions using the
// simulation RNG: the standard fair asynchronous adversary (every pending
// action is eventually executed with probability 1). One order-statistic
// query on the persistent set — no per-step scan.
type RandomScheduler struct{}

// NewRandomScheduler returns the fair uniform scheduler.
func NewRandomScheduler() *RandomScheduler { return &RandomScheduler{} }

// Next implements Scheduler.
func (*RandomScheduler) Next(s *Sim, actions *ActionSet) Action {
	return actions.At(s.Rand().Intn(actions.Len()))
}

// RoundRobinScheduler rotates deterministically through processes: at each
// step it picks the enabled action whose process id follows the previously
// scheduled one (cyclically), breaking ties among a process's actions by
// kind then channel. It is fair and fully deterministic. It enumerates the
// enabled set, whose canonical order lists a process's deliveries by
// ascending channel before the timeout and its application action, so the
// first action of the nearest process is the tie-break.
type RoundRobinScheduler struct {
	last int
	buf  []Action // reused enumeration scratch
}

// NewRoundRobinScheduler returns the deterministic rotating scheduler.
func NewRoundRobinScheduler() *RoundRobinScheduler { return &RoundRobinScheduler{} }

// Next implements Scheduler.
func (r *RoundRobinScheduler) Next(s *Sim, as *ActionSet) Action {
	r.buf = as.AppendAll(r.buf[:0])
	if len(r.buf) == 0 {
		panic("sim: round-robin scheduler invoked with no enabled actions")
	}
	n := s.Tree.N()
	from := (r.last + 1) % n
	best, dist := 0, n
	for i, a := range r.buf {
		if d := (a.Proc - from + n) % n; d < dist {
			best, dist = i, d
		}
	}
	r.last = r.buf[best].Proc
	return r.buf[best]
}

// Pick is one entry of a scripted schedule: it selects an enabled action by
// kind, process, channel (or AnyCh) and — for deliveries — the kind of the
// message at the channel head (or 0 for any).
type Pick struct {
	Kind ActionKind
	Proc int
	Ch   int // AnyCh matches any channel
	Msg  message.Kind
}

// AnyCh makes a Pick match any channel.
const AnyCh = -1

// String renders the pick.
func (p Pick) String() string {
	return fmt.Sprintf("pick{%v p%d ch%d %v}", p.Kind, p.Proc, p.Ch, p.Msg)
}

// Deliver returns a Pick matching the delivery of a head message of kind k
// on channel ch of process p.
func Deliver(p, ch int, k message.Kind) Pick {
	return Pick{Kind: ActDeliver, Proc: p, Ch: ch, Msg: k}
}

// AppAct returns a Pick matching an application action at process p.
func AppAct(p int) Pick { return Pick{Kind: ActApp, Proc: p, Ch: AnyCh} }

// match resolves the pick against the enabled set by membership tests
// instead of a scan: a delivery tries the named channel, or for AnyCh every
// channel of the process in ascending order — the historical first-match
// order.
func (p Pick) match(s *Sim, actions *ActionSet) (Action, bool) {
	switch p.Kind {
	case ActDeliver:
		if p.Proc < 0 || p.Proc >= s.Tree.N() {
			return Action{}, false
		}
		lo, hi := p.Ch, p.Ch+1
		if p.Ch == AnyCh {
			lo, hi = 0, s.Tree.Degree(p.Proc)
		}
		for ch := lo; ch < hi; ch++ {
			a := Action{Kind: ActDeliver, Proc: p.Proc, Ch: ch}
			if actions.Contains(a) && (p.Msg == 0 || s.Peek(a).Kind == p.Msg) {
				return a, true
			}
		}
		return Action{}, false
	case ActTimeout:
		a := Action{Kind: ActTimeout, Proc: p.Proc}
		return a, actions.Contains(a)
	default:
		a := Action{Kind: ActApp, Proc: p.Proc}
		return a, actions.Contains(a)
	}
}

// ScriptScheduler replays an explicit, possibly looping, schedule — the tool
// used to reproduce the paper's hand-constructed executions (Figure 3's
// livelock). When the next pick matches no enabled action the script is
// declared broken: the scheduler either falls back to a delegate (if set) or
// panics with a diagnostic, so experiments notice immediately that the
// claimed execution is not reproducible.
type ScriptScheduler struct {
	// Prefix is played once before the script proper (setup actions).
	Prefix []Pick
	Script []Pick
	// Loop restarts the script (not the prefix) when it runs out.
	Loop bool
	// Fallback, if non-nil, takes over permanently after a mismatch.
	Fallback Scheduler

	prefixPos int
	pos       int
	cycles    int
	broken    bool
}

// NewScriptScheduler returns a scheduler replaying script, looping if loop.
func NewScriptScheduler(script []Pick, loop bool) *ScriptScheduler {
	return &ScriptScheduler{Script: script, Loop: loop}
}

// Cycles returns how many times the script has fully repeated.
func (ss *ScriptScheduler) Cycles() int { return ss.cycles }

// Broken reports whether the script failed to match at some step.
func (ss *ScriptScheduler) Broken() bool { return ss.broken }

// Next implements Scheduler.
func (ss *ScriptScheduler) Next(s *Sim, actions *ActionSet) Action {
	if ss.broken {
		return ss.fallback(s, actions, "script already broken")
	}
	fromPrefix := ss.prefixPos < len(ss.Prefix)
	if !fromPrefix && ss.pos >= len(ss.Script) {
		if ss.Loop && len(ss.Script) > 0 {
			ss.pos = 0
			ss.cycles++
		} else {
			return ss.fallback(s, actions, "script exhausted")
		}
	}
	var p Pick
	if fromPrefix {
		p = ss.Prefix[ss.prefixPos]
	} else {
		p = ss.Script[ss.pos]
	}
	if a, ok := p.match(s, actions); ok {
		if fromPrefix {
			ss.prefixPos++
		} else {
			ss.pos++
		}
		return a
	}
	return ss.fallback(s, actions, p.String()+" not enabled")
}

func (ss *ScriptScheduler) fallback(s *Sim, actions *ActionSet, why string) Action {
	ss.broken = true
	if ss.Fallback == nil {
		panic(fmt.Sprintf("sim: script broken at step %d: %s (enabled: %v)",
			ss.pos, why, actions.AppendAll(nil)))
	}
	return ss.Fallback.Next(s, actions)
}

// SlowPrioScheduler is the waiting-time adversary behind Theorem 2's worst
// case: the requesting target is only served once the priority token
// reaches it, so the adversary lets the priority token (and the target's
// own deliveries) advance only with probability Eps per step while everyone
// else runs at full speed. Waiting time scales roughly with 1/Eps until the
// ℓ(2n-3)² structure saturates. Eps > 0 keeps the schedule fair (every
// delivery eventually happens with probability 1).
type SlowPrioScheduler struct {
	Target int
	// Eps is the probability of picking a delayed action when faster ones
	// exist (default 1/64 if 0).
	Eps float64

	buf     []Action // reused enumeration scratch
	fastBuf []int    // reused classification scratch
	slowBuf []int
}

// NewSlowPrioScheduler returns the Theorem 2 adversary against target.
func NewSlowPrioScheduler(target int, eps float64) *SlowPrioScheduler {
	if eps <= 0 {
		eps = 1.0 / 64
	}
	return &SlowPrioScheduler{Target: target, Eps: eps}
}

// Next implements Scheduler. Only priority-token deliveries are delayed:
// everything else — in particular the pusher that evicts the target's
// partial reservations, and the resource tokens the evictions recycle to
// the other processes — runs at full speed. (Delaying deliveries *to* the
// target is self-defeating: every token transits every process once per
// virtual-ring lap, so a slow process throttles the whole system, FIFO
// queueing the pusher and controller behind the delayed tokens.) The rule
// examines only the enabled actions — a bounded population once the system
// stabilizes — enumerated in canonical order so the RNG stream matches the
// historical scan kernel draw for draw.
func (sp *SlowPrioScheduler) Next(s *Sim, as *ActionSet) Action {
	sp.buf = as.AppendAll(sp.buf[:0])
	actions := sp.buf
	fast, slow := sp.fastBuf[:0], sp.slowBuf[:0]
	for i, a := range actions {
		if a.Kind == ActDeliver && s.Peek(a).Kind == message.Prio {
			slow = append(slow, i)
			continue
		}
		fast = append(fast, i)
	}
	sp.fastBuf, sp.slowBuf = fast, slow
	if len(slow) > 0 && (len(fast) == 0 || s.Rand().Float64() < sp.Eps) {
		return actions[slow[s.Rand().Intn(len(slow))]]
	}
	if len(fast) > 0 {
		return actions[fast[s.Rand().Intn(len(fast))]]
	}
	return actions[s.Rand().Intn(len(actions))]
}

// AntiTargetScheduler is a rule-based adversary that tries to starve one
// target process of a k-unit request while remaining message-fair in
// practice: it prefers delivering the pusher to the target while the target
// has partial reservations (evicting them), deprioritizes resource-token
// deliveries that would complete the target's request, and otherwise picks
// uniformly. Against the pusher-only variant this sustains Figure 3's
// livelock pattern on suitable workloads; against the full protocol the
// priority token defeats it.
type AntiTargetScheduler struct {
	Target int

	buf          []Action // reused enumeration scratch
	preferredBuf []int    // reused classification scratch
	neutralBuf   []int
}

// NewAntiTargetScheduler returns an adversary against process target.
func NewAntiTargetScheduler(target int) *AntiTargetScheduler {
	return &AntiTargetScheduler{Target: target}
}

// Next implements Scheduler.
func (at *AntiTargetScheduler) Next(s *Sim, as *ActionSet) Action {
	at.buf = as.AppendAll(at.buf[:0])
	actions := at.buf
	node := s.Node(at.Target)
	starving := node.State() == core.Req && node.Reserved() < node.Need()
	preferred, neutral := at.preferredBuf[:0], at.neutralBuf[:0]
	for i, a := range actions {
		switch {
		case a.Kind == ActDeliver && a.Proc == at.Target:
			m := s.Peek(a)
			if m.Kind == message.Push && node.Reserved() > 0 && starving {
				// Evict the target's partial reservation first.
				preferred = append(preferred, i)
			} else if m.Kind == message.Res && starving && node.Reserved() == node.Need()-1 {
				// Completing delivery: only if nothing else remains.
				continue
			} else {
				neutral = append(neutral, i)
			}
		default:
			neutral = append(neutral, i)
		}
	}
	at.preferredBuf, at.neutralBuf = preferred, neutral
	if len(preferred) > 0 {
		return actions[preferred[s.Rand().Intn(len(preferred))]]
	}
	if len(neutral) > 0 {
		return actions[neutral[s.Rand().Intn(len(neutral))]]
	}
	return actions[s.Rand().Intn(len(actions))]
}
