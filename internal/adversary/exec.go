package adversary

import (
	"fmt"
	"math/rand"

	"kofl/internal/channel"
	"kofl/internal/message"
	"kofl/internal/sim"
)

// tokenKind maps an Event.Token name to the message kind (default res).
func tokenKind(name string) (message.Kind, error) {
	switch name {
	case "", "res":
		return message.Res, nil
	case "push":
		return message.Push, nil
	case "prio":
		return message.Prio, nil
	case "ctrl":
		return message.Ctrl, nil
	default:
		return 0, fmt.Errorf("adversary: unknown token kind %q (res|push|prio|ctrl)", name)
	}
}

// Executor replays a compiled Schedule against one simulation. Call
// BeforeStep immediately before every Sim.Step (or use Run): triggers whose
// step has arrived fire in schedule order, mutating the simulation through
// the tracked fault surfaces only. All randomness comes from a single RNG
// seeded with slotSeed + Script.RngOffset, so the fault sequence is a pure
// function of (script, topology, slot seed).
type Executor struct {
	s     *sim.Sim
	sched *Schedule
	rng   *rand.Rand

	all  []channel.Ref     // canonical whole-system channel enumeration
	sels map[int]selection // static selection per eventKey; random = unresolved

	next       int   // next trigger index
	fired      int64 // events actually applied
	suppressed int64 // events withheld by a budget
	lastFired  int64 // step of the last fired event (-1 = none)

	inst     map[int]*instBudget // per-phase-instance budget state
	stormRot map[int]int64       // rotation counter per storm event key
}

type instBudget struct {
	fired     int
	lastFired int64
}

// NewExecutor validates the schedule's targets against the simulation's
// topology and returns an executor drawing from slotSeed. The campaign
// layer validates scripts eagerly at grid expansion, so its executors
// cannot fail here; CLI callers surface the error to the user.
func NewExecutor(s *sim.Sim, sched *Schedule, slotSeed int64) (*Executor, error) {
	e := &Executor{
		s:         s,
		sched:     sched,
		rng:       rand.New(rand.NewSource(slotSeed + sched.Script.RngOffset)),
		all:       allChannels(s),
		sels:      make(map[int]selection),
		lastFired: -1,
		inst:      make(map[int]*instBudget),
		stormRot:  make(map[int]int64),
	}
	if err := sched.Script.ValidateFor(s.Tree); err != nil {
		return nil, err
	}
	for pi, ph := range sched.Script.Phases {
		for ei, ev := range ph.Events {
			if ev.Kind == "storm" {
				continue
			}
			if sel, ok := ev.Target.resolveStatic(s); ok {
				e.sels[eventKey(pi, ei)] = sel
			}
		}
	}
	return e, nil
}

// MustNewExecutor is NewExecutor for pre-validated scripts; it panics on
// error.
func MustNewExecutor(s *sim.Sim, sched *Schedule, slotSeed int64) *Executor {
	e, err := NewExecutor(s, sched, slotSeed)
	if err != nil {
		panic(err)
	}
	return e
}

// Fired returns how many events have been applied to the simulation.
func (e *Executor) Fired() int64 { return e.fired }

// Suppressed returns how many scheduled events a budget withheld.
func (e *Executor) Suppressed() int64 { return e.suppressed }

// BeforeStep fires every trigger whose step has arrived (Trigger.Step ≤
// Sim.Steps), in schedule order. It must be called before the step is
// executed, mirroring the historical storm loop's fire-then-step shape.
func (e *Executor) BeforeStep() {
	for e.next < len(e.sched.Triggers) && e.sched.Triggers[e.next].Step <= e.s.Steps {
		trig := e.sched.Triggers[e.next]
		e.next++
		e.fire(trig)
	}
}

// Run drives the simulation for at most steps scheduler steps with the
// schedule applied, stopping early when the simulation quiesces. It returns
// the number of steps executed.
func (e *Executor) Run(steps int64) int64 {
	var done int64
	for e.s.Steps < steps {
		e.BeforeStep()
		if !e.s.Step() {
			break
		}
		done++
	}
	return done
}

// eventKey identifies an event across phase instances (storm rotation
// state persists across repetitions, like the historical global counter).
func eventKey(phase, event int) int { return phase<<16 | event }

// fire applies one trigger, unless a budget suppresses it.
func (e *Executor) fire(trig Trigger) {
	sc := e.sched.Script
	ph := sc.Phases[trig.Phase]
	ib := e.inst[trig.Inst]
	if ib == nil {
		ib = &instBudget{lastFired: -1}
		e.inst[trig.Inst] = ib
	}
	now := e.s.Steps
	if !allowed(sc.Budget, int(e.fired), e.lastFired, now) ||
		!allowed(ph.Budget, ib.fired, ib.lastFired, now) {
		e.suppressed++
		return
	}
	e.apply(ph.Events[trig.Event], eventKey(trig.Phase, trig.Event))
	e.fired++
	e.lastFired = now
	ib.fired++
	ib.lastFired = now
}

// allowed evaluates one budget level against its fired count and last-fire
// step.
func allowed(b Budget, fired int, last, now int64) bool {
	if b.Events > 0 && fired >= b.Events {
		return false
	}
	if b.MinGap > 0 && last >= 0 && now-last < b.MinGap {
		return false
	}
	return true
}

// count resolves the event's fault magnitude, drawing jitter from the RNG.
func (e *Executor) count(ev Event) int {
	c := ev.Count
	if c <= 0 {
		c = 1
	}
	if ev.Jitter > 0 {
		c += e.rng.Intn(ev.Jitter + 1)
	}
	return c
}

// apply executes one event against the simulation.
func (e *Executor) apply(ev Event, key int) {
	s, rng := e.s, e.rng
	if ev.Kind == "storm" {
		e.stormRot[key]++
		stormTick(s, rng, e.stormRot[key])
		return
	}
	sel, ok := e.sels[key]
	if !ok { // random target: re-resolved from the RNG at every firing
		sel = ev.Target.resolveRandom(s, rng, e.all)
	}
	switch ev.Kind {
	case "corrupt":
		CorruptStates(s, rng, sel.procs) // nil = every process
	case "drop":
		kind, _ := tokenKind(ev.Token) // validated
		DropTokens(s, rng, kind, e.count(ev), sel.chans)
	case "duplicate":
		kind, _ := tokenKind(ev.Token)
		DuplicateTokens(s, rng, kind, e.count(ev), sel.chans)
	case "inject":
		kind, _ := tokenKind(ev.Token)
		InjectTokens(s, rng, kind, e.count(ev), sel.chans)
	case "garbage":
		per := ev.Count
		if per <= 0 {
			per = s.Cfg.CMAX
		}
		if ev.Jitter > 0 {
			per += e.rng.Intn(ev.Jitter + 1)
		}
		GarbageChannels(s, rng, per, sel.chans)
	case "reorder":
		ReorderChannels(s, rng, e.count(ev), sel.chans)
	}
}

// stormTick is the historical rotating storm from the campaign engine's
// FaultSpec path, kept draw-for-draw identical so legacy storm columns
// replay byte-identically through the adversary engine (rot starts at 1 on
// the first firing, so the rotation opens with a duplication burst exactly
// as the old loop did).
func stormTick(s *sim.Sim, rng *rand.Rand, rot int64) {
	switch rot % 4 {
	case 0:
		DropTokens(s, rng, message.Res, 1+rng.Intn(3), nil)
	case 1:
		DuplicateTokens(s, rng, message.Res, 1+rng.Intn(3), nil)
	case 2:
		CorruptStates(s, rng, []int{rng.Intn(s.Tree.N()), rng.Intn(s.Tree.N())})
	case 3:
		GarbageChannels(s, rng, 3, nil)
	}
}
