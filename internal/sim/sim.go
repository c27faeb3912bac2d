// Package sim is the deterministic asynchronous message-passing kernel the
// experiments run on.
//
// The model follows the paper: processes communicate over reliable FIFO
// channels; executions are asynchronous but fair. Asynchrony is realized by
// an adversarial Scheduler that, at every step, picks one enabled action —
// delivering the head message of some channel, firing the root's timeout, or
// letting an application act (issue a request / finish its critical
// section). A run is a pure function of (topology, config, seed, scheduler),
// so every experiment is reproducible.
//
// # Incremental enabled-action kernel
//
// The kernel does NOT rescan channels and applications every step. It keeps
// a persistent ActionSet maintained incrementally: channels report emptiness
// transitions through an OnEmptiness hook, the root-timeout bit is synced
// from the clock in O(1), and applications register wake times (App.WakeAt)
// instead of being polled — so a step costs O(changes), amortized O(1) for
// the protocol's bounded token population, instead of O(E+n).
//
// # Enumeration-order determinism contract
//
// The ActionSet enumerates enabled actions in exactly the order the
// historical full-scan kernel produced: deliveries lexicographic by
// (receiver, channel), then the timeout, then application actions by
// process id. Schedulers draw from the set only through order-respecting
// accessors, so every seeded run reproduces byte-identically regardless of
// how the set is maintained. Options.FullRescan selects the legacy rebuild-
// every-step oracle; the differential tests run both kernels side by side
// and assert identical action sequences.
//
// # Incremental census kernel
//
// The global token census (Census) is likewise maintained incrementally:
// every channel maintains a shared per-kind population counter
// (channel.Counts) inline on every content change, and every kernel entry
// point into a node (delivery, timeout, Handle calls, RestoreNode) folds the
// node-state delta into the persistent census — so reading the census each
// step is O(1) instead of O(n + channels). Monitors in internal/checker
// consume the maintained value. Options.ScanCensus selects the legacy
// recompute-on-read snapshot as the differential oracle, exactly as
// Options.FullRescan does for scheduling.
//
// # Memory model
//
// The simulator state is laid out for the big-n regime: node protocol
// variables live in one shared struct-of-arrays store (core.Vars), all
// directed channels live in a single dense slice indexed by deliver ordinal
// (the CSR layout of the ActionSet's ordinal space), channel rings draw from
// one shared channel.Arena, and the per-process Env/App adapters are value
// slices. Steady-state stepping performs zero heap allocations; see
// docs/ARCHITECTURE.md ("Memory model").
//
// # Fault-injection resync rule
//
// Out-of-band mutations must keep the ActionSet and the census in sync.
// Mutating channel contents through the channel API (Push/Pop/Seed/Replace)
// is always safe — the emptiness hooks and population counters fire.
// Corrupting process state through Sim.RestoreNode is likewise tracked. Any
// other out-of-band change must be followed by a call to Sim.ResyncActions
// (which also resyncs the census) or Sim.ResyncCensus, both of which rebuild
// from a full scan.
//
// See docs/ARCHITECTURE.md at the repository root for how the two kernels,
// the determinism contract and the differential oracles fit together.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"kofl/internal/channel"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/obs"
	"kofl/internal/tree"
)

// ActionKind classifies schedulable steps.
type ActionKind uint8

const (
	// ActDeliver delivers the head message of the channel into (Proc, Ch).
	ActDeliver ActionKind = iota
	// ActTimeout fires the root's retransmission timeout.
	ActTimeout
	// ActApp lets the application at Proc take its pending action.
	ActApp
)

// Action is one enabled step the scheduler can pick.
type Action struct {
	Kind ActionKind
	Proc int
	Ch   int
}

// String renders the action for scripts and traces.
func (a Action) String() string {
	switch a.Kind {
	case ActDeliver:
		return fmt.Sprintf("deliver(p%d,ch%d)", a.Proc, a.Ch)
	case ActTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("app(p%d)", a.Proc)
	}
}

// Scheduler picks the next action among the enabled ones; it is the
// asynchrony adversary. It draws from the persistent ActionSet — by
// canonical index (At), full enumeration (AppendAll), or the structured
// queries (NextProc, MinDeliver, ...) — and returns the chosen action, which
// must be enabled. Sim.Peek lets rule-based adversaries match on the message
// a deliver action would deliver.
type Scheduler interface {
	Next(s *Sim, actions *ActionSet) Action
}

// Handle is the application's lever on its own process, passed to App.Act.
type Handle interface {
	// ID returns the process id.
	ID() int
	// Now returns the current simulation clock.
	Now() int64
	// Request issues a request for need units (Out→Req).
	Request(need int) error
	// Poll re-runs the protocol's local actions, e.g. after the application
	// finished its critical section.
	Poll()
}

// App is a simulated application driving one process. It extends the
// protocol-facing core.App with the scheduling side: Enabled reports whether
// the application wants to act, and Act performs the action when the
// scheduler grants it a step. Enabled must be side-effect free: the kernel
// polls it at times of its choosing.
//
// WakeAt is what lets the kernel not poll every step. When the application
// is disabled, WakeAt(now) returns the earliest clock value at which Enabled
// may become true without any further protocol or application event at the
// process — or NoWake if only events can enable it. It is a contract:
// between an event at the process and the returned wake time, Enabled must
// not change; and once enabled, the application must stay enabled until its
// next event (Act, EnterCS, or a Handle call).
type App interface {
	core.App
	Enabled(now int64) bool
	Act(h Handle)
	WakeAt(now int64) int64
}

// NoWake is the WakeAt return value for "enablement is purely event-driven":
// no clock advance alone can enable this application.
const NoWake int64 = math.MaxInt64

// Options configures a simulation.
type Options struct {
	// Seed drives all randomness (scheduler tie-breaks, random scheduler).
	Seed int64
	// Scheduler defaults to NewRandomScheduler().
	Scheduler Scheduler
	// TimeoutTicks is the root's retransmission timeout in simulation steps;
	// 0 selects a topology-derived default generous enough that the timeout
	// never fires in steady state (paper footnote 4).
	TimeoutTicks int64
	// Observer additionally receives every protocol event (may be nil).
	Observer core.Observer
	// FullRescan selects the legacy O(E+n) kernel that rebuilds the enabled-
	// action set from a full scan every step. It exists as the differential-
	// testing oracle and the before-side of the step-throughput benchmark;
	// the incremental kernel is bit-for-bit equivalent and strictly faster.
	FullRescan bool
	// ScanCensus selects the legacy O(n + channels) census that Census()
	// recomputes from a full snapshot on every call, instead of the
	// incrementally maintained one. Like FullRescan it exists as the
	// differential-testing oracle and the before-side of the census-
	// throughput benchmark; the maintained census is value-identical.
	ScanCensus bool
	// Obs, when non-nil, registers the kofl_sim_* instrumentation series on
	// it: the kernel counters and the maintained census bridged as func
	// metrics (zero per-step cost) plus OverK-violation and stabilization
	// window counters. The per-step cost is a few field compares; the
	// zero-allocation stepping contract holds with Obs enabled.
	Obs *obs.Registry
	// Journal, when non-nil, receives structured stabilization telemetry
	// stamped at the simulation clock: legitimacy transitions
	// (stabilized/destabilized) and OverK violation open/close windows.
	// Usable with or without Obs.
	Journal *obs.Journal
}

// DefaultTimeoutTicks returns the default retransmission timeout for a tree
// with the given ring length and ℓ: roughly 16 worst-case controller
// circulations under a fair random scheduler.
func DefaultTimeoutTicks(ringLen, l int) int64 {
	return int64(16 * ringLen * (l + 4))
}

// wake is one pending application wake-up: proc re-polls at clock `at`.
type wake struct {
	at   int64
	proc int32
}

// Sim is one simulated system.
type Sim struct {
	Tree  *tree.Tree
	Cfg   core.Config
	Nodes []*core.Node
	Apps  []App

	// Channel storage in CSR form: chans[ord] is the channel whose delivery
	// is deliver ordinal ord of the ActionSet — i.e. the channel INTO
	// (receiver, label) in lexicographic order. outOrd maps a sender-side
	// ordinal (base[p]+ch, p's outgoing channel ch) to the index of that
	// same directed channel in chans. One dense slice for all 2(n-1)
	// channels instead of two n-sized tables of pointers.
	chans  []channel.Channel
	outOrd []int32

	nodeBuf []core.Node // backing array of Nodes
	vars    *core.Vars  // shared struct-of-arrays protocol state
	envs    []env       // per-process core.Env adapters (pointed into)
	handles []handle    // per-process Handle values (pointed into, no boxing)
	arena   *channel.Arena

	clock        int64
	rng          *rand.Rand
	sched        Scheduler
	randSched    bool // sched is the stateless RandomScheduler: pick inline
	timeoutTicks int64
	lastRestart  int64

	observers []core.Observer

	// The incremental scheduling kernel.
	actions *ActionSet
	wakes   []wake  // min-heap on at; stale entries skipped via wakeAt
	wakeAt  []int64 // wakeAt[p]: registered wake time (NoWake = none)
	rescan  bool    // Options.FullRescan

	// The incremental census kernel (see census.go). The channel-side
	// populations live in counts (maintained inline by every channel); the
	// node-side fields live in census and are folded by trackNode.
	counts     channel.Counts
	census     Census
	scanCensus bool   // Options.ScanCensus
	tracked    []bool // trackNode reentrancy guard, one flag per process

	// Counters.
	Steps      int64
	Delivered  [8]int64 // by message.Kind; only Res..Ctrl (1..4) are used
	Timeouts   int64
	AppActions int64

	// LastAction is the most recently executed action; when it is a
	// delivery, LastMsg is the message that was delivered. Step hooks read
	// them to observe the execution.
	LastAction Action
	LastMsg    message.Message

	stepHooks []func(*Sim)
	obsSt     *obsState // Options.Obs/Journal instrumentation (nil: off)
}

// AddStepHook registers f to run after every executed step.
func (s *Sim) AddStepHook(f func(*Sim)) { s.stepHooks = append(s.stepHooks, f) }

// New builds a simulation of cfg over t. Every process starts in the zero
// protocol state with empty channels (itself an arbitrary configuration —
// with the controller enabled the system bootstraps via the root timeout).
// Apps are attached separately; processes without one never request.
func New(t *tree.Tree, cfg core.Config, opts Options) (*Sim, error) {
	cfg.N = t.N()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := t.N()
	s := &Sim{
		Tree:         t,
		Cfg:          cfg,
		Nodes:        make([]*core.Node, n),
		Apps:         make([]App, n),
		rng:          rand.New(rand.NewSource(opts.Seed)),
		sched:        opts.Scheduler,
		timeoutTicks: opts.TimeoutTicks,
		arena:        channel.NewArena(),
		actions:      newActionSet(t),
		wakeAt:       make([]int64, n),
		wakes:        make([]wake, 0, n),
		rescan:       opts.FullRescan,
		scanCensus:   opts.ScanCensus,
		tracked:      make([]bool, n),
	}
	for p := range s.wakeAt {
		s.wakeAt[p] = NoWake
	}
	if s.sched == nil {
		s.sched = NewRandomScheduler()
	}
	_, s.randSched = s.sched.(*RandomScheduler)
	if s.timeoutTicks <= 0 {
		s.timeoutTicks = DefaultTimeoutTicks(t.RingLen(), cfg.L)
	}
	// Channels, CSR-indexed by deliver ordinal.
	e := s.actions.e
	s.chans = make([]channel.Channel, e)
	s.outOrd = make([]int32, e)
	emptiness := s.chanEmptiness // one method value shared by all channels
	for p := 0; p < n; p++ {
		for ch := 0; ch < t.Degree(p); ch++ {
			q := t.Neighbor(p, ch)
			toCh := t.ChannelTo(q, p)
			ord := s.actions.ordDeliver(q, toCh)
			c := &s.chans[ord]
			c.From, c.FromCh, c.To, c.ToCh = p, ch, q, toCh
			s.outOrd[s.actions.ordDeliver(p, ch)] = int32(ord)
			c.SetArena(s.arena)
			if !s.rescan {
				c.OnEmptinessTagged(emptiness, int32(ord))
			}
			if !s.scanCensus {
				c.SetCounts(&s.counts)
			}
		}
	}
	// Nodes over one shared struct-of-arrays store.
	vars, err := core.NewVars(cfg, n)
	if err != nil {
		return nil, err
	}
	s.vars = vars
	s.nodeBuf = make([]core.Node, n)
	s.envs = make([]env, n)
	s.handles = make([]handle, n)
	for p := 0; p < n; p++ {
		s.Apps[p] = nopApp{}
		s.envs[p] = env{s: s, p: p, ob: s.actions.base[p]}
		s.handles[p] = handle{s, p}
		node, err := vars.Bind(p, p, t.Degree(p), t.IsRoot(p), nopApp{})
		if err != nil {
			return nil, err
		}
		s.nodeBuf[p] = node
		s.Nodes[p] = &s.nodeBuf[p]
		s.pollApp(p)
	}
	if opts.Observer != nil {
		s.AddObserver(opts.Observer)
	}
	if opts.Obs != nil || opts.Journal != nil {
		s.initObs(opts.Obs, opts.Journal)
	}
	return s, nil
}

// MustNew is New but panics on error; for tests and fixtures.
func MustNew(t *tree.Tree, cfg core.Config, opts Options) *Sim {
	s, err := New(t, cfg, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// chanEmptiness is the shared channel emptiness hook: the tag is the
// channel's deliver ordinal.
func (s *Sim) chanEmptiness(ord int32, nonempty bool) {
	s.actions.set(int(ord), nonempty)
}

// nopApp is the default application: never requests, never acts.
type nopApp struct{ core.NopApp }

func (nopApp) Enabled(int64) bool { return false }
func (nopApp) Act(Handle)         {}
func (nopApp) WakeAt(int64) int64 { return NoWake }

// AttachApp installs the application driving process p. The node's EnterCS/
// ReleaseCS callbacks are rebound directly to the application — no shim layer
// on that hot path — so apps MUST be attached through here, never by writing
// Apps[p].
func (s *Sim) AttachApp(p int, app App) {
	s.Apps[p] = app
	s.nodeBuf[p].SetApp(app)
	s.wakeAt[p] = NoWake
	s.pollApp(p)
}

// AddObserver registers an additional protocol-event monitor. The node-side
// event fanout is only installed once the first observer registers, so
// unobserved simulations skip event construction entirely.
func (s *Sim) AddObserver(o core.Observer) {
	s.observers = append(s.observers, o)
	if len(s.observers) == 1 {
		for _, n := range s.Nodes {
			n.SetObserver(s.fanout)
		}
	}
}

func (s *Sim) fanout(e core.Event) {
	for _, o := range s.observers {
		o(e)
	}
}

// env implements core.Env for one process. ob caches the process's first
// sender-side ordinal so Send is two array indexes off the cached value.
type env struct {
	s  *Sim
	p  int
	ob int32 // base[p]: first sender-side ordinal of p
}

func (e *env) Send(ch int, m message.Message) {
	s := e.s
	s.chans[s.outOrd[int(e.ob)+ch]].Push(m)
}

func (e *env) RestartTimer() {
	if e.s.Tree.IsRoot(e.p) {
		e.s.lastRestart = e.s.clock
	}
}

// handle implements Handle for one process (applications act through it).
type handle struct {
	s *Sim
	p int
}

func (h handle) ID() int    { return h.p }
func (h handle) Now() int64 { return h.s.clock }
func (h handle) Request(need int) error {
	d := h.s.beginTrack(h.p)
	err := h.s.Nodes[h.p].Request(&h.s.envs[h.p], need)
	h.s.endTrack(h.p, d)
	h.s.pollApp(h.p)
	return err
}
func (h handle) Poll() {
	d := h.s.beginTrack(h.p)
	h.s.Nodes[h.p].Poll(&h.s.envs[h.p])
	h.s.endTrack(h.p, d)
	h.s.pollApp(h.p)
}

// Handle returns the application lever of process p. The paper's execution
// model admits transitions in which "an external application modifies an
// input variable", so driving requests through a Handle from outside the
// scheduler is a legal execution.
func (s *Sim) Handle(p int) Handle { return &s.handles[p] }

// Now returns the simulation clock (number of executed steps, plus timeout
// fast-forwards).
func (s *Sim) Now() int64 { return s.clock }

// TimeoutTicks returns the effective retransmission timeout.
func (s *Sim) TimeoutTicks() int64 { return s.timeoutTicks }

// In returns the incoming channel of p with label ch.
func (s *Sim) In(p, ch int) *channel.Channel {
	return &s.chans[s.actions.ordDeliver(p, ch)]
}

// Out returns the outgoing channel of p with label ch.
func (s *Sim) Out(p, ch int) *channel.Channel {
	return &s.chans[s.outOrd[s.actions.ordDeliver(p, ch)]]
}

// Channels calls f on every directed channel, in sender-lexicographic
// (From, FromCh) order — the historical iteration order fault injectors'
// target resolution depends on.
func (s *Sim) Channels(f func(*channel.Channel)) {
	for _, ord := range s.outOrd {
		f(&s.chans[ord])
	}
}

// Rand exposes the simulation RNG (for schedulers).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// scanEnabled appends all currently enabled actions to dst in canonical
// order and returns it: the historical full scan, kept as the oracle for
// ResyncActions, the FullRescan kernel, and the differential/fuzz tests.
func (s *Sim) scanEnabled(dst []Action) []Action {
	for ord := range s.chans {
		if s.chans[ord].Len() > 0 {
			dst = append(dst, s.actions.actionOf(ord))
		}
	}
	if s.timerExpired() {
		dst = append(dst, Action{Kind: ActTimeout, Proc: s.Tree.Root()})
	}
	for p, a := range s.Apps {
		if a.Enabled(s.clock) {
			dst = append(dst, Action{Kind: ActApp, Proc: p})
		}
	}
	return dst
}

func (s *Sim) timerExpired() bool {
	return s.Cfg.Features.Controller && s.clock-s.lastRestart >= s.timeoutTicks
}

// pollApp re-evaluates process p's application enablement and updates the
// ActionSet: the dirty-flag path, called after every event that can change
// enablement (the app acted, its node handled a message or timeout, a Handle
// call, attachment) and at registered wake times. A disabled app registers
// its next wake.
func (s *Sim) pollApp(p int) {
	if s.rescan {
		return
	}
	app := s.Apps[p]
	ord := s.actions.ordApp(p)
	if app.Enabled(s.clock) {
		s.actions.add(ord)
		return
	}
	s.actions.remove(ord)
	t := app.WakeAt(s.clock)
	if t == NoWake {
		s.wakeAt[p] = NoWake // stale heap entries are skipped on pop
		return
	}
	if t <= s.clock {
		// Contract violation (disabled now but "wakeable" in the past);
		// stay safe by re-checking on the next step.
		t = s.clock + 1
	}
	if s.wakeAt[p] != t {
		s.wakeAt[p] = t
		wakePush(&s.wakes, wake{at: t, proc: int32(p)})
	}
}

// syncActions brings the ActionSet up to date with the clock: the timeout
// bit and the applications whose wake time arrived. In FullRescan mode it
// instead rebuilds the whole set from a scan.
func (s *Sim) syncActions() {
	if s.rescan {
		s.rebuildFromScan()
		return
	}
	s.actions.set(s.actions.ordTimeout(), s.timerExpired())
	for len(s.wakes) > 0 && s.wakes[0].at <= s.clock {
		w := wakePop(&s.wakes)
		p := int(w.proc)
		if s.wakeAt[p] == w.at {
			s.wakeAt[p] = NoWake
			s.pollApp(p)
		}
	}
}

// scanDelivers re-adds every non-empty channel's deliver ordinal: the
// deliver half of a full rebuild, shared by the scan oracle and the resync
// path so their enablement criterion cannot drift apart.
func (s *Sim) scanDelivers() {
	for ord := range s.chans {
		if s.chans[ord].Len() > 0 {
			s.actions.add(ord)
		}
	}
}

// rebuildFromScan reconstructs the ActionSet from a full scan.
func (s *Sim) rebuildFromScan() {
	s.actions.clear()
	s.scanDelivers()
	if s.timerExpired() {
		s.actions.add(s.actions.ordTimeout())
	}
	for p, a := range s.Apps {
		if a.Enabled(s.clock) {
			s.actions.add(s.actions.ordApp(p))
		}
	}
}

// ResyncActions rebuilds the enabled-action set — and the maintained census
// — from a full scan. Channel mutations through the channel API and
// application events through Handles keep both in sync automatically; call
// this after any OTHER out-of-band change that could affect enablement (the
// fault-injection resync rule).
func (s *Sim) ResyncActions() {
	s.ResyncCensus()
	if s.rescan {
		s.rebuildFromScan()
		return
	}
	s.actions.clear()
	s.scanDelivers()
	s.actions.set(s.actions.ordTimeout(), s.timerExpired())
	for p := range s.Apps {
		s.pollApp(p)
	}
}

// Peek returns the message an ActDeliver action would deliver. It panics for
// other action kinds.
func (s *Sim) Peek(a Action) message.Message {
	if a.Kind != ActDeliver {
		panic("sim: Peek on non-deliver action")
	}
	return s.chans[s.actions.ordDeliver(a.Proc, a.Ch)].Peek()
}

// Step executes one scheduler-chosen action. It returns false when the
// system is quiescent: nothing to deliver, no application wants to act, and
// — in variants with the controller — even after fast-forwarding the clock
// to the next timeout there would be nothing to do (which cannot happen, as
// the timeout itself becomes enabled; so with the controller Step only
// returns false if the scheduler misbehaves).
func (s *Sim) Step() bool {
	s.syncActions()
	if s.actions.Len() == 0 {
		if !s.Cfg.Features.Controller {
			return false
		}
		// Quiescent but self-stabilizing: fast-forward to the timeout. Only
		// the timeout is presented this step — applications whose wake time
		// falls inside the jump surface at the next step's sync, exactly as
		// under the scan kernel, which scanned before the jump and forced
		// the timeout alone.
		s.clock = s.lastRestart + s.timeoutTicks
		s.actions.add(s.actions.ordTimeout())
	}
	var a Action
	if s.randSched {
		// Inlined RandomScheduler.Next: same draw, no interface dispatch.
		a = s.actions.At(s.rng.Intn(s.actions.Len()))
	} else {
		a = s.sched.Next(s, s.actions)
		if !s.actions.Contains(a) {
			panic(fmt.Sprintf("sim: scheduler picked disabled action %v", a))
		}
	}
	s.clock++
	s.Steps++
	s.LastAction = a
	s.LastMsg = message.Message{}
	switch a.Kind {
	case ActDeliver:
		d := s.beginTrack(a.Proc)
		m := s.chans[s.actions.ordDeliver(a.Proc, a.Ch)].Pop()
		if m.Kind.Valid() {
			s.Delivered[m.Kind&7]++
		}
		s.LastMsg = m
		s.Nodes[a.Proc].HandleMessage(a.Ch, m, &s.envs[a.Proc])
		s.endTrack(a.Proc, d)
	case ActTimeout:
		s.Timeouts++
		d := s.beginTrack(a.Proc)
		s.Nodes[a.Proc].HandleTimeout(&s.envs[a.Proc])
		s.endTrack(a.Proc, d)
	case ActApp:
		s.AppActions++
		s.Apps[a.Proc].Act(&s.handles[a.Proc])
	}
	// The executed action is the only place application enablement can have
	// changed without a channel hook or Handle call firing (EnterCS during a
	// delivery, the app's own Act): re-evaluate just that process.
	s.pollApp(a.Proc)
	if o := s.obsSt; o != nil {
		// Hand-inlined obsStep fast path: in steady state neither predicate
		// changes, so instrumentation costs these loads and compares only
		// (the 2% overhead budget, docs/ARCHITECTURE.md "Observability").
		if s.scanCensus {
			s.obsStepScan()
		} else {
			overK := s.census.OverK > 0
			legit := s.counts.Kinds[message.Res]+int64(s.census.ReservedRes) == o.l &&
				(!o.pusher || s.counts.Kinds[message.Push] == 1) &&
				(!o.priority || s.counts.Kinds[message.Prio]+int64(s.census.HeldPrio) == 1) &&
				s.counts.ResetCtrl == 0 && !o.root.ResetFlag()
			if overK != o.prevOverK || legit != o.prevLegit {
				s.obsTransition(overK, legit,
					int64(s.census.OverK), int64(s.census.UnitsInUse),
					s.counts.Kinds[message.Res]+int64(s.census.ReservedRes))
			}
		}
	}
	for _, f := range s.stepHooks {
		f(s)
	}
	return true
}

// Run executes at most steps actions, stopping early when quiescent. It
// returns the number of actions executed.
func (s *Sim) Run(steps int64) int64 {
	var done int64
	for done < steps && s.Step() {
		done++
	}
	return done
}

// RunUntil executes actions until pred holds (checked after every step), the
// budget is exhausted, or the system quiesces. It reports whether pred held.
func (s *Sim) RunUntil(steps int64, pred func() bool) bool {
	if pred() {
		return true
	}
	for i := int64(0); i < steps; i++ {
		if !s.Step() {
			return pred()
		}
		if pred() {
			return true
		}
	}
	return false
}

// Quiescent reports whether no action is currently enabled (ignoring the
// controller's ability to fast-forward to a timeout).
func (s *Sim) Quiescent() bool {
	s.syncActions()
	return s.actions.Len() == 0
}

// wakePush inserts w into the min-heap on at.
func wakePush(h *[]wake, w wake) {
	*h = append(*h, w)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].at <= (*h)[i].at {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// wakePop removes and returns the minimum element.
func wakePop(h *[]wake) wake {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < n && old[l].at < old[small].at {
			small = l
		}
		if r < n && old[r].at < old[small].at {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}
