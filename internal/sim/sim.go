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
// transitions through their hub's hook, the root timeout is compared with
// the clock in O(1), and applications register wake times (App.WakeAt)
// instead of being polled, and are re-read only after an event at them — so
// a step costs O(changes), amortized O(1) for the protocol's bounded token
// population, instead of O(E+n). The kernel remembers whether the timeout
// and each application are in the set (Sim.timeoutOn, the appOn value of
// proc.wakeAt) and calls the set only when that changes. The set itself is
// as small as that population — ℓ resource tokens, a pusher, a priority
// token, a controller — so it is kept as a sorted array of at most smallCap
// entries, and moves to bitmaps under a count hierarchy only while it is
// larger: the start-up drain, arbitrary-start garbage, fault storms on big
// trees (see ActionSet).
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
// every channel maintains its hub's per-kind population counter
// (channel.Counts) inline on every content change, and every kernel entry
// point into a node (delivery, timeout, Handle calls, RestoreNode) folds the
// node-state delta into the persistent census — so reading the census each
// step is O(1) instead of O(n + channels). Monitors in internal/checker
// consume the maintained value through Health, which copies nothing and
// applies the one population rule, core.Config.LegitimatePopulation; the
// kernel itself reads no census per step (Options.Obs is scrape-time func
// metrics only). Options.ScanCensus selects the legacy
// recompute-on-read snapshot as the differential oracle, exactly as
// Options.FullRescan does for scheduling.
//
// # Memory model
//
// A delivery reads one 32-byte line for the process, which holds only what
// differs between processes (its application, wake time, id and first table
// index; two lines share a cache line), and its 24-byte protocol slot in
// core.Vars, and one 16-byte, pointer-free header per channel end — the one
// it pops and the one it pushes to, four to a line. What every process
// shares lives once: the kernel builds the core.Node view per call from the
// line, the one core.Vars and the next line's first index (the degree), and
// hands the node and the application the one port the Sim keeps (Sim.env).
// The messages in flight live in the channel.Hub's one store, a few dozen
// nodes in steady state whatever n is, together with what else the channels
// share. A channel's receiver id and label are read off the receiver's
// process line (its id and first table index), and its ordinal is one
// per-slot offset plus its table index; no table copies what the line
// holds. The wake heap starts at smallCap entries and
// grows to the most applications asleep at once, a handful in steady state
// whatever n is. Tokens only move along the virtual ring, so what a step
// costs at big n is the ORDER of those lines: the simulator keeps two
// numberings apart. Ids are tree labels — every API, event, trace and
// scheduler, and the canonical enumeration order above, speak ids. Slots are
// DFS-preorder positions, the order in which a token lap first reaches each
// process; every table a step touches (procs, the core.Vars slots, the
// per-slot ordinal offsets, the wake heap, the census bracket) is indexed by
// slot, and the channel table is CSR by receiver slot, so a lap walks memory
// forward instead of landing on a random label's line. The mapping is the
// identity on chains, stars and any tree already labelled in preorder; the
// id→slot table is read only at the API boundary and by the dense action
// set's decode. Steady-state stepping performs zero heap
// allocations; see docs/ARCHITECTURE.md ("Memory model").
//
// # Fault-injection resync rule
//
// Out-of-band mutations must keep the ActionSet and the census in sync.
// Mutating channel contents through the channel API (Push/Pop/Seed/Replace)
// is always safe — the hub's emptiness hook and population counter fire.
// Corrupting process state through Sim.RestoreNode is likewise tracked. Any
// other out-of-band change must be followed by a call to Sim.ResyncActions,
// which rebuilds the set and the census from a full scan.
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
// canonical index (Len, At), full enumeration (AppendAll) or a membership
// test (Contains) — and returns the chosen action, which must be enabled.
// Sim.Peek lets rule-based adversaries match on the message a deliver action
// would deliver.
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
//
// The kernel relies on it: it polls after an event delivered to the
// application and at the wake time, and never after a step that delivered
// the application no event — a delivery or timeout at its process that did
// not call EnterCS leaves it unpolled. An application that breaks the
// contract is therefore not noticed until its next event (or its wake time;
// a wake time at or before the clock is re-checked on the next step). A poll
// calls WakeAt before Enabled, in the step of the event, under either kernel:
// an application that keeps no clock (workload.Cycle) may date an EnterCS by
// the first WakeAt after it.
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
	// FullRescan selects the legacy O(E+n) kernel that rebuilds the enabled-
	// action set from a full scan every step, re-reading every application's
	// Enabled. It exists as the differential-testing oracle; the incremental
	// kernel is bit-for-bit equivalent and strictly faster.
	FullRescan bool
	// ScanCensus selects the legacy O(n + channels) census that Census()
	// recomputes from a full snapshot on every call, instead of the
	// incrementally maintained one. Like FullRescan it exists as the
	// differential-testing oracle; the maintained census is value-identical.
	ScanCensus bool
	// Obs, when non-nil, registers the kofl_sim_* instrumentation series on
	// it: the kernel counters, the action set and the maintained census
	// bridged as func metrics, read at scrape time. It does no per-step
	// work; legitimacy and safety over a run are the checker monitors' to
	// read.
	Obs *obs.Registry
}

// DefaultTimeoutTicks returns the default retransmission timeout for a tree
// with the given ring length and ℓ: roughly 16 worst-case controller
// circulations under a fair random scheduler.
func DefaultTimeoutTicks(ringLen, l int) int64 {
	return int64(16 * ringLen * (l + 4))
}

// wake is one pending application wake-up: the process at slot re-polls at
// clock `at`.
type wake struct {
	at   int64
	slot int32
}

// proc is what a step reads about one process besides its protocol slot in
// core.Vars: only what differs between processes — the application, the
// registered wake time, the id and the table index of the first channel into
// it — in 32 bytes, two to a cache line (TestProcIsOneLine pins the size).
// Sim.procs holds them by slot. What every process shares (the store, the
// simulator) lives once in Sim; a process's degree is the distance to the next
// line's first channel (deg), and its rootness is slot 0. The kernel builds
// the core.Node view per call from the line (view).
type proc struct {
	app    core.App // the application, always a sim.App (New binds nopApp, AttachApp an App)
	wakeAt int64    // registered wake time (NoWake = none), or appOn
	id     int32
	ob     int32 // table index of the first channel into the process
}

// simApp returns the process's application as the kernel drives it.
func (pr *proc) simApp() App { return pr.app.(App) }

// appOn is the proc.wakeAt value of a process whose application ordinal is in
// the ActionSet: an enabled application has no wake time to register, and the
// line a step is already on then says whether the set must change. No clock
// value equals it, so heap entries left behind are skipped as stale.
const appOn int64 = math.MinInt64

// Sim is one simulated system.
type Sim struct {
	Tree *tree.Tree
	Cfg  core.Config

	// Channel storage in CSR form by receiver slot: chans is the hub's
	// header table, laid out by the ActionSet — chans[procs[s].ob+ch] is
	// the channel INTO the process at slot s with label ch, and its Rev the
	// index of the channel OUT of it with label ch. One dense slice of
	// 16-byte headers for all 2(n-1) channels; their messages live in the
	// hub's store.
	chans []channel.Channel

	hub *channel.Hub // owns the channels: table, message store, counts, emptiness hook

	procs []proc     // one line per process, by slot
	vars  *core.Vars // the protocol slots the node views index, by slot
	env   port       // the endpoint the kernel hands the process it steps

	clock        int64
	rng          *rand.Rand
	sched        Scheduler
	randSched    bool // sched is the stateless RandomScheduler: pick inline
	timeoutTicks int64
	lastRestart  int64

	observers []core.Observer

	// The incremental scheduling kernel.
	actions   *ActionSet
	timeoutOn bool   // the timeout ordinal is in actions
	wakes     []wake // min-heap on at; stale entries skipped via proc.wakeAt
	rescan    bool   // Options.FullRescan
	acting    int32  // slot whose application is inside Act (-1: none)

	// The incremental census kernel (see census.go). The channel-side
	// populations live in hub.Counts (maintained inline by every channel);
	// the node-side fields live in census and are folded by trackNode.
	census     Census
	scanCensus bool    // Options.ScanCensus
	tracking   []int32 // slots inside a trackNode bracket, innermost last

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
		rng:          rand.New(rand.NewSource(opts.Seed)),
		sched:        opts.Scheduler,
		timeoutTicks: opts.TimeoutTicks,
		wakes:        make([]wake, 0, smallCap), // grows by append to the run's peak
		rescan:       opts.FullRescan,
		acting:       -1,
		scanCensus:   opts.ScanCensus,
	}
	if s.sched == nil {
		s.sched = NewRandomScheduler()
	}
	_, s.randSched = s.sched.(*RandomScheduler)
	if s.timeoutTicks <= 0 {
		s.timeoutTicks = DefaultTimeoutTicks(t.RingLen(), cfg.L)
	}
	// Channels: one hub, its table laid out by the action set. The scan
	// kernel rebuilds the set every step and takes no emptiness reports.
	var onEmptiness func(i int32, nonempty bool)
	if !s.rescan {
		onEmptiness = s.chanEmptiness
	}
	s.hub = channel.NewHub(t.RingLen(), onEmptiness, s.chanEnds)
	// Processes: one shared slot store, each process bound at its slot under
	// its id, in slot order as the action set lays them out; it gives each
	// line its id and first table index. Bind checks what the views built
	// per call rely on.
	vars, err := core.NewVars(cfg, n)
	if err != nil {
		return nil, err
	}
	s.vars, s.env.s = vars, s
	s.procs = make([]proc, n)
	s.actions, err = newActionSet(t, s.hub, s.procs, func(p int, slot int32) error {
		pr := &s.procs[slot]
		pr.app, pr.wakeAt = nopApp{}, NoWake
		_, err := vars.Bind(int(slot), p, t.Degree(p), t.IsRoot(p), pr.app)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.chans = s.hub.Table()
	if opts.Obs != nil {
		s.initObs(opts.Obs)
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

// chanEmptiness is the hub's emptiness hook for the channel at table index i.
func (s *Sim) chanEmptiness(i int32, nonempty bool) {
	s.actions.set(s.actions.ordAt(i), i, nonempty)
}

// chanEnds names the endpoints of the channel at table index i for the hub.
func (s *Sim) chanEnds(i int32) channel.Ends { return s.actions.ends(i) }

// nopApp is the default application: never requests, never acts.
type nopApp struct{ core.NopApp }

func (nopApp) Enabled(int64) bool { return false }
func (nopApp) Act(Handle)         {}
func (nopApp) WakeAt(int64) int64 { return NoWake }

// AttachApp installs the application driving process p. The node's EnterCS/
// ReleaseCS callbacks are rebound directly to the application — no shim layer
// on that hot path — and the kernel reads the same copy back.
func (s *Sim) AttachApp(p int, app App) {
	slot := int(s.slot(p))
	pr := &s.procs[slot]
	pr.app = app
	if pr.wakeAt != appOn {
		pr.wakeAt = NoWake // the old application's wake time; appOn is pollApp's to clear
	}
	s.pollApp(slot)
}

// AddObserver registers an additional protocol-event monitor. The node-side
// event fanout is only installed once the first observer registers, so
// unobserved simulations skip event construction entirely.
func (s *Sim) AddObserver(o core.Observer) {
	s.observers = append(s.observers, o)
	if len(s.observers) == 1 {
		s.vars.SetObserver(s.fanout)
	}
}

func (s *Sim) fanout(e core.Event) {
	for _, o := range s.observers {
		o(e)
	}
}

// port is one process's side of the kernel: the core.Env its node sends
// through and the Handle its application acts through, one value serving
// both. The kernel keeps one, Sim.env, and points it at the process it steps
// before handing it over, so a step boxes nothing; Handle makes a new one.
// ob caches the process's first table index: the outgoing channel with label
// ch is the reverse of the incoming one at ob+ch.
type port struct {
	s    *Sim
	slot int32
	ob   int32 // table index of the first channel into the process
}

// envAt points the kernel's endpoint at the process at slot and returns it.
func (s *Sim) envAt(slot int32) *port {
	s.env.slot, s.env.ob = slot, s.procs[slot].ob
	return &s.env
}

func (e *port) Send(ch int, m message.Message) {
	s := e.s
	s.hub.Chan(s.chans[int(e.ob)+ch].Rev).Push(m)
}

func (e *port) RestartTimer() {
	if e.slot == 0 { // the root's slot
		e.s.lastRestart = e.s.clock
	}
}

func (e *port) ID() int    { return int(e.s.procs[e.slot].id) }
func (e *port) Now() int64 { return e.s.clock }
func (e *port) Request(need int) error {
	s, slot := e.s, int(e.slot)
	d := s.beginTrack(slot)
	var node core.Node
	s.view(&node, e.slot)
	err := node.Request(e, need)
	s.endTrack(d)
	if e.slot != s.acting {
		s.pollApp(slot)
	}
	return err
}
func (e *port) Poll() {
	s, slot := e.s, int(e.slot)
	d := s.beginTrack(slot)
	var node core.Node
	s.view(&node, e.slot)
	node.Poll(e)
	s.endTrack(d)
	if e.slot != s.acting {
		s.pollApp(slot)
	}
}

// Handle returns the application lever of process p. The paper's execution
// model admits transitions in which "an external application modifies an
// input variable", so driving requests through a Handle from outside the
// scheduler is a legal execution. Each call returns a new Handle; the one
// the kernel passes to App.Act is valid for that call only.
func (s *Sim) Handle(p int) Handle {
	slot := s.slot(p)
	return &port{s: s, slot: slot, ob: s.procs[slot].ob}
}

// Node returns process p's node: a view built from its line and its slot in
// the shared store, as the kernel builds one per call. The view reads and
// writes the process's live state; it panics unless p is a process.
func (s *Sim) Node(p int) core.Node {
	var n core.Node
	s.view(&n, s.slot(p))
	return n
}

// view sets n to the view of the process at slot. The kernel builds one per
// call on its stack.
func (s *Sim) view(n *core.Node, slot int32) {
	pr := &s.procs[slot]
	s.vars.View(n, slot, pr.id, s.deg(slot), pr.app)
}

// deg returns the degree of the process at slot: its channels run in the
// table from its line's first index to the next line's (to the table's end
// for the last slot).
func (s *Sim) deg(slot int32) int32 {
	end := int32(len(s.chans))
	if next := int(slot) + 1; next < len(s.procs) {
		end = s.procs[next].ob
	}
	return end - s.procs[slot].ob
}

// slot returns process p's slot. It panics unless p is a process, naming p
// and n.
func (s *Sim) slot(p int) int32 {
	if p < 0 || p >= len(s.procs) {
		panic(fmt.Sprintf("sim: no process %d (n=%d)", p, len(s.procs)))
	}
	return s.actions.slotOf[p]
}

// Now returns the simulation clock (number of executed steps, plus timeout
// fast-forwards).
func (s *Sim) Now() int64 { return s.clock }

// TimeoutTicks returns the effective retransmission timeout.
func (s *Sim) TimeoutTicks() int64 { return s.timeoutTicks }

// In returns the incoming channel of p with label ch. It panics unless p is
// a process and 0 ≤ ch < Degree(p).
func (s *Sim) In(p, ch int) channel.Ref {
	slot := s.slot(p)
	if deg := s.Tree.Degree(p); ch < 0 || ch >= deg {
		panic(fmt.Sprintf("sim: process %d has no channel %d (degree %d)", p, ch, deg))
	}
	return s.hub.Chan(s.procs[slot].ob + int32(ch))
}

// Out returns the outgoing channel of p with label ch, under In's checks.
func (s *Sim) Out(p, ch int) channel.Ref {
	return s.hub.Chan(s.chans[s.In(p, ch).Index()].Rev)
}

// Channels calls f on every directed channel, in sender-lexicographic
// (From, FromCh) order — the historical iteration order fault injectors'
// target resolution depends on.
func (s *Sim) Channels(f func(channel.Ref)) {
	for p := 0; p < s.Tree.N(); p++ {
		for ch := 0; ch < s.Tree.Degree(p); ch++ {
			f(s.Out(p, ch))
		}
	}
}

// Rand exposes the simulation RNG (for schedulers).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// scanEnabled appends all currently enabled actions to dst in canonical
// order and returns it: the historical full scan, kept as the oracle for
// ResyncActions, the FullRescan kernel, and the differential/fuzz tests.
func (s *Sim) scanEnabled(dst []Action) []Action {
	n := s.Tree.N()
	for p := 0; p < n; p++ {
		for ch := 0; ch < s.Tree.Degree(p); ch++ {
			if s.In(p, ch).Len() > 0 {
				dst = append(dst, Action{Kind: ActDeliver, Proc: p, Ch: ch})
			}
		}
	}
	if s.timerExpired() {
		dst = append(dst, Action{Kind: ActTimeout, Proc: s.Tree.Root()})
	}
	for p := 0; p < n; p++ {
		if s.procs[s.actions.slotOf[p]].simApp().Enabled(s.clock) {
			dst = append(dst, Action{Kind: ActApp, Proc: p})
		}
	}
	return dst
}

func (s *Sim) timerExpired() bool {
	return s.Cfg.Features.Controller && s.clock-s.lastRestart >= s.timeoutTicks
}

// pollApp re-evaluates the enablement of the application at slot and updates
// the ActionSet when it changed: the dirty-flag path, called after every
// event that can change enablement (the app acted, its node entered the
// critical section, a Handle call, attachment) and at registered wake times.
// A disabled app registers its next wake. WakeAt comes first, in the step of
// the event, so an application may date the event by it (App); the scan
// kernel, which reads Enabled itself every step, makes that call and no
// other.
func (s *Sim) pollApp(slot int) {
	pr := &s.procs[slot]
	app := pr.simApp()
	t := app.WakeAt(s.clock)
	if s.rescan {
		return
	}
	if app.Enabled(s.clock) {
		if pr.wakeAt != appOn {
			pr.wakeAt = appOn
			s.actions.add(s.actions.ordApp(int(pr.id)), int32(slot))
		}
		return
	}
	if pr.wakeAt == appOn {
		pr.wakeAt = NoWake
		s.actions.remove(s.actions.ordApp(int(pr.id)), int32(slot))
	}
	if t == NoWake {
		pr.wakeAt = NoWake // stale heap entries are skipped on pop
		return
	}
	if t <= s.clock {
		// Contract violation (disabled now but "wakeable" in the past);
		// stay safe by re-checking on the next step.
		t = s.clock + 1
	}
	if pr.wakeAt != t {
		pr.wakeAt = t
		wakePush(&s.wakes, wake{at: t, slot: int32(slot)})
	}
}

// syncActions brings the ActionSet up to date with the clock: the timeout
// ordinal and the applications whose wake time arrived. In FullRescan mode it
// instead rebuilds the whole set from a scan.
func (s *Sim) syncActions() {
	if s.rescan {
		s.rebuildFromScan()
		return
	}
	if on := s.timerExpired(); on != s.timeoutOn {
		s.timeoutOn = on
		s.actions.set(s.actions.ordTimeout(), 0, on)
	}
	for len(s.wakes) > 0 && s.wakes[0].at <= s.clock {
		w := wakePop(&s.wakes)
		if pr := &s.procs[w.slot]; pr.wakeAt == w.at {
			pr.wakeAt = NoWake
			s.pollApp(int(w.slot))
		}
	}
}

// scanDelivers re-adds every non-empty channel's deliver ordinal: the
// deliver half of a full rebuild, shared by the scan oracle and the resync
// path so their enablement criterion cannot drift apart.
func (s *Sim) scanDelivers() {
	for i := range int32(len(s.chans)) {
		if s.hub.Chan(i).Len() > 0 {
			s.actions.add(s.actions.ordAt(i), i)
		}
	}
}

// rebuildFromScan reconstructs the ActionSet from a full scan.
func (s *Sim) rebuildFromScan() {
	s.actions.clear()
	s.scanDelivers()
	if s.timerExpired() {
		s.actions.add(s.actions.ordTimeout(), 0)
	}
	for slot := range s.procs {
		if pr := &s.procs[slot]; pr.simApp().Enabled(s.clock) {
			s.actions.add(s.actions.ordApp(int(pr.id)), int32(slot))
		}
	}
}

// ResyncActions rebuilds the enabled-action set — and the maintained census
// — from a full scan. Channel mutations through the channel API and
// application events through Handles keep both in sync automatically; call
// this after any OTHER out-of-band change that could affect enablement (the
// fault-injection resync rule).
func (s *Sim) ResyncActions() {
	s.resyncCensus()
	if s.rescan {
		s.rebuildFromScan()
		return
	}
	s.actions.clear()
	s.scanDelivers()
	if s.timeoutOn = s.timerExpired(); s.timeoutOn {
		s.actions.add(s.actions.ordTimeout(), 0)
	}
	for slot := range s.procs {
		if s.procs[slot].wakeAt == appOn {
			s.procs[slot].wakeAt = NoWake // the cleared set holds no application
		}
		s.pollApp(slot)
	}
}

// Peek returns the message an ActDeliver action would deliver. It panics for
// other action kinds.
func (s *Sim) Peek(a Action) message.Message {
	if a.Kind != ActDeliver {
		panic("sim: Peek on non-deliver action")
	}
	return s.In(a.Proc, a.Ch).Peek()
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
		s.timeoutOn = true
		s.actions.add(s.actions.ordTimeout(), 0)
	}
	var (
		a  Action
		at int32 // where a lives: the popped channel's table index, else the slot
	)
	if s.randSched {
		// Inlined RandomScheduler.Next: same draw, no interface dispatch.
		v := s.actions.entryAt(s.rng.Intn(s.actions.Len()))
		a, at = s.actions.action(v), v.at()
	} else {
		a = s.sched.Next(s, s.actions)
		if !s.actions.Contains(a) {
			panic(fmt.Sprintf("sim: scheduler picked disabled action %v", a))
		}
		at = s.actions.where(a)
	}
	s.clock++
	s.Steps++
	s.LastAction = a
	s.LastMsg = message.Message{}
	// Only an event at the application can change its enablement (App): its
	// own Act, or EnterCS during a delivery or timeout — which the census
	// bracket sees as the node leaving Req. After any other step the
	// application is not polled, and its line stays cold.
	var slot int32
	var poll bool
	switch a.Kind {
	case ActDeliver:
		slot = s.chans[at].ToSlot
		d := s.beginTrack(int(slot))
		m := s.hub.Chan(at).Pop()
		if m.Kind.Valid() {
			s.Delivered[m.Kind&7]++
		}
		s.LastMsg = m
		var node core.Node
		s.view(&node, slot)
		node.HandleMessage(a.Ch, m, s.envAt(slot))
		poll = s.endTrack(d)
	case ActTimeout:
		s.Timeouts++
		d := s.beginTrack(0) // slot stays 0, the root's
		var node core.Node
		s.view(&node, 0)
		node.HandleTimeout(s.envAt(0))
		poll = s.endTrack(d)
	case ActApp:
		slot = at
		s.AppActions++
		// Step polls after Act, so the Handle calls Act makes need not.
		s.acting = slot
		s.procs[slot].simApp().Act(s.envAt(slot))
		s.acting = -1
		poll = true
	}
	if poll {
		s.pollApp(int(slot))
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
