package core

import (
	"fmt"
	"math/rand"

	"kofl/internal/message"
)

// slot is the per-process protocol state, one array-of-structs entry per
// process: a delivery reads and writes most of these together, so they share
// 24 bytes (the layout test pins them) instead of one cold line per variable.
// need and rlen are at most k ≤ ℓ ≤ MaxL, which Validate enforces, so they
// take 16 bits each.
type slot struct {
	myC   int    // counter-flushing flag (domain up to 2⁴⁰)
	succ  int32  // channel the controller is expected from / forwarded to
	prio  int32  // channel label, NoPrio = ⊥
	need  uint16 // units requested
	rlen  uint16 // |RSet|
	state State
}

// Vars is the store for the protocol variables of a set of processes: one
// slot per process in a single dense slice, with the RSet multisets
// flattened into one shared backing array at a fixed stride of k entries per
// slot — so a simulation of n processes keeps its entire protocol state in
// two contiguous allocations instead of n heap objects with n private
// slices. A Node is a cheap view (store pointer + slot index) over this
// storage; the simulator binds all its processes into one shared Vars, while
// standalone construction (NewNode) gives each process a private single-slot
// store. Vars is not safe for concurrent use across its slots' writers.
type Vars struct {
	cfg  Config
	cmod int   // precomputed CounterMod()
	k    int32 // rset stride per slot

	slots []slot
	rset  []int32 // flattened multisets: slot i owns rset[i*k : i*k+slots[i].rlen]

	obs Observer // event monitor shared by every slot (may be nil)

	// Root-only variables (Algorithm 1). At most one slot of a Vars may be
	// bound as the root (root, -1 while none is), so these are scalars, not
	// per-slot.
	root   int32
	reset  bool
	stoken int32 // resource tokens across ring START this traversal (≤ ℓ+1)
	sprio  int32 // priority tokens likewise (≤ 2)
	spush  int32 // pusher tokens likewise (≤ 2)
}

// NewVars returns a store for n process slots under cfg.
func NewVars(cfg Config, n int) (*Vars, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: NewVars needs at least 1 slot, got %d", n)
	}
	v := &Vars{
		cfg:   cfg,
		cmod:  cfg.CounterMod(),
		k:     int32(cfg.K),
		slots: make([]slot, n),
		rset:  make([]int32, n*cfg.K),
		root:  -1,
	}
	for i := range v.slots {
		v.slots[i].prio = NoPrio
	}
	return v, nil
}

// Config returns the store's protocol configuration.
func (v *Vars) Config() Config { return v.cfg }

// SetObserver installs the event monitor every process of the store reports
// to (may be nil).
func (v *Vars) SetObserver(o Observer) { v.obs = o }

// Bind attaches slot idx of v as the process with the given id and degree and
// returns the Node view. The root (per the tree package, id 0) runs
// Algorithm 1; at most one slot per store may be bound as the root. app must
// be non-nil.
func (v *Vars) Bind(idx, id, deg int, isRoot bool, app App) (Node, error) {
	if idx < 0 || idx >= len(v.slots) {
		return Node{}, fmt.Errorf("core: Bind slot %d outside [0..%d)", idx, len(v.slots))
	}
	if deg < 1 {
		return Node{}, fmt.Errorf("core: process %d has degree %d; the tree must be connected", id, deg)
	}
	if app == nil {
		return Node{}, fmt.Errorf("core: process %d needs an App", id)
	}
	if isRoot {
		if v.root >= 0 {
			return Node{}, fmt.Errorf("core: process %d: store already has a root slot", id)
		}
		v.root = int32(idx)
	}
	var n Node
	v.View(&n, int32(idx), int32(id), int32(deg), app)
	return n, nil
}

// View sets n to the view of slot idx that Bind returned, without Bind's
// checks: for a host that keeps no Node per process and builds the view per
// call from what it keeps anyway (the simulator's process line). id and deg
// must be those slot idx was bound with. It writes n field by field, so a
// view built on the caller's stack is read back without a copy.
func (v *Vars) View(n *Node, idx, id, deg int32, app App) {
	n.vars, n.app, n.id, n.idx, n.deg, n.isRoot = v, app, id, idx, deg, idx == v.root
}

// ResetFlag returns the root's Reset variable (false while no root is bound).
func (v *Vars) ResetFlag() bool { return v.reset }

// Node is one process of the protocol: the root runs Algorithm 1, every
// other process Algorithm 2. A Node is driven from outside by
// HandleMessage (a message was delivered), HandleTimeout (the root's
// retransmission timer fired), Request (the application asks for units) and
// Poll (the application's state may have changed). A Node is not safe for
// concurrent use; each runtime serializes calls per node. Its protocol
// variables live in a Vars store (see above); the Node itself is a small
// copyable view, which a host may keep or build per call (Vars.View).
type Node struct {
	vars   *Vars
	app    App
	id     int32
	idx    int32
	deg    int32 // ∆p
	isRoot bool
}

// slot returns the node's protocol variables.
func (n *Node) slot() *slot { return &n.vars.slots[n.idx] }

// NewNode builds the process with the given id and degree, backed by its own
// single-slot Vars store. The root (per the tree package, id 0) runs
// Algorithm 1. app must be non-nil.
func NewNode(cfg Config, id, deg int, isRoot bool, app App) (*Node, error) {
	v, err := NewVars(cfg, 1)
	if err != nil {
		return nil, err
	}
	n, err := v.Bind(0, id, deg, isRoot, app)
	if err != nil {
		return nil, err
	}
	return &n, nil
}

// MustNewNode is NewNode for static fixtures; it panics on error.
func MustNewNode(cfg Config, id, deg int, isRoot bool, app App) *Node {
	n, err := NewNode(cfg, id, deg, isRoot, app)
	if err != nil {
		panic(err)
	}
	return n
}

// SetObserver installs the event monitor of the node's store (see
// Vars.SetObserver): every process bound into the same Vars reports to it.
func (n *Node) SetObserver(o Observer) { n.vars.SetObserver(o) }

func (n *Node) emit(e Event) {
	if obs := n.vars.obs; obs != nil {
		e.P = int(n.id)
		obs(e)
	}
}

// ID returns the process id.
func (n *Node) ID() int { return int(n.id) }

// Degree returns ∆p.
func (n *Node) Degree() int { return int(n.deg) }

// IsRoot reports whether this process runs Algorithm 1.
func (n *Node) IsRoot() bool { return n.isRoot }

// State returns the application-interface state.
func (n *Node) State() State { return n.slot().state }

// Need returns the number of units currently requested.
func (n *Node) Need() int { return int(n.slot().need) }

// Reserved returns the number of resource tokens currently reserved (|RSet|).
func (n *Node) Reserved() int { return int(n.slot().rlen) }

// Probe returns the census-relevant view of slot idx — |RSet|, priority
// held, application-interface state — in one bounds-checked read of the
// store. The simulator's census tracker brackets every node mutation with a
// pair of probes; one fused accessor keeps that bracket to two calls.
func (v *Vars) Probe(idx int) (res int32, prio bool, state State) {
	sl := &v.slots[idx]
	return int32(sl.rlen), sl.prio != NoPrio, sl.state
}

// rsetAll returns the live flattened reservation multiset of this process.
func (n *Node) rsetAll() []int32 {
	off := int(n.idx) * int(n.vars.k)
	return n.vars.rset[off : off+int(n.slot().rlen)]
}

// rsetPush appends one reserved channel label. The caller guarantees
// |RSet| < k (the receive guard enforces need ≤ k).
func (n *Node) rsetPush(ch int32) {
	v, sl := n.vars, n.slot()
	v.rset[int(n.idx)*int(v.k)+int(sl.rlen)] = ch
	sl.rlen++
}

// rsetClear empties the reservation multiset.
func (n *Node) rsetClear() { n.slot().rlen = 0 }

// RSet returns a copy of the reservation multiset (channel labels).
func (n *Node) RSet() []int {
	live := n.rsetAll()
	out := make([]int, len(live))
	for i, ch := range live {
		out[i] = int(ch)
	}
	return out
}

// Prio returns the channel the held priority token arrived from, or NoPrio.
func (n *Node) Prio() int { return int(n.slot().prio) }

// HoldsPrio reports whether the process holds the priority token.
func (n *Node) HoldsPrio() bool { return n.slot().prio != NoPrio }

// MyC returns the counter-flushing flag value.
func (n *Node) MyC() int { return n.slot().myC }

// Succ returns the channel the controller is expected from / forwarded to.
func (n *Node) Succ() int { return int(n.slot().succ) }

// ResetFlag returns the root's Reset variable (false at non-roots).
func (n *Node) ResetFlag() bool { return n.isRoot && n.vars.reset }

// Snapshot is a copy of a Node's protocol state; Restore applies one.
// Together they let fault injectors place the process in an arbitrary
// (domain-respecting) local state, which is exactly the fault model of
// self-stabilization.
type Snapshot struct {
	State  State
	Need   int
	MyC    int
	Succ   int
	RSet   []int
	Prio   int
	Reset  bool
	SToken int
	SPrio  int
	SPush  int
}

// Snapshot returns a copy of the current protocol state.
func (n *Node) Snapshot() Snapshot {
	v, sl := n.vars, n.slot()
	s := Snapshot{
		State: sl.state, Need: int(sl.need), MyC: sl.myC,
		Succ: int(sl.succ), RSet: n.RSet(), Prio: int(sl.prio),
	}
	if n.isRoot {
		s.Reset = v.reset
		s.SToken, s.SPrio, s.SPush = int(v.stoken), int(v.sprio), int(v.spush)
	}
	return s
}

// Restore overwrites the protocol state with s, clamping every variable into
// its declared domain (transient faults corrupt values, not types).
func (n *Node) Restore(s Snapshot) {
	v, sl := n.vars, n.slot()
	sl.state = State(clamp(int(s.State), 0, int(In)))
	sl.need = uint16(clamp(s.Need, 0, v.cfg.K))
	sl.myC = clamp(s.MyC, 0, v.cmod-1)
	sl.succ = int32(clamp(s.Succ, 0, int(n.deg)-1))
	n.rsetClear()
	for _, ch := range s.RSet {
		if int(sl.rlen) >= v.cfg.K {
			break
		}
		n.rsetPush(int32(clamp(ch, 0, int(n.deg)-1)))
	}
	if s.Prio == NoPrio {
		sl.prio = NoPrio
	} else {
		sl.prio = int32(clamp(s.Prio, 0, int(n.deg)-1))
	}
	if n.isRoot {
		v.reset = s.Reset
		v.stoken = int32(clamp(s.SToken, 0, v.cfg.L+1))
		v.sprio = int32(clamp(s.SPrio, 0, 2))
		v.spush = int32(clamp(s.SPush, 0, 2))
	}
}

// RandomSnapshot draws a uniformly random local state for a process of the
// given degree, within every variable's declared domain.
func RandomSnapshot(cfg Config, deg int, rng *rand.Rand) Snapshot {
	snap := Snapshot{
		State:  State(rng.Intn(3)),
		Need:   rng.Intn(cfg.K + 1),
		MyC:    rng.Intn(cfg.CounterMod()),
		Succ:   rng.Intn(deg),
		Prio:   rng.Intn(deg+1) - 1, // -1 = ⊥
		Reset:  rng.Intn(2) == 0,
		SToken: rng.Intn(cfg.L + 2),
		SPrio:  rng.Intn(3),
		SPush:  rng.Intn(3),
	}
	for i := rng.Intn(cfg.K + 1); i > 0; i-- {
		snap.RSet = append(snap.RSet, rng.Intn(deg))
	}
	return snap
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Request switches the application interface from Out to Req for `need`
// units (0 ≤ need ≤ k) and runs the protocol's local actions, which may
// grant the request immediately. Any transition other than Out→Req is
// forbidden by the interface contract and returns an error.
func (n *Node) Request(env Env, need int) error {
	sl := n.slot()
	if sl.state != Out {
		return fmt.Errorf("core: process %d: Request in state %v (only Out→Req is allowed)", n.id, sl.state)
	}
	if k := n.vars.cfg.K; need < 0 || need > k {
		return fmt.Errorf("core: process %d: need %d outside [0..k=%d]", n.id, need, k)
	}
	sl.need = uint16(need)
	sl.state = Req
	n.emit(Event{Kind: EvRequest, N1: need})
	n.bottomHalf(env)
	return nil
}

// Poll runs the protocol's local actions (the bottom half of the repeat
// loop): entering the critical section when enough tokens are reserved,
// releasing tokens when the application has finished, and forwarding a held
// priority token once no longer needed. Runtimes call it after every
// delivered message and whenever the application's ReleaseCS answer may have
// changed.
func (n *Node) Poll(env Env) { n.bottomHalf(env) }

// bottomHalf implements Algorithm 1 lines 78-98 / Algorithm 2 lines 62-76.
func (n *Node) bottomHalf(env Env) {
	sl := n.slot()
	// Enter the critical section when the request is covered.
	if sl.state == Req && sl.rlen >= sl.need {
		sl.state = In
		n.emit(Event{Kind: EvEnterCS, N1: int(sl.need), N2: int(sl.rlen)})
		n.app.EnterCS()
	}
	// Release every reserved token once the critical section is done.
	if sl.state == In && n.app.ReleaseCS() {
		released := int(sl.rlen)
		n.releaseAll(env)
		sl.state = Out
		sl.need = 0
		n.emit(Event{Kind: EvExitCS, N1: released})
	}
	// Forward the priority token unless it shields an unsatisfied request.
	if sl.prio != NoPrio && (sl.state != Req || sl.rlen >= sl.need) {
		n.forwardPrio(env, int(sl.prio))
		sl.prio = NoPrio
		n.emit(Event{Kind: EvPrioRelease})
	}
}

// releaseAll retransmits every reserved token along the virtual ring,
// counting ring-START crossings at the root, and empties RSet.
func (n *Node) releaseAll(env Env) {
	for _, i := range n.rsetAll() {
		n.forwardRes(env, int(i))
	}
	n.rsetClear()
}

// forwardRes sends a resource token that arrived from channel i onward to
// channel i+1 (mod ∆p); at the root a token leaving for channel 0 crossed
// the ring START and is counted in SToken.
func (n *Node) forwardRes(env Env, i int) {
	if n.isRoot && i == int(n.deg)-1 {
		n.vars.stoken = int32(min(int(n.vars.stoken)+1, n.vars.cfg.L+1))
	}
	env.Send((i+1)%int(n.deg), message.NewRes())
}

// forwardPrio likewise for the priority token (root counts into SPrio).
func (n *Node) forwardPrio(env Env, i int) {
	if n.isRoot && i == int(n.deg)-1 {
		n.vars.sprio = int32(min(int(n.vars.sprio)+1, 2))
	}
	env.Send((i+1)%int(n.deg), message.NewPrio())
}

// forwardPush likewise for the pusher token (root counts into SPush).
func (n *Node) forwardPush(env Env, i int) {
	if n.isRoot && i == int(n.deg)-1 {
		n.vars.spush = int32(min(int(n.vars.spush)+1, 2))
	}
	env.Send((i+1)%int(n.deg), message.NewPush())
}

// multiplicity returns |RSet|_q: how many reserved tokens arrived from q.
func (n *Node) multiplicity(q int) int {
	c := 0
	for _, i := range n.rsetAll() {
		if int(i) == q {
			c++
		}
	}
	return c
}

// String summarizes the node state for traces and test failures.
func (n *Node) String() string {
	role := "node"
	if n.isRoot {
		role = "root"
	}
	sl := n.slot()
	return fmt.Sprintf("%s%d{%v need=%d |RSet|=%d prio=%d myC=%d succ=%d}",
		role, n.id, sl.state, sl.need, sl.rlen, sl.prio, sl.myC, sl.succ)
}
