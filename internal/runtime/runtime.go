// Package runtime executes the protocol under true asynchrony: one goroutine
// per process, one buffered inbox per process that its neighbours write
// wire-encoded frames into, and a wall-clock retransmission timer at the
// root. It demonstrates that the core state machine — developed against the
// deterministic simulator — runs unchanged on a real concurrent substrate
// (the repo's race-enabled integration tests drive it).
//
// A process goroutine also owns its application side. An entry is a grant
// (OnEnter fires, Demand falls by one) only when the application asked and
// the process entered with the need it asked for; any other entry, such as
// one a Corrupt fault causes, is released at once, and an asked request that
// a fault left in Out is issued again.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/obs"
	"kofl/internal/tree"
)

// DefaultLinkBuffer is the per-link share of a process's inbox (capacity
// degree × LinkBuffer). The stabilized token population is ℓ+3 plus bounded
// controller duplicates, so an inbox never fills in practice; if it does
// fill, Send drops the frame and counts it — message loss is inside the
// protocol's fault model (a wrong census makes the controller flush and
// recreate the token population), so a saturated network degrades into extra
// stabilization work instead of crashing.
const DefaultLinkBuffer = 256

// DefaultTimeout is the root's retransmission timeout when Options.Timeout is 0.
const DefaultTimeout = 25 * time.Millisecond

// Options configures a live network.
type Options struct {
	// Timeout is the root's retransmission timeout (default DefaultTimeout).
	// The root fires once at Start, as the simulator's fast-forward does, and
	// from then on after Timeout without a controller token back.
	Timeout time.Duration
	// LinkBuffer overrides DefaultLinkBuffer.
	LinkBuffer int
	// Pace and IdlePace throttle message delivery (0 = full speed). The
	// protocol's tokens circulate forever even with zero demand, which
	// costs a core's worth of message handling on an otherwise idle
	// network and starves co-located application goroutines of CPU.
	//
	// While the network is quiescent — no application request outstanding
	// and (with the controller on) the last census legitimate — a process
	// holds an arriving frame for one IdlePace beat, then delivers it and
	// everything that queued behind it, so a convoy of tokens advances one
	// hop per beat. A Request cuts every such hold short, and Stop does not
	// wait it out.
	//
	// Otherwise (demand, bootstrap, repair) a process delivers at once and
	// owes Pace per frame: at most 1/Pace frames per second per process on
	// average. The debt is slept off in chunks of restQuantum, the shortest
	// sleep the Go runtime honours here. The rest is a real park, not a
	// yield: with a goroutine always runnable a single P never reaches the
	// netpoller, and co-located network goroutines starve.
	//
	// Arbitrary message delay is inside the asynchronous model, so
	// stabilization is unaffected, and pacing never drops frames — they wait
	// in the inbox.
	Pace     time.Duration
	IdlePace time.Duration
	// Journal, when non-nil, receives structured stabilization telemetry:
	// stabilized/destabilized transitions observed at the root's census
	// traversals, root timeout firings, and fault injections. Entries are
	// recorded from process goroutines; obs.Journal is concurrency-safe and
	// allocation-free.
	Journal *obs.Journal
}

// restQuantum is the shortest rest a busy process takes. A shorter timer
// costs either ~14µs or, when the process is otherwise idle, epoll's 1ms
// timeout granularity, so Pace debt is slept off in chunks of at least this.
const restQuantum = time.Millisecond

// delivery is one wire-encoded frame arriving on a labeled channel.
type delivery struct {
	ch    int
	frame [message.FrameSize]byte
}

// port is the far end of one outgoing edge: the peer's inbox and the label
// the peer knows this edge by.
type port struct {
	inbox chan<- delivery
	ch    int
}

// Net is a live protocol instance over a tree.
type Net struct {
	tr   *tree.Tree
	cfg  core.Config
	opts Options

	procs   []*proc
	started atomic.Bool

	wg     sync.WaitGroup
	ctx    context.Context // set by Start; stopped() keys off it
	cancel context.CancelFunc

	// Counters (atomic).
	framesDelivered atomic.Int64
	framesRejected  atomic.Int64 // checksum/decoding failures (injected noise)
	framesDropped   atomic.Int64 // full-link drops (backpressure signal)
	framesPaced     atomic.Int64 // holds taken (idle beats and busy rests)
	demandWakes     atomic.Int64 // idle holds cut short by a request
	timeouts        atomic.Int64 // root retransmission timeout firings
	grants          atomic.Int64

	// stabilized tracks whether the last census traversal completed at the
	// root observed the legitimate token population — the readiness signal
	// of the serve layer's /readyz.
	stabilized atomic.Bool

	// demand counts application requests issued but not yet granted; while
	// it is non-zero the network is not quiescent and processes deliver at
	// the busy cadence (Pace) instead of holding frames for IdlePace.
	demand atomic.Int64
	// wake is closed and replaced on every 0→1 edge of demand, releasing
	// the processes parked in an idle hold.
	wake atomic.Pointer[chan struct{}]
}

// proc is the per-process goroutine state.
type proc struct {
	id    int
	net   *Net
	node  *core.Node
	inbox chan delivery // written by the neighbours, one goroutine per edge: FIFO per channel
	cmds  chan func(*liveEnv)
	out   []port // out[ch]: the neighbour on channel ch

	// The application side, owned by the process goroutine: asked is a
	// request for need units not yet granted, held a grant not yet released.
	asked, held bool
	need        int
	onEnter     func(p int)
}

// New builds a live network for cfg over t. The system starts from the empty
// configuration; the root's timeout fires once at Start, as the simulator's
// quiescent fast-forward does, and its controller lap creates the tokens.
func New(t *tree.Tree, cfg core.Config, opts Options) (*Net, error) {
	cfg.N = t.N()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.LinkBuffer <= 0 {
		opts.LinkBuffer = DefaultLinkBuffer
	}
	n := &Net{tr: t, cfg: cfg, opts: opts, procs: make([]*proc, t.N())}
	wake := make(chan struct{})
	n.wake.Store(&wake)
	for p := range n.procs {
		n.procs[p] = &proc{
			id:  p,
			net: n,
			// One LinkBuffer per incoming edge, pooled: a full inbox is the
			// full link of the drop-on-full contract.
			inbox: make(chan delivery, t.Degree(p)*opts.LinkBuffer),
			cmds:  make(chan func(*liveEnv), 8),
			out:   make([]port, t.Degree(p)),
		}
	}
	for p, pr := range n.procs {
		for ch := range pr.out {
			q := t.Neighbor(p, ch)
			pr.out[ch] = port{n.procs[q].inbox, t.ChannelTo(q, p)}
		}
		node, err := core.NewNode(cfg, p, t.Degree(p), t.IsRoot(p), pr)
		if err != nil {
			return nil, err
		}
		node.SetObserver(n.observe)
		pr.node = node
	}
	return n, nil
}

func (n *Net) observe(e core.Event) {
	if e.Kind == core.EvCirculation {
		// One controller traversal completed at the root; its census
		// (N1 = resource, N2 = priority, N3 = pusher token counts, Flag =
		// reset pending) is read by the one population rule.
		legit := n.cfg.LegitimatePopulation(e.N1, e.N2, e.N3, e.Flag)
		if n.stabilized.Swap(legit) != legit && n.opts.Journal != nil {
			k := obs.KindStabilized
			if !legit {
				k = obs.KindDestabilized
			}
			n.opts.Journal.Record(k, int32(e.P), int64(e.N1), int64(e.N2))
		}
	}
}

// Stabilized reports whether the most recent census traversal completed at
// the root observed the legitimate token population, by
// core.Config.LegitimatePopulation. It is false until the
// first legitimate traversal completes (the bootstrap from the empty
// configuration), and flips back on mid-run destabilization (e.g. injected
// garbage) until the controller repairs the population.
func (n *Net) Stabilized() bool { return n.stabilized.Load() }

// Demand returns the number of application requests issued and not yet
// granted — the signal that ends quiescence.
func (n *Net) Demand() int64 { return n.demand.Load() }

// quiescent reports whether nobody is waiting on the protocol: no request
// outstanding and, when there is a controller to say so, a legitimate token
// population. Bootstrap and post-fault repair are not quiescent, so they run
// at the busy cadence.
func (n *Net) quiescent() bool {
	return n.demand.Load() == 0 && (n.stabilized.Load() || !n.cfg.Features.Controller)
}

// EnterCS makes an entry a grant only when the application asked and the
// process entered with the need it asked for; ReleaseCS lets any other go.
func (pr *proc) EnterCS() {
	if !pr.asked || pr.node.Need() != pr.need {
		return
	}
	pr.asked, pr.held = false, true
	pr.net.grants.Add(1)
	pr.net.demand.Add(-1)
	if pr.onEnter != nil {
		pr.onEnter(pr.id)
	}
}

// ReleaseCS keeps the process In only while the application holds a grant.
func (pr *proc) ReleaseCS() bool { return !pr.held }

// liveEnv implements core.Env inside a proc goroutine.
type liveEnv struct {
	pr    *proc
	timer *time.Timer // the root's retransmission timer (nil elsewhere)
	beat  *time.Timer // times the process's pacing rests
}

// Send frames m onto the outgoing link. A full link drops the frame instead
// of blocking (which would deadlock the process loop) or panicking (which
// would take the whole network down under overload): token loss is a
// transient fault the self-stabilizing construction already repairs, so the
// observable contract under saturation is a counted drop plus extra
// stabilization work, never a crash.
func (e *liveEnv) Send(ch int, m message.Message) {
	out := e.pr.out[ch]
	d := delivery{ch: out.ch}
	message.Encode(d.frame[:0], m)
	select {
	case out.inbox <- d:
	default:
		e.pr.net.framesDropped.Add(1)
	}
}

func (e *liveEnv) RestartTimer() {
	if e.timer != nil {
		e.timer.Reset(e.pr.net.opts.Timeout)
	}
}

// Start launches every process goroutine; ctx cancellation (or Stop) shuts
// the network down.
func (n *Net) Start(ctx context.Context) {
	if !n.started.CompareAndSwap(false, true) {
		panic("runtime: Start called twice")
	}
	ctx, n.cancel = context.WithCancel(ctx)
	n.ctx = ctx
	for _, pr := range n.procs {
		n.wg.Add(1)
		go pr.run(ctx, &n.wg)
	}
}

// run is the process main loop: the paper's "repeat forever".
func (pr *proc) run(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	n := pr.net
	env := &liveEnv{pr: pr, beat: time.NewTimer(time.Hour)}
	env.beat.Stop() // rest arms it
	var timerC <-chan time.Time
	if pr.node.IsRoot() && n.cfg.Features.Controller {
		env.timer = time.NewTimer(n.opts.Timeout)
		defer env.timer.Stop()
		timerC = env.timer.C
		// From the empty configuration the root's timeout is the only enabled
		// action, and the asynchronous model puts no lower bound on when it
		// fires: take it now rather than idle for a Timeout. A redundant
		// controller copy (garbage start) is absorbed by counter flushing.
		env.timeout()
	}
	var debt time.Duration // Pace owed for frames delivered since the last rest
	for {
		select {
		case <-ctx.Done():
			return
		case d := <-pr.inbox:
			// Load the wake channel before reading demand: a request that
			// raises demand after the read closes this very channel.
			wake := *n.wake.Load()
			quiet := n.quiescent()
			if quiet && n.opts.IdlePace > 0 {
				if !env.rest(ctx, n.opts.IdlePace, wake) {
					return
				}
				debt = 0
			}
			env.deliver(d)
			if quiet {
				// Whatever queued behind d during the beat moves with it, so
				// the controller's lap stays at one beat per hop, under Timeout.
				for i := len(pr.inbox); i > 0; i-- {
					env.deliver(<-pr.inbox)
				}
			} else if debt += n.opts.Pace; debt >= restQuantum {
				if !env.rest(ctx, debt, nil) {
					return
				}
				debt = 0
			}
		case <-timerC:
			env.timeout()
		case cmd := <-pr.cmds:
			cmd(env)
		}
	}
}

// timeout takes the root's retransmission action and re-arms its timer.
func (e *liveEnv) timeout() {
	n := e.pr.net
	n.timeouts.Add(1)
	if j := n.opts.Journal; j != nil {
		j.Record(obs.KindTimeout, int32(e.pr.id), 0, 0)
	}
	e.pr.node.HandleTimeout(e)
}

// deliver verifies and decodes one frame and hands it to the state machine.
func (e *liveEnv) deliver(d delivery) {
	m, _, err := message.Decode(d.frame[:])
	if err != nil {
		e.pr.net.framesRejected.Add(1)
		return
	}
	e.pr.net.framesDelivered.Add(1)
	e.pr.node.HandleMessage(d.ch, m, e)
	e.reissue()
}

// reissue asks again for a request that a fault left in Out: its process
// was corrupted, or entered with another need and was released. Only a
// delivery or a Corrupt can leave it there.
func (e *liveEnv) reissue() {
	if pr := e.pr; pr.asked && pr.node.State() == core.Out {
		pr.node.Request(e, pr.need)
	}
}

// request is the application's Out→Req. The ask is recorded, and demand
// raised, before Node.Request, which enters a need the reserved tokens
// already cover; a refusal takes both back.
func (e *liveEnv) request(need int) error {
	pr, n := e.pr, e.pr.net
	if pr.asked || pr.held {
		return fmt.Errorf("runtime: process %d: request outstanding", pr.id)
	}
	pr.asked, pr.need = true, need
	// On the 0→1 edge of demand, release every process parked in an idle
	// hold, so no hop sleeps through the request it should be serving.
	if n.demand.Add(1) == 1 {
		wake := make(chan struct{})
		close(*n.wake.Swap(&wake))
	}
	err := pr.node.Request(e, need)
	if err != nil {
		pr.asked = false
		n.demand.Add(-1)
	}
	return err
}

// rest parks the process for d, still answering application commands. wake
// (nil for a busy rest) cuts the hold short. It returns false when the
// network stopped.
func (e *liveEnv) rest(ctx context.Context, d time.Duration, wake <-chan struct{}) bool {
	e.pr.net.framesPaced.Add(1)
	e.beat.Reset(d)
	for {
		select {
		case <-ctx.Done():
			return false
		case <-e.beat.C:
			return true
		case <-wake:
			e.beat.Stop()
			e.pr.net.demandWakes.Add(1)
			return true
		case cmd := <-e.pr.cmds:
			cmd(e)
		}
	}
}

// Stop cancels the network and waits for every goroutine to exit.
func (n *Net) Stop() {
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
}

// ErrStopped is returned by Request when the network shut down before the
// process could answer.
var ErrStopped = errors.New("runtime: network stopped")

// stopped is the network's shutdown signal: nil before Start, so a command
// sent before Start waits for the goroutine.
func (n *Net) stopped() <-chan struct{} {
	if n.ctx == nil {
		return nil
	}
	return n.ctx.Done()
}

// Request asks process p for need units; it returns the protocol's answer
// (an error unless the process was in state Out with no request or grant
// held), or ErrStopped if the network shut down before p could answer.
func (n *Net) Request(p, need int) error {
	var err error
	if !n.call(p, func(e *liveEnv) { err = e.request(need) }) {
		return ErrStopped
	}
	return err
}

// Release ends the grant p's application holds, on p's goroutine after every
// earlier command: p leaves its critical section. Without a grant held, or
// racing shutdown, it changes nothing.
func (n *Net) Release(p int) { n.command(p, release) }

func release(e *liveEnv) {
	e.pr.held = false
	e.pr.node.Poll(e)
}

// Corrupt overwrites process p's protocol state with s (clamped into its
// domains) and runs its local actions: a transient process fault, journalled
// as fault_injected (A the state, B the need). It runs on p's goroutine
// after every earlier command and returns once applied (or the network
// stopped). An entry it causes is not a grant, and a request the
// application asked for survives it.
func (n *Net) Corrupt(p int, s core.Snapshot) {
	if j := n.opts.Journal; j != nil {
		j.Record(obs.KindFaultInjected, int32(p), int64(s.State), int64(s.Need))
	}
	n.call(p, func(e *liveEnv) {
		e.pr.node.Restore(s)
		e.pr.node.Poll(e)
		e.reissue()
	})
}

// command queues cmd on p's goroutine; false if the network stopped first.
func (n *Net) command(p int, cmd func(*liveEnv)) bool {
	select {
	case n.procs[p].cmds <- cmd:
		return true
	case <-n.stopped():
		return false
	}
}

// call runs f on p's goroutine and waits for it; false if the network
// stopped first.
func (n *Net) call(p int, f func(*liveEnv)) bool {
	done := make(chan struct{})
	if !n.command(p, func(e *liveEnv) { f(e); close(done) }) {
		return false
	}
	select {
	case <-done:
		return true
	case <-n.stopped():
		return false
	}
}

// OnEnter registers the grant callback for process p (call before Start).
// It runs on the process goroutine, once per request granted: never for an
// entry the application did not ask for.
func (n *Net) OnEnter(p int, f func(p int)) { n.procs[p].onEnter = f }

// Grants returns the number of requests granted so far.
func (n *Net) Grants() int64 { return n.grants.Load() }

// FramesDelivered returns the number of frames decoded and handled.
func (n *Net) FramesDelivered() int64 { return n.framesDelivered.Load() }

// FramesRejected returns the number of frames dropped by the wire layer.
func (n *Net) FramesRejected() int64 { return n.framesRejected.Load() }

// FramesDropped returns the number of frames dropped because a link was
// full — the backpressure signal of a saturated network (Send drops, and
// pre-Start injection overflow drops, both count).
func (n *Net) FramesDropped() int64 { return n.framesDropped.Load() }

// FramesPaced returns the number of pacing holds taken: idle beats
// (IdlePace, each covering every frame queued behind the held one) and busy
// rests (accrued Pace debt).
func (n *Net) FramesPaced() int64 { return n.framesPaced.Load() }

// DemandWakes returns the number of idle holds a Request cut short.
func (n *Net) DemandWakes() int64 { return n.demandWakes.Load() }

// Timeouts returns the number of root retransmission-timeout firings,
// counting the start-up firing as one. In steady state this stays flat; a
// climbing rate means the timeout is too tight for the configured pacing
// (retransmission storms).
func (n *Net) Timeouts() int64 { return n.timeouts.Load() }

// metricPrefix begins the name of every series Register exposes.
const metricPrefix = "kofl_runtime_"

// Register exposes the network's counters on reg as kofl_runtime_* series.
// Every series is a CounterFunc/GaugeFunc over the atomics the network
// maintains anyway, so registration costs the message paths nothing.
func (n *Net) Register(reg *obs.Registry) {
	reg.CounterFunc(metricPrefix+"frames_delivered_total",
		"protocol frames decoded and handled", n.FramesDelivered)
	reg.CounterFunc(metricPrefix+"frames_rejected_total",
		"frames rejected by the wire layer (checksum/decoding)", n.FramesRejected)
	reg.CounterFunc(metricPrefix+"frames_dropped_total",
		"frames dropped by full links (backpressure)", n.FramesDropped)
	reg.CounterFunc(metricPrefix+"frames_paced_total",
		"holds taken (idle beats and busy rests)", n.FramesPaced)
	reg.CounterFunc(metricPrefix+"demand_wakes_total",
		"idle holds cut short by a request", n.DemandWakes)
	reg.CounterFunc(metricPrefix+"timeout_retransmissions_total",
		"root retransmission timeout firings (the start-up firing counts as one)", n.Timeouts)
	reg.CounterFunc(metricPrefix+"grants_total",
		"application requests granted by the protocol", n.Grants)
	reg.GaugeFunc(metricPrefix+"demand",
		"application requests issued and not yet granted", n.Demand)
	reg.GaugeFunc(metricPrefix+"stabilized",
		"1 when the last root census traversal saw the legitimate token population",
		func() int64 {
			if n.Stabilized() {
				return 1
			}
			return 0
		})
}

// inject places one raw frame on the link into p on channel ch, dropping
// (and counting) it if the link is full — injection must never block or
// crash the network it is attacking.
func (n *Net) inject(p, ch int, frame [message.FrameSize]byte) {
	select {
	case n.procs[p].inbox <- delivery{ch, frame}:
	default:
		n.framesDropped.Add(1)
	}
}

// InjectGarbage seeds up to the configuration's CMAX random well-formed
// protocol messages into every link. Before Start this is the paper's
// initial-channel fault model; after Start it is live churn — mid-run token
// corruption the controller must flush away while the network keeps serving.
// Frames that find a full link are dropped and counted, never blocked on.
func (n *Net) InjectGarbage(seed int64) {
	if n.opts.Journal != nil {
		n.opts.Journal.Record(obs.KindFaultInjected, -1, seed, 0)
	}
	rng := rand.New(rand.NewSource(seed))
	for p, pr := range n.procs {
		for ch := range pr.out {
			for i := rng.Intn(n.cfg.CMAX + 1); i > 0; i-- {
				var frame [message.FrameSize]byte
				message.Encode(frame[:0], message.Random(rng, n.cfg.CounterMod(), n.cfg.L))
				n.inject(p, ch, frame)
			}
		}
	}
}

// InjectNoise seeds raw random byte frames (not necessarily well-formed)
// into random links, exercising the wire layer's rejection path. Like
// InjectGarbage it may be called before Start (initial noise) or mid-run
// (live interference), and drops rather than blocks on a full link.
func (n *Net) InjectNoise(seed int64, frames int) {
	if n.opts.Journal != nil {
		n.opts.Journal.Record(obs.KindFaultInjected, -1, seed, int64(frames))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < frames; i++ {
		p := rng.Intn(len(n.procs))
		ch := rng.Intn(len(n.procs[p].out))
		var frame [message.FrameSize]byte
		rng.Read(frame[:])
		n.inject(p, ch, frame)
	}
}
