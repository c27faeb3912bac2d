package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kofl/internal/core"
	"kofl/internal/obs"
	"kofl/internal/runtime"
	"kofl/internal/tree"
)

// Defaults for the zero Options values.
const (
	DefaultQueueDepth   = 64
	DefaultDedupeTTL    = 30 * time.Second
	DefaultLeaseTTL     = 10 * time.Second
	DefaultDrainTimeout = 5 * time.Second
	DefaultTimeout      = runtime.DefaultTimeout
	DefaultPace         = 10 * time.Microsecond
	DefaultIdlePace     = time.Millisecond
)

// Options configures a lease server.
type Options struct {
	// K is the per-lease unit cap, L the number of resource units
	// (1 ≤ K ≤ L); CMAX bounds initial channel garbage (default 4).
	K, L, CMAX int
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Timeout is the root's retransmission timeout (default DefaultTimeout).
	// The root fires once at Start, as the simulator's fast-forward does, so
	// Ready does not wait it out. Tightening it below a few milliseconds is
	// counterproductive: retransmission storms churn the tree and grant
	// latency rises.
	Timeout time.Duration
	// IdlePace is the beat each process holds protocol frames for while no
	// acquire is waiting on the protocol and the tree is stabilized; an
	// arriving acquire cuts every hold short. Pace is the average delay per
	// frame and process otherwise, delivered at once and slept off in 1ms
	// rests (defaults 10µs and 1ms; negative disables). Without pacing the
	// token circulation spins a full core even when every client is idle
	// or holding, starving the serving goroutines of CPU — the dominant
	// cost of the serve path. See runtime.Options.
	Pace     time.Duration
	IdlePace time.Duration
	// QueueDepth bounds each process's pending-acquire queue (default 64);
	// an acquire finding its routed queue AND the fallback queue full is
	// rejected with ErrOverload.
	QueueDepth int
	// DedupeTTL is how long a completed acquire response is replayed to
	// retries of the same request id (default 30s).
	DedupeTTL time.Duration
	// LeaseTTL is the default and maximum lease duration; an unreleased
	// lease is auto-released when it expires (default 10s).
	LeaseTTL time.Duration
	// DrainTimeout bounds how long Shutdown waits for clients to release
	// outstanding leases before force-releasing them (default 5s).
	DrainTimeout time.Duration
	// DebugAddr, when non-empty, serves the operational debug surface on
	// this address: the unified /metrics (serve + runtime series),
	// /debug/pprof/*, /debug/events (the recent event journal as JSON), and
	// /healthz + /readyz (ready = tree stabilized and not draining).
	DebugAddr string
	// JournalCapacity bounds the event journal's ring (default 1024
	// entries). The journal records lease lifecycle, stabilization
	// transitions, root timeouts, drain, and fault injections.
	JournalCapacity int
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.Pace == 0 {
		o.Pace = DefaultPace
	} else if o.Pace < 0 {
		o.Pace = 0
	}
	if o.IdlePace == 0 {
		o.IdlePace = DefaultIdlePace
	} else if o.IdlePace < 0 {
		o.IdlePace = 0
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.DedupeTTL <= 0 {
		o.DedupeTTL = DefaultDedupeTTL
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	if o.JournalCapacity <= 0 {
		o.JournalCapacity = 1024
	}
	return o
}

// Server is a lease server over one live protocol tree. Build with New,
// launch with Start, stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	opts Options
	tr   *tree.Tree
	net  *runtime.Net

	ln      net.Listener
	debug   *http.Server
	debugLn net.Listener

	procs   []*procServer
	loadIdx *loadIndex
	dedupe  *dedupeStore
	met     *metrics
	reg     *obs.Registry
	journal *obs.Journal

	leases   [dedupeShards]leaseShard
	leaseSeq atomic.Int64
	sessSeq  atomic.Int64
	sessMu   sync.Mutex
	sessions map[*session]struct{}

	draining atomic.Bool
	started  atomic.Bool
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
}

// leaseShard is one stripe of the lease registry, hashed by lease id.
type leaseShard struct {
	mu sync.Mutex
	m  map[string]*lease
}

// procServer is the per-tree-process serving state: a bounded acquire queue
// drained by one worker goroutine into batched protocol cycles (the protocol
// interface of one process is Out→Req→In→Out, one cycle at a time — but one
// cycle may carry Σunits ≤ k across several client acquires).
type procServer struct {
	p     int
	s     *Server
	queue chan *pendingAcquire
	enter chan struct{}
	carry *pendingAcquire   // popped but did not fit the previous batch
	batch []*pendingAcquire // collection scratch, capacity k
	corks []corkedReply     // per-session reply coalescing scratch
}

// corkedReply accumulates the encoded grant frames bound for one session so
// the batch fan-out writes each connection once.
type corkedReply struct {
	ss  *session
	buf *[]byte
}

// lease is one outstanding grant: a sub-lease of its batch's cycle.
type lease struct {
	id    string
	p     int
	units int
	timer *time.Timer
	b     *batch
	once  sync.Once
}

// New builds a lease server for the full self-stabilizing protocol over tr.
// Call Start to bind the listener and launch the network.
func New(tr *tree.Tree, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	cmax := opts.CMAX
	if cmax == 0 {
		cmax = 4
	}
	cfg := core.Config{K: opts.K, L: opts.L, N: tr.N(), CMAX: cmax, Features: core.Full()}
	journal := obs.NewJournal(opts.JournalCapacity, func() int64 { return time.Now().UnixNano() })
	n, err := runtime.New(tr, cfg, runtime.Options{
		Timeout:  opts.Timeout,
		Pace:     opts.Pace,
		IdlePace: opts.IdlePace,
		Journal:  journal,
	})
	if err != nil {
		return nil, err
	}
	// One unified registry: the kofl_serve_* series first (their historical
	// exposition order preserved), then the runtime's kofl_runtime_* series.
	reg := obs.NewRegistry()
	s := &Server{
		opts:     opts,
		tr:       tr,
		net:      n,
		loadIdx:  newLoadIndex(tr.N()),
		dedupe:   newDedupeStore(opts.DedupeTTL),
		met:      newMetrics(reg),
		reg:      reg,
		journal:  journal,
		sessions: make(map[*session]struct{}),
	}
	n.Register(reg)
	for i := range s.leases {
		s.leases[i].m = make(map[string]*lease)
	}
	s.procs = make([]*procServer, tr.N())
	for p := 0; p < tr.N(); p++ {
		ps := &procServer{
			p:     p,
			s:     s,
			queue: make(chan *pendingAcquire, opts.QueueDepth),
			enter: make(chan struct{}, 4),
			batch: make([]*pendingAcquire, 0, opts.K),
			corks: make([]corkedReply, 0, opts.K),
		}
		// The grant signal runs on the process goroutine: never block it.
		n.OnEnter(p, func(int) {
			select {
			case ps.enter <- struct{}{}:
			default:
			}
		})
		s.procs[p] = ps
	}
	return s, nil
}

// Start launches the protocol network, the per-process workers, the TCP
// accept loop and (if configured) the HTTP debug surface.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("serve: Start called twice")
	}
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.opts.DebugAddr != "" {
		dln, err := net.Listen("tcp", s.opts.DebugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.debugLn = dln
		s.debug = &http.Server{Handler: s.debugMux()}
		go s.debug.Serve(dln)
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.net.Start(s.ctx)
	for _, ps := range s.procs {
		s.wg.Add(1)
		go ps.run()
	}
	s.wg.Add(1)
	go s.accept()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// DebugAddr returns the bound debug-surface address ("" if disabled).
func (s *Server) DebugAddr() string {
	if s.debugLn == nil {
		return ""
	}
	return s.debugLn.Addr().String()
}

// Net exposes the underlying live network (counters, injection).
func (s *Server) Net() *runtime.Net { return s.net }

// InjectGarbage floods the tree's links with well-formed garbage tokens
// mid-run — the churn fault model the integration tests recover from.
func (s *Server) InjectGarbage(seed int64) { s.net.InjectGarbage(seed) }

// InjectNoise floods random links with raw byte noise mid-run.
func (s *Server) InjectNoise(seed int64, frames int) { s.net.InjectNoise(seed, frames) }

// UnitsHeld returns the resource units currently leased out.
func (s *Server) UnitsHeld() int64 { return s.met.unitsHeld.Load() }

// MaxUnitsHeld returns the high-water mark of UnitsHeld since the last
// ResetMaxUnitsHeld — the safety watermark the integration tests assert
// against ℓ.
func (s *Server) MaxUnitsHeld() int64 { return s.met.maxUnitsHeld.Load() }

// ResetMaxUnitsHeld restarts the safety watermark (used by tests to scope
// the ≤ℓ assertion to the post-re-stabilization window).
func (s *Server) ResetMaxUnitsHeld() { s.met.maxUnitsHeld.Store(s.met.unitsHeld.Load()) }

// accept hands every connection to a session goroutine. Sessions carry no
// process affinity — every acquire is routed at admission time.
func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		ss := &session{id: s.sessSeq.Add(1), conn: conn, s: s}
		s.met.sessions.Add(1)
		s.met.sessionsActive.Add(1)
		s.wg.Add(1)
		go ss.run()
	}
}

// admit routes one acquire to the least-loaded process and enqueues it.
// The overload check sits BEHIND routing: only when the routed queue and
// the wrap-around fallback queue are both full is the acquire shed, so one
// hot queue no longer rejects work that an idle process could take.
func (s *Server) admit(pa *pendingAcquire) bool {
	units := pa.req.Units
	p := s.loadIdx.pick()
	for attempt := 0; ; attempt++ {
		pa.p = p
		s.loadIdx.add(p, units)
		select {
		case s.procs[p].queue <- pa:
			s.met.queueDepth.Add(1)
			return true
		default:
			s.loadIdx.add(p, -units)
			if attempt == 1 {
				return false
			}
			p = s.loadIdx.next(p)
		}
	}
}

// Stats is the live counter snapshot served to stats frames (and the base
// of the load generator's report).
type Stats struct {
	K int `json:"k"`
	L int `json:"l"`
	N int `json:"n"`

	Sessions       int64 `json:"sessions"`
	SessionsActive int64 `json:"sessions_active"`
	QueueDepth     int64 `json:"queue_depth"`
	Leases         int64 `json:"leases_outstanding"`
	UnitsHeld      int64 `json:"units_held"`
	MaxUnitsHeld   int64 `json:"max_units_held"`

	Acquires        int64 `json:"acquires"`
	Grants          int64 `json:"grants"`
	Batches         int64 `json:"batches"`
	BatchUnits      int64 `json:"batch_units"`
	Releases        int64 `json:"releases"`
	Expired         int64 `json:"leases_expired"`
	Overloads       int64 `json:"rejects_overload"`
	DeadlineRejects int64 `json:"rejects_deadline"`
	DrainingRejects int64 `json:"rejects_draining"`
	DedupeHits      int64 `json:"dedupe_hits"`
	Malformed       int64 `json:"malformed"`

	FramesDelivered int64 `json:"frames_delivered"`
	FramesRejected  int64 `json:"frames_rejected"`
	FramesDropped   int64 `json:"frames_dropped"`

	LatencyP50us int64 `json:"latency_p50_us"`
	LatencyP95us int64 `json:"latency_p95_us"`
	LatencyP99us int64 `json:"latency_p99_us"`
	LatencyCount int64 `json:"latency_count"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	p50, p95, p99, count := s.met.quantiles()
	return Stats{
		K: s.opts.K, L: s.opts.L, N: s.tr.N(),

		Sessions:       s.met.sessions.Load(),
		SessionsActive: s.met.sessionsActive.Load(),
		QueueDepth:     s.met.queueDepth.Load(),
		Leases:         s.met.leases.Load(),
		UnitsHeld:      s.met.unitsHeld.Load(),
		MaxUnitsHeld:   s.met.maxUnitsHeld.Load(),

		Acquires:        s.met.acquires.Load(),
		Grants:          s.met.grants.Load(),
		Batches:         s.met.batches.Load(),
		BatchUnits:      s.met.batchUnits.Load(),
		Releases:        s.met.releases.Load(),
		Expired:         s.met.expired.Load(),
		Overloads:       s.met.overloads.Load(),
		DeadlineRejects: s.met.deadlineRejs.Load(),
		DrainingRejects: s.met.drainingRejs.Load(),
		DedupeHits:      s.met.dedupeHits.Load(),
		Malformed:       s.met.malformed.Load(),

		FramesDelivered: s.net.FramesDelivered(),
		FramesRejected:  s.net.FramesRejected(),
		FramesDropped:   s.net.FramesDropped(),

		LatencyP50us: p50, LatencyP95us: p95, LatencyP99us: p99, LatencyCount: count,
	}
}

// WriteMetrics renders the unified Prometheus-style exposition: the
// kofl_serve_* series plus the runtime's kofl_runtime_* series.
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.reg.WriteProm(w)
}

// Registry exposes the server's unified metric registry (e.g. for embedding
// its exposition elsewhere).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Journal exposes the server's event journal.
func (s *Server) Journal() *obs.Journal { return s.journal }

// Ready reports the /readyz condition: the protocol tree has stabilized
// (the root's last census traversal saw the legitimate token population)
// and the server is not draining.
func (s *Server) Ready() bool {
	return s.net.Stabilized() && !s.draining.Load()
}

// trackSession / dropSession keep the open-session set so Close can unblock
// every read loop by closing its connection.
func (s *Server) trackSession(ss *session) {
	s.sessMu.Lock()
	s.sessions[ss] = struct{}{}
	s.sessMu.Unlock()
}

func (s *Server) dropSession(ss *session) {
	s.sessMu.Lock()
	delete(s.sessions, ss)
	s.sessMu.Unlock()
}

func (s *Server) leaseShard(id string) *leaseShard {
	return &s.leases[fnv1a(id)%dedupeShards]
}

// newLease registers a sub-lease of batch b and arms its expiry timer.
func (s *Server) newLease(b *batch, units int, ttl time.Duration) *lease {
	l := &lease{
		id:    fmt.Sprintf("L%d", s.leaseSeq.Add(1)),
		p:     b.p,
		units: units,
		b:     b,
	}
	sh := s.leaseShard(l.id)
	// Arm the timer under the shard lock: the expiry callback reads l.timer
	// via releaseLease, which takes the same lock, so a near-instant expiry
	// cannot race the assignment.
	sh.mu.Lock()
	sh.m[l.id] = l
	l.timer = time.AfterFunc(ttl, func() { s.releaseLease(l, "expired") })
	sh.mu.Unlock()
	return l
}

// lookupLease resolves a lease id (nil if unknown or already released).
func (s *Server) lookupLease(id string) *lease {
	sh := s.leaseShard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m[id]
}

// outstandingLeases snapshots every live lease (drain paths).
func (s *Server) outstandingLeases() []*lease {
	var out []*lease
	for i := range s.leases {
		sh := &s.leases[i]
		sh.mu.Lock()
		for _, l := range sh.m {
			out = append(out, l)
		}
		sh.mu.Unlock()
	}
	return out
}

func (s *Server) leaseCount() int {
	n := 0
	for i := range s.leases {
		s.leases[i].mu.Lock()
		n += len(s.leases[i].m)
		s.leases[i].mu.Unlock()
	}
	return n
}

// releaseLease tears a lease down exactly once: resolves its batch member
// (the batch hands the units back to the protocol when its last member
// resolves), unloads the routing index, and accounts the teardown under
// how ("client", "expired", "drain").
func (s *Server) releaseLease(l *lease, how string) {
	l.once.Do(func() {
		sh := s.leaseShard(l.id)
		sh.mu.Lock()
		timer := l.timer
		delete(sh.m, l.id)
		sh.mu.Unlock()
		if timer != nil {
			timer.Stop()
		}
		s.met.release(l.units, how)
		s.journal.Record(obs.KindLeaseRelease, int32(l.p), int64(l.units), releaseCause(how))
		s.loadIdx.add(l.p, -l.units)
		l.b.memberDone()
	})
}

// leaseTTL clamps a requested lease duration to the server maximum.
func (s *Server) leaseTTL(requestedMS int64) time.Duration {
	ttl := s.opts.LeaseTTL
	if requestedMS > 0 {
		if r := time.Duration(requestedMS) * time.Millisecond; r < ttl {
			ttl = r
		}
	}
	return ttl
}

// run is the per-process worker: it drains the acquire queue into batched
// protocol cycles, one cycle at a time (the protocol interface of a process
// is strictly Out→Req→In→Out).
func (ps *procServer) run() {
	s := ps.s
	defer s.wg.Done()
	for {
		var first *pendingAcquire
		if ps.carry != nil {
			first, ps.carry = ps.carry, nil
		} else {
			select {
			case <-s.ctx.Done():
				ps.drainQueue()
				return
			case first = <-ps.queue:
				s.met.queueDepth.Add(-1)
			}
		}
		members, sum := ps.collect(first)
		if len(members) > 0 {
			ps.serveBatch(members, sum)
		}
	}
}

// collect greedily drains the queue into one batch: members join while
// Σunits stays ≤ k (so a batch has at most k members); draining/expired
// acquires are rejected on the spot; the first acquire that does not fit is
// carried into the next cycle. Collection never blocks — a lone acquire is
// served as a batch of one rather than waiting for company.
func (ps *procServer) collect(first *pendingAcquire) (members []*pendingAcquire, sum int) {
	s := ps.s
	members = ps.batch[:0]
	pa := first
	for {
		switch {
		case s.draining.Load():
			ps.reject(pa, CodeDraining, "server shutting down")
		case !pa.deadline.IsZero() && time.Now().After(pa.deadline):
			ps.reject(pa, CodeDeadline, "deadline passed while queued")
		case sum+pa.req.Units > s.opts.K:
			ps.carry = pa
			return members, sum
		default:
			members = append(members, pa)
			sum += pa.req.Units
		}
		select {
		case pa = <-ps.queue:
			s.met.queueDepth.Add(-1)
		default:
			return members, sum
		}
	}
}

// drainQueue rejects the carried acquire and everything still queued at
// shutdown.
func (ps *procServer) drainQueue() {
	if ps.carry != nil {
		ps.reject(ps.carry, CodeDraining, "server shutting down")
		ps.carry = nil
	}
	for {
		select {
		case pa := <-ps.queue:
			ps.s.met.queueDepth.Add(-1)
			ps.reject(pa, CodeDraining, "server shutting down")
		default:
			return
		}
	}
}

// reject answers pa with an error code, unloads its routing claim, and
// releases its dedupe claim so an honest retry is admitted fresh.
func (ps *procServer) reject(pa *pendingAcquire, code, detail string) {
	s := ps.s
	switch code {
	case CodeOverload:
		s.met.overloads.Add(1)
	case CodeDeadline:
		s.met.deadlineRejs.Add(1)
	case CodeDraining:
		s.met.drainingRejs.Add(1)
	}
	s.loadIdx.add(pa.p, -pa.req.Units)
	s.dedupe.forget(pa.req.ID)
	pa.sess.reply(Response{ID: pa.req.ID, Err: code, Detail: detail})
	putPending(pa)
}

// serveBatch runs one protocol cycle for the collected members: a single
// multi-unit request, the grant fanned out as one sub-lease per member
// (replies corked per connection), then the wait for the batch to resolve.
// Client hold time still spans the cycle, but it is amortized over every
// member instead of dedicating a full cycle to each lease.
func (ps *procServer) serveBatch(members []*pendingAcquire, sum int) {
	s := ps.s
	// A stale enter signal (absorbed by the buffered channel during
	// stabilization churn) must not masquerade as this cycle's grant.
	for {
		select {
		case <-ps.enter:
			continue
		default:
		}
		break
	}
	if err := s.net.Request(ps.p, sum); err != nil {
		// The worker serializes this process's interface, so a refusal is a
		// server bug or a corrupted state mid-stabilization; shed the batch
		// rather than wedge the queue.
		detail := "protocol refused request: " + err.Error()
		for _, pa := range members {
			ps.reject(pa, CodeOverload, detail)
		}
		return
	}
	select {
	case <-ps.enter:
	case <-s.ctx.Done():
		for _, pa := range members {
			ps.reject(pa, CodeDraining, "server stopped before grant")
		}
		return
	}

	now := time.Now()
	b := newBatch(ps.p, len(members), sum, func() { s.net.Release(ps.p) })
	s.met.batch(sum)
	leases := make([]*lease, 0, len(members))
	corks := ps.corks[:0]
	drainingNow := s.draining.Load()
	for _, pa := range members {
		if drainingNow || (!pa.deadline.IsZero() && now.After(pa.deadline)) {
			// Granted too late: resolve the member straight away; its units
			// ride out this cycle unused and return with the batch.
			code, detail := CodeDeadline, "deadline passed before grant"
			if drainingNow {
				code, detail = CodeDraining, "server shutting down"
			}
			ps.reject(pa, code, detail)
			b.memberDone()
			continue
		}
		l := s.newLease(b, pa.req.Units, s.leaseTTL(pa.req.LeaseMS))
		leases = append(leases, l)
		resp := Response{ID: pa.req.ID, OK: true, Lease: l.id, Units: pa.req.Units, Process: ps.p}
		s.dedupe.complete(pa.req.ID, &resp, now)
		latencyUS := now.Sub(pa.enqueued).Microseconds()
		s.met.grant(pa.req.Units, latencyUS)
		s.journal.Record(obs.KindLeaseGrant, int32(ps.p), int64(pa.req.Units), latencyUS)
		corks = corkReply(corks, pa.sess, &resp)
		putPending(pa)
	}
	for i := range corks {
		corks[i].ss.writeRaw(*corks[i].buf)
		putFrameBuf(corks[i].buf)
		corks[i] = corkedReply{}
	}
	select {
	case <-b.done:
	case <-s.ctx.Done():
		// Immediate Close may have swept the lease registry before this
		// batch's leases registered; resolve them ourselves rather than
		// park until their TTLs.
		for _, l := range leases {
			s.releaseLease(l, "drain")
		}
		<-b.done
	}
}

// corkReply appends resp's frame to the buffer bound for ss, opening a new
// one on ss's first reply of this batch.
func corkReply(corks []corkedReply, ss *session, resp *Response) []corkedReply {
	for i := range corks {
		if corks[i].ss == ss {
			*corks[i].buf = appendResponseFrame(*corks[i].buf, resp)
			return corks
		}
	}
	buf := getFrameBuf()
	*buf = appendResponseFrame(*buf, resp)
	return append(corks, corkedReply{ss: ss, buf: buf})
}

// Shutdown drains gracefully: stop accepting, reject queued and new
// acquires, give clients up to DrainTimeout (bounded further by ctx) to
// release outstanding leases, force-release the rest, then stop everything.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.started.Load() {
		return fmt.Errorf("serve: Shutdown before Start")
	}
	if !s.draining.Swap(true) {
		s.journal.Record(obs.KindDrain, -1, int64(s.leaseCount()), 0)
	}
	s.ln.Close()
	// Nudge the workers: anything queued is rejected by the workers' drain
	// checks as it surfaces; now wait for lease teardown.
	deadline := time.After(s.opts.DrainTimeout)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		if s.leaseCount() == 0 {
			break
		}
		select {
		case <-tick.C:
		case <-deadline:
			break wait
		case <-ctx.Done():
			break wait
		}
	}
	// Force-release whatever clients did not return in time.
	for _, l := range s.outstandingLeases() {
		s.releaseLease(l, "drain")
	}
	s.Close()
	return ctx.Err()
}

// Close stops the server immediately: listener, leases, sessions, workers,
// network. Shutdown calls it after draining; calling it directly skips the
// drain (outstanding leases are force-released so no worker stays parked).
func (s *Server) Close() {
	if !s.started.Load() {
		return
	}
	if !s.draining.Swap(true) {
		s.journal.Record(obs.KindDrain, -1, int64(s.leaseCount()), 0)
	}
	s.ln.Close()
	if s.debug != nil {
		s.debug.Close()
	}
	// Force-release outstanding leases while the process goroutines still
	// run (the batch teardown talks to them), unblocking parked workers.
	for _, l := range s.outstandingLeases() {
		s.releaseLease(l, "drain")
	}
	s.cancel()
	s.net.Stop()
	// Unblock every session read loop.
	s.sessMu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		open = append(open, ss)
	}
	s.sessMu.Unlock()
	for _, ss := range open {
		ss.conn.Close()
	}
	s.wg.Wait()
}
