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
)

// The server's delivery pacing, passed to runtime.Options. DefaultIdlePace
// is the beat each process holds protocol frames for while no acquire is
// waiting on the protocol and the tree is stabilized; an arriving acquire
// cuts every hold short. DefaultPace is the average delay per frame and
// process otherwise, delivered at once and slept off in 1ms rests. Without
// pacing the token circulation spins a full core even when every client is
// idle or holding, starving the serving goroutines of CPU.
const (
	DefaultPace     = 10 * time.Microsecond
	DefaultIdlePace = time.Millisecond
)

// Options configures a lease server. Delivery pacing is not among them: the
// server always runs DefaultPace and DefaultIdlePace.
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
	// QueueDepth bounds the acquires waiting at each process, queued or in
	// a cycle awaiting its grant (default 64); an acquire finding its routed
	// process AND the fallback process full is rejected with ErrOverload.
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

	sessMu   sync.Mutex
	sessions map[*session]struct{} // open sessions, for Close to unblock

	draining atomic.Bool
	started  atomic.Bool
	wg       sync.WaitGroup
}

// New builds a lease server for the full self-stabilizing protocol over tr.
// Call Start to bind the listener and launch the network.
func New(tr *tree.Tree, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	cmax := opts.CMAX
	if cmax == 0 {
		cmax = core.DefaultCMAX
	}
	cfg := core.Config{K: opts.K, L: opts.L, N: tr.N(), CMAX: cmax, Features: core.Full()}
	journal := obs.NewJournal(opts.JournalCapacity, func() int64 { return time.Now().UnixNano() })
	n, err := runtime.New(tr, cfg, runtime.Options{
		Timeout:  opts.Timeout,
		Pace:     DefaultPace,
		IdlePace: DefaultIdlePace,
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
		net:      n,
		loadIdx:  newLoadIndex(tr.N()),
		dedupe:   newDedupeStore(opts.DedupeTTL),
		reg:      reg,
		journal:  journal,
		sessions: make(map[*session]struct{}),
	}
	s.met = newMetrics(reg, s.queueDepth)
	n.Register(reg)
	s.procs = make([]*procServer, tr.N())
	for p := 0; p < tr.N(); p++ {
		ps := &procServer{
			p:       p,
			s:       s,
			handoff: make(chan *pendingAcquire, opts.QueueDepth),
			enter:   make(chan struct{}, 1),
			ctl:     make(chan ctlMsg),
			done:    make(chan struct{}),
		}
		ps.led = ledger{p: p, k: opts.K, ttl: opts.LeaseTTL, env: ps}
		// Only an asked cycle's grant, read before the next ask: never full.
		n.OnEnter(p, func(int) { ps.enter <- struct{}{} })
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
	s.net.Start(context.Background())
	for _, ps := range s.procs {
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

// Corrupt overwrites process p's protocol state with snap mid-run — the
// process fault of the paper's model (runtime.Net.Corrupt).
func (s *Server) Corrupt(p int, snap core.Snapshot) { s.net.Corrupt(p, snap) }

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
		ss := &session{conn: conn, s: s}
		s.met.sessions.Add(1)
		s.met.sessionsActive.Add(1)
		s.wg.Add(1)
		go ss.run()
	}
}

// admit routes one acquire to the least-loaded process and hands it off.
// The overload check sits BEHIND routing: only when the routed process and
// the wrap-around fallback both have QueueDepth acquires waiting is the
// acquire shed, so one hot process no longer rejects work that an idle one
// could take. The reservation bounds the handoff too: it is never full.
func (s *Server) admit(pa *pendingAcquire) bool {
	p := s.loadIdx.pick()
	for attempt := 0; ; attempt++ {
		ps := s.procs[p]
		if ps.waiting.Add(1) <= int64(s.opts.QueueDepth) {
			s.loadIdx.add(p, pa.req.Units)
			ps.handoff <- pa
			return true
		}
		ps.waiting.Add(-1)
		if attempt == 1 {
			return false
		}
		p = s.loadIdx.next(p)
	}
}

// queueDepth is the number of acquires waiting across all processes.
func (s *Server) queueDepth() (n int64) {
	for _, ps := range s.procs {
		n += ps.waiting.Load()
	}
	return n
}

// reject answers pa with an error code, counts it, and releases its dedupe
// claim so an honest retry is admitted fresh.
func (s *Server) reject(pa *pendingAcquire, code, detail string) {
	switch code {
	case CodeOverload:
		s.met.overloads.Add(1)
	case CodeDeadline:
		s.met.deadlineRejs.Add(1)
	case CodeDraining:
		s.met.drainingRejs.Add(1)
	}
	s.dedupe.forget(pa.req.ID)
	pa.sess.reply(Response{ID: pa.req.ID, Err: code, Detail: detail})
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
	var lat [len(latencyQuantiles)]int64
	count := s.met.latency.Quantiles(latencyQuantiles[:], lat[:])
	return Stats{
		K: s.opts.K, L: s.opts.L, N: len(s.procs),

		Sessions:       s.met.sessions.Load(),
		SessionsActive: s.met.sessionsActive.Load(),
		QueueDepth:     s.queueDepth(),
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

		LatencyP50us: lat[0], LatencyP95us: lat[1], LatencyP99us: lat[2], LatencyCount: count,
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

// stopWorkers sends every worker the drain time at and waits, bounded by
// ctx, for them to exit: each answers its waiting members at once and
// force-releases the leases still held at `at`.
func (s *Server) stopWorkers(ctx context.Context, at time.Time) {
	for _, ps := range s.procs {
		select {
		case ps.ctl <- ctlMsg{drain: at}:
		case <-ps.done:
		case <-ctx.Done():
			return
		}
	}
	for _, ps := range s.procs {
		select {
		case <-ps.done:
		case <-ctx.Done():
			return
		}
	}
}

// beginDrain flips the server to draining (once) and stops accepting.
func (s *Server) beginDrain() {
	if !s.draining.Swap(true) {
		s.journal.Record(obs.KindDrain, -1, s.met.leases.Load(), 0)
	}
	s.ln.Close()
}

// Shutdown drains gracefully: stop accepting, answer every waiting and new
// acquire ErrDraining at once (queued or in a cycle awaiting its grant),
// give clients up to DrainTimeout (bounded further by ctx) to release
// outstanding leases, force-release the rest, then stop everything.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.started.Load() {
		return fmt.Errorf("serve: Shutdown before Start")
	}
	s.beginDrain()
	s.stopWorkers(ctx, time.Now().Add(s.opts.DrainTimeout))
	s.Close()
	return ctx.Err()
}

// Close stops the server immediately: listener, sessions, leases, workers,
// network. Shutdown calls it after draining; calling it directly skips the
// drain (outstanding leases are force-released at once).
func (s *Server) Close() {
	if !s.started.Load() {
		return
	}
	s.beginDrain()
	if s.debug != nil {
		s.debug.Close()
	}
	// Unblock every session read loop, and any worker write to a slow
	// reader, before the workers are asked to stop.
	s.sessMu.Lock()
	for ss := range s.sessions {
		ss.conn.Close()
	}
	s.sessMu.Unlock()
	// The workers force-release while the process goroutines still run (a
	// cycle's release talks to them).
	s.stopWorkers(context.Background(), time.Now())
	s.net.Stop()
	s.wg.Wait()
}
