package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"kofl/internal/core"
	"kofl/internal/obs"
	"kofl/internal/runtime"
	"kofl/internal/serve"
	"kofl/internal/tree"
)

// The serve scenario every workload shares: the paper's 8-process tree with
// k=3, ℓ=5 and default server options, reached over loopback TCP. Two
// connections, fixed rather than derived from nproc, so that records
// compare across machines.
const (
	serveK     = 3
	serveL     = 5
	serveConns = 2
)

// serveSpec is one traffic shape.
type serveSpec struct {
	name    string
	rate    float64 // open loop: acquires per second on a fixed schedule
	callers int     // closed loop: callers per connection, each waiting for its reply
	faults  bool    // inject garbage every faultPeriod, then a fault-free tail
}

var (
	serveOpen800   = serveSpec{name: "open_800", rate: 800}
	serveClosed32  = serveSpec{name: "closed_32", callers: 16}
	serveFaults400 = serveSpec{name: "faults_400", rate: 400, faults: true}
)

const (
	faultPeriod = 500 * time.Millisecond
	// faultTailShare is the fault-free share at the end of a faults window
	// (2 s of the issue's 15 s): the watermark is reset once the tree has
	// re-stabilized and must then stay within ℓ.
	faultTailShare = 2.0 / 15
	// warmShare of every window is served but not sampled (1 s of 13 s).
	warmShare = 1.0 / 13
	// lateFlagMS flags a run whose open-loop generator fell this far behind
	// its own schedule: its latencies then measure the generator.
	lateFlagMS = 50
	probeEvery = 10 * time.Millisecond
)

// startServer builds and starts the lease server and waits until the tree
// has stabilized; the elapsed time is the serve share of setup_s.
func startServer(spec serveSpec) (*serve.Server, time.Duration, error) {
	opts := serve.Options{K: serveK, L: serveL}
	if spec.faults {
		// Room for every lease event of a window between two fault edges.
		opts.JournalCapacity = 1 << 16
	}
	t0 := time.Now()
	srv, err := serve.New(tree.Paper(), opts)
	if err != nil {
		return nil, 0, err
	}
	if err := srv.Start(); err != nil {
		return nil, 0, err
	}
	for !srv.Ready() {
		if time.Since(t0) > 10*time.Second {
			srv.Close()
			return nil, 0, fmt.Errorf("serve: tree not stabilized 10s after Start")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return srv, time.Since(t0), nil
}

// netCounters snapshots the runtime's cumulative counters.
type netCounters struct {
	delivered, dropped, rejected, paced, timeouts int64
}

func readNet(n *runtime.Net) netCounters {
	return netCounters{n.FramesDelivered(), n.FramesDropped(), n.FramesRejected(), n.FramesPaced(), n.Timeouts()}
}

// serveWindow is what one window of traffic against one server measured.
type serveWindow struct {
	attempted, failed int64
	latMS             []float64 // acquire latency, sampled region only
	lateMS            []float64 // how late the open-loop generator sent
	grantsPerS        float64   // grants completed in the sampled region / its length
	statsRTTus        []float64
	queueDepthMax     int64
	stats0, stats1    serve.Stats
	net0, net1        netCounters
	faultMaxUnits     int64 // watermark while faults were being injected
	tailMaxUnits      int64 // watermark over the fault-free part
	restabMS          []float64
	problems          []string
}

// op is the outcome of one acquire/release pair.
type op struct {
	latMS   float64
	lateMS  float64
	grantAt time.Duration // since the window started; 0 = never granted
	failed  bool
	broken  string // a correctness violation, not just a refusal
}

// doOp runs one acquire and its release on c. sched is when the acquire was
// due: latency is timed from there, so a stalled server is charged for the
// requests that queued behind the stall.
func doOp(c *serve.Client, tr *tracer, start, sched time.Time, req int64, id string, units int) op {
	var o op
	root := tr.beginAt("loadgen.request", -1, req, sched)
	sent := time.Now()
	o.lateMS = float64(sent.Sub(sched)) / 1e6
	sp := tr.begin("serve.acquire", root, req)
	l, err := c.AcquireID(id, units, 0, 0)
	granted := time.Now()
	tr.end(sp)
	switch {
	case err != nil:
		o.failed = true
		if !isRefusal(err) {
			o.broken = "transport: " + err.Error()
		}
	case l.Units != units || l.ID == "":
		o.failed = true
		o.broken = fmt.Sprintf("grant %q has %d units, asked %d", l.ID, l.Units, units)
	default:
		o.latMS = float64(granted.Sub(sched)) / 1e6
		o.grantAt = granted.Sub(start)
	}
	if l != nil && l.ID != "" {
		sp = tr.begin("serve.release", root, req)
		if err := c.Release(l.ID); err != nil {
			o.failed = true
			o.broken = "release: " + err.Error()
		}
		tr.end(sp)
	}
	tr.end(root)
	return o
}

// runWindow drives spec's traffic against srv for dur and returns what it
// measured. With a tracer it also records spans and probes Stats.
func runWindow(srv *serve.Server, spec serveSpec, dur time.Duration, seed int64, tr *tracer) (*serveWindow, error) {
	w := &serveWindow{}
	clients := make([]*serve.Client, serveConns)
	for i := range clients {
		c, err := serve.Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}
	warm := time.Duration(float64(dur) * warmShare)
	w.stats0, w.net0 = srv.Stats(), readNet(srv.Net())
	srv.ResetMaxUnitsHeld()
	journalFrom := srv.Journal().Len()

	stopProbe := func() {}
	if tr != nil {
		stopProbe = startProbe(clients[0], tr, w)
	}
	start := time.Now()
	var ops []op
	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		if spec.callers > 0 {
			ops = closedLoop(clients, tr, start, dur, spec.callers, seed)
		} else {
			ops = openLoop(clients, tr, start, dur, spec.rate, seed)
		}
	}()
	if spec.faults {
		injectFaults(srv, start, dur, seed, journalFrom, w)
	}
	traffic.Wait()
	stopProbe()
	w.tailMaxUnits = srv.MaxUnitsHeld()
	if w.tailMaxUnits > serveL {
		w.problems = append(w.problems, fmt.Sprintf("max_units_held %d > ℓ=%d with no fault pending", w.tailMaxUnits, serveL))
	}
	w.stats1, w.net1 = srv.Stats(), readNet(srv.Net())

	region := dur - warm
	var granted float64
	for _, o := range ops {
		w.attempted++
		if o.failed {
			w.failed++
			if o.broken != "" && len(w.problems) < 8 {
				w.problems = append(w.problems, o.broken)
			}
			continue
		}
		if o.grantAt < warm {
			continue
		}
		w.latMS = append(w.latMS, o.latMS)
		w.lateMS = append(w.lateMS, o.lateMS)
		if o.grantAt < dur {
			granted++
		}
	}
	w.grantsPerS = granted / region.Seconds()
	return w, nil
}

// openLoop sends acquires on a fixed schedule whatever the server does:
// independent users do not wait for each other's replies.
func openLoop(clients []*serve.Client, tr *tracer, start time.Time, dur time.Duration, rate float64, seed int64) []op {
	gap := time.Duration(float64(time.Second) / rate)
	total := max(1, int(dur/gap))
	rng := rand.New(rand.NewSource(seed))
	units := make([]int, total)
	ids := make([]string, total)
	tag := start.UnixNano() // ids are dedupe keys: unique per window
	for i := range units {
		units[i] = 1 + rng.Intn(serveK)
		ids[i] = fmt.Sprintf("o%d-%d-%d", seed, tag, i)
	}
	ops := make([]op, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		sched := start.Add(time.Duration(i) * gap)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops[i] = doOp(clients[i%len(clients)], tr, start, sched, int64(i), ids[i], units[i])
		}()
	}
	waitOrCut(&wg, clients)
	return ops
}

// closedLoop runs callers that each wait for their grant, release it and
// ask again, so a slower server is offered less.
func closedLoop(clients []*serve.Client, tr *tracer, start time.Time, dur time.Duration, callers int, seed int64) []op {
	per := make([][]op, len(clients)*callers)
	tag := start.UnixNano()
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := clients[w%len(clients)]
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; time.Since(start) < dur; i++ {
				id := fmt.Sprintf("c%d-%d-%d-%d", seed, tag, w, i)
				o := doOp(c, tr, start, time.Now(), int64(w)<<32|int64(i), id, 1+rng.Intn(serveK))
				per[w] = append(per[w], o)
				if o.failed && o.broken != "" {
					return // a dead connection would otherwise spin
				}
			}
		}()
	}
	waitOrCut(&wg, clients)
	var ops []op
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops
}

// waitOrCut waits for the in-flight operations; if the server has lost some
// (none may hang the benchmark) it cuts the connections, which fails them.
func waitOrCut(wg *sync.WaitGroup, clients []*serve.Client) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		for _, c := range clients {
			c.Close()
		}
		<-done
	}
}

// isRefusal reports whether err is the server saying no (overload, deadline,
// draining) as opposed to the transport or the protocol breaking.
func isRefusal(err error) bool {
	for _, code := range []string{serve.CodeOverload, serve.CodeDeadline, serve.CodeDraining} {
		if errors.Is(err, serve.CodeErr(code)) {
			return true
		}
	}
	return false
}

// injectFaults floods the links with garbage every faultPeriod over the
// leading part of the window, then waits until the journal shows every
// injection repaired and restarts the safety watermark for the fault-free
// tail. journalFrom is the journal's length when the window began.
func injectFaults(srv *serve.Server, start time.Time, dur time.Duration, seed int64, journalFrom uint64, w *serveWindow) {
	span := time.Duration(float64(dur) * (1 - faultTailShare))
	period := min(faultPeriod, span/2)
	for i := 1; time.Duration(i)*period <= span; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * period)))
		srv.InjectGarbage(seed + int64(i))
	}
	unrepaired := 1
	for deadline := time.Now().Add(5 * time.Second); unrepaired > 0 && time.Now().Before(deadline); {
		time.Sleep(500 * time.Microsecond)
		w.restabMS, unrepaired = restabilizeTimes(journalSince(srv, journalFrom))
	}
	if unrepaired > 0 {
		w.problems = append(w.problems, fmt.Sprintf("%d injections not followed by a stabilized edge within 5s", unrepaired))
	}
	w.faultMaxUnits = srv.MaxUnitsHeld()
	srv.ResetMaxUnitsHeld()
}

// journalSince returns the journal entries recorded after the first from.
func journalSince(srv *serve.Server, from uint64) []obs.Entry {
	entries := srv.Journal().Snapshot()
	for i, e := range entries {
		if e.Seq >= from {
			return entries[i:]
		}
	}
	return nil
}

// startProbe asks the server for Stats every probeEvery on an existing
// connection: a round trip through session, frame and TCP with no protocol
// cycle in it, and a sample of the queue depth.
func startProbe(c *serve.Client, tr *tracer, w *serveWindow) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for n := int64(0); ; n++ {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			sp := tr.begin("serve.stats", -1, -1-n)
			t0 := time.Now()
			st, err := c.Stats()
			rtt := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return
			}
			w.statsRTTus = append(w.statsRTTus, float64(rtt)/1e3)
			w.queueDepthMax = max(w.queueDepthMax, st.QueueDepth)
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// restabilizeTimes derives repair times from the event journal: for every
// fault_injected entry, the time to the next stabilized edge that follows a
// destabilized one (or simply the next stabilized edge when the fault hit a
// tree that was still destabilized). unrepaired counts injections with no
// such edge after them. The entries must start with the tree stabilized.
func restabilizeTimes(entries []obs.Entry) (ms []float64, unrepaired int) {
	stable := true
	for i, e := range entries {
		switch e.Kind {
		case obs.KindStabilized:
			stable = true
		case obs.KindDestabilized:
			stable = false
		case obs.KindFaultInjected:
			broken := !stable
			repaired := false
			for _, f := range entries[i+1:] {
				if f.Kind == obs.KindDestabilized {
					broken = true
				}
				if f.Kind == obs.KindStabilized && broken {
					ms = append(ms, float64(f.Time-e.Time)/1e6)
					repaired = true
					break
				}
			}
			if !repaired {
				unrepaired++
			}
		}
	}
	return ms, unrepaired
}

// runtimeCycles times bare protocol cycles on the paper tree with the
// server's pacing and no TCP: Request → OnEnter, then Release, at a random
// process for 1..k units like the served traffic. The next cycle's Request
// is issued before the current one's Release, as a busy server's workers do,
// so that demand never drops to zero and no hop falls back to the idle pace.
// It is what one acquire costs in the protocol alone when it is the only one
// in flight. bootstrapMS is Start → first legitimate census.
func runtimeCycles(cycles int, seed int64, tr *tracer) (cycleUS []float64, bootstrapMS float64, err error) {
	t := tree.Paper()
	cfg := core.Config{K: serveK, L: serveL, N: t.N(), CMAX: 4, Features: core.Full()}
	net, err := runtime.New(t, cfg, runtime.Options{
		Timeout: serve.DefaultTimeout, Pace: serve.DefaultPace, IdlePace: serve.DefaultIdlePace,
	})
	if err != nil {
		return nil, 0, err
	}
	entered := make(chan int, t.N()) // room for one grant per process: OnEnter must not block
	for p := 0; p < t.N(); p++ {
		net.OnEnter(p, func(p int) { entered <- p })
	}
	t0 := time.Now()
	net.Start(context.Background())
	defer net.Stop()
	for !net.Stabilized() {
		if time.Since(t0) > 10*time.Second {
			return nil, 0, fmt.Errorf("runtime: not stabilized 10s after Start")
		}
		time.Sleep(100 * time.Microsecond)
	}
	bootstrapMS = float64(time.Since(t0)) / 1e6
	rng := rand.New(rand.NewSource(seed))
	holding := -1
	for i := 0; i <= cycles; i++ {
		p := rng.Intn(t.N())
		if p == holding {
			p = (p + 1) % t.N() // still in its critical section
		}
		sp := tr.begin("runtime.cycle", -1, int64(i))
		c0 := time.Now()
		if err := net.Request(p, 1+rng.Intn(serveK)); err != nil {
			return nil, 0, fmt.Errorf("runtime: cycle %d refused: %w", i, err)
		}
		if holding >= 0 {
			net.Release(holding)
		}
		select {
		case got := <-entered:
			if got != p {
				return nil, 0, fmt.Errorf("runtime: cycle %d: process %d entered, %d had asked", i, got, p)
			}
		case <-time.After(10 * time.Second):
			return nil, 0, fmt.Errorf("runtime: cycle %d never granted", i)
		}
		tr.end(sp)
		if i > 0 { // the first cycle started from an idle network
			cycleUS = append(cycleUS, float64(time.Since(c0))/1e3)
		}
		holding = p
	}
	net.Release(holding)
	return cycleUS, bootstrapMS, nil
}
