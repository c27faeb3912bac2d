// Command koflserve runs a k-out-of-ℓ exclusion resource-lease server: a
// live protocol tree behind a TCP endpoint speaking the serve protocol
// (length-prefixed JSON; acquire/release/stats), with bounded per-process
// queues, idempotent acquire, lease expiry and an optional HTTP debug surface
// (Prometheus-style /metrics, health probes, event journal, pprof).
//
// With -load R the command instead runs a self-contained load test: it
// starts the server, drives an open-loop generator at R acquires/sec
// against it for -load-duration, prints the latency/throughput report as
// JSON and exits non-zero if the run observed any protocol violation.
//
// Exit codes follow the koflcampaign convention: 2 with a usage hint for
// malformed flags, 1 for runtime errors, 0 on success.
//
// Examples:
//
//	koflserve -topo paper -k 3 -l 5 -addr 127.0.0.1:7700
//	koflserve -topo star -n 8 -k 2 -l 3 -debug-addr 127.0.0.1:7701
//	koflserve -topo paper -k 3 -l 5 -load 200 -load-duration 2s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kofl"
	"kofl/internal/core"
	"kofl/internal/serve"
	"kofl/internal/serve/loadgen"
	"kofl/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "koflserve:", err)
		if _, ok := err.(usageError); ok {
			fs, _ := flags()
			fs.SetOutput(os.Stderr)
			fs.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks errors that exit with status 2 and a usage hint — the
// koflcampaign exit-code convention.
type usageError string

func (e usageError) Error() string { return string(e) }

// options is the parsed flag surface.
type options struct {
	topo          string
	n, k, l, cmax int
	seed          int64
	addr          string
	debugAddr     string
	timeout       time.Duration
	queue         int
	leaseTTL      time.Duration
	dedupeTTL     time.Duration
	drain         time.Duration
	duration      time.Duration
	load          float64
	loadDuration  time.Duration
	loadClients   int
	loadUnits     int
}

// flags declares the flag surface; run parses a fresh set per call so tests
// can drive the command end to end.
func flags() (*flag.FlagSet, *options) {
	var o options
	fs := flag.NewFlagSet("koflserve", flag.ContinueOnError)
	fs.StringVar(&o.topo, "topo", "star", "topology: chain|star|paper|balanced|caterpillar|random")
	fs.IntVar(&o.n, "n", 8, "number of processes (ignored for -topo paper)")
	fs.IntVar(&o.k, "k", 2, "per-lease maximum k")
	fs.IntVar(&o.l, "l", 3, "resource units ℓ")
	fs.IntVar(&o.cmax, "cmax", core.DefaultCMAX, "CMAX: bound on initial garbage per channel")
	fs.Int64Var(&o.seed, "seed", 1, "seed for -topo random")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "TCP listen address (port 0 = pick one)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "HTTP debug-surface listen address: unified /metrics, /healthz, /readyz, /debug/events, /debug/pprof/* (empty = disabled)")
	fs.DurationVar(&o.timeout, "timeout", serve.DefaultTimeout, "root retransmission timeout (tightening below a few ms causes retransmission storms)")
	fs.IntVar(&o.queue, "queue", serve.DefaultQueueDepth, "acquires waiting per process, queued or awaiting the grant (a full process rejects with overload)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", serve.DefaultLeaseTTL, "maximum (and default) lease duration")
	fs.DurationVar(&o.dedupeTTL, "dedupe-ttl", serve.DefaultDedupeTTL, "how long acquire responses replay to request-id retries")
	fs.DurationVar(&o.drain, "drain", serve.DefaultDrainTimeout, "graceful-shutdown lease drain timeout")
	fs.DurationVar(&o.duration, "duration", 0, "serve for this long then drain and exit (0 = until SIGINT/SIGTERM)")
	fs.Float64Var(&o.load, "load", 0, "run a self-contained load test at this many acquires/sec instead of serving")
	fs.DurationVar(&o.loadDuration, "load-duration", 2*time.Second, "load-test schedule length")
	fs.IntVar(&o.loadClients, "load-clients", 8, "load-test connections")
	fs.IntVar(&o.loadUnits, "load-units", 0, "load-test max units per acquire (0 = k)")
	return fs, &o
}

func run(args []string, out, errOut io.Writer) error {
	fs, o := flags()
	fs.SetOutput(io.Discard) // errors are reported (and usage printed) by main
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected argument %q (koflserve takes flags only)", fs.Arg(0)))
	}
	if o.k < 1 || o.l < 1 || o.k > o.l {
		return usageError(fmt.Sprintf("-k %d -l %d: need 1 ≤ k ≤ ℓ", o.k, o.l))
	}
	if o.l > core.MaxL {
		return usageError(fmt.Sprintf("-l %d: the controller frame counts ℓ+1 in 16 bits, need ℓ ≤ %d", o.l, core.MaxL))
	}
	if o.cmax < 0 {
		return usageError(fmt.Sprintf("-cmax %d: must be ≥ 0", o.cmax))
	}
	if o.queue < 1 {
		return usageError(fmt.Sprintf("-queue %d: must be ≥ 1", o.queue))
	}
	if o.load < 0 || o.load > loadgen.MaxRate {
		return usageError(fmt.Sprintf("-load %v: must be in [0, %g]", o.load, loadgen.MaxRate))
	}
	if o.loadUnits < 0 || o.loadUnits > o.k {
		return usageError(fmt.Sprintf("-load-units %d: must be in [0, k=%d]", o.loadUnits, o.k))
	}
	tr, err := tree.Named(o.topo, o.n, o.seed)
	if err != nil {
		return usageError(err.Error())
	}

	srv, err := kofl.Serve(tr, kofl.ServeOptions{
		K: o.k, L: o.l, CMAX: o.cmax,
		Addr: o.addr, DebugAddr: o.debugAddr, Timeout: o.timeout,
		QueueDepth: o.queue, LeaseTTL: o.leaseTTL, DedupeTTL: o.dedupeTTL, DrainTimeout: o.drain,
	})
	if err != nil {
		return err
	}

	if o.load > 0 {
		defer srv.Close()
		units := o.loadUnits
		if units == 0 {
			units = o.k
		}
		res, err := loadgen.Run(loadgen.Config{
			Addr:     srv.Addr(),
			Clients:  o.loadClients,
			Rate:     o.load,
			Duration: o.loadDuration,
			MaxUnits: units,
			Seed:     o.seed,
		})
		if err != nil {
			return err
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		// Human summary on errOut so stdout stays pure JSON for scripts.
		fmt.Fprintf(errOut,
			"latency p50=%dµs p95=%dµs p99=%dµs (%d samples); rejects: overload=%d deadline=%d\n",
			res.LatencyP50us, res.LatencyP95us, res.LatencyP99us, res.LatencyCount,
			res.Overloads, res.Deadlines)
		if res.Violations != 0 {
			return fmt.Errorf("load test observed %d protocol violations", res.Violations)
		}
		return nil
	}

	fmt.Fprintf(out, "koflserve: serving %s (n=%d) k=%d l=%d on %s\n", o.topo, tr.N(), o.k, o.l, srv.Addr())
	if d := srv.DebugAddr(); d != "" {
		fmt.Fprintf(out, "koflserve: debug surface on http://%s (/metrics /healthz /readyz /debug/events /debug/pprof/)\n", d)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	if o.duration > 0 {
		select {
		case <-stop:
		case <-time.After(o.duration):
		}
	} else {
		<-stop
	}
	fmt.Fprintln(out, "koflserve: draining")
	ctx, cancel := context.WithTimeout(context.Background(), o.drain+2*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	st := srv.Stats()
	fmt.Fprintf(out, "koflserve: served %d grants, %d overload rejects, %d expired leases\n",
		st.Grants, st.Overloads, st.Expired)
	return nil
}
