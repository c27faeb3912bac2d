// Package loadgen is an open-loop load generator for the serve protocol:
// acquire arrivals are scheduled on a fixed-rate clock independent of how
// fast the server answers, so a slow server faces a growing backlog instead
// of a politely waiting client. Latency is measured from the scheduled
// arrival time, not from the moment the request finally got sent — the
// standard correction for coordinated omission, without which a stalled
// server records exactly one slow sample instead of a pile-up.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kofl/internal/obs"
	"kofl/internal/serve"
)

// Config parameterizes one load run.
type Config struct {
	// Addr is the serve server address.
	Addr string
	// Clients is the number of connections the offered load is spread over
	// (default 4).
	Clients int
	// Rate is the offered load in acquires per second (required, in
	// (0, MaxRate]).
	Rate float64
	// Duration bounds the arrival schedule (required, > 0); Run returns
	// after every scheduled arrival has completed or failed.
	Duration time.Duration
	// MaxUnits draws each acquire's size uniformly from 1..MaxUnits
	// (default 1).
	MaxUnits int
	// DeadlineMS is the per-acquire queue-wait deadline forwarded to the
	// server (0 = wait indefinitely).
	DeadlineMS int64
	// LeaseMS is the requested lease TTL (0 = server default).
	LeaseMS int64
	// Hold keeps each granted lease for this long before releasing
	// (default 0: release immediately).
	Hold time.Duration
	// Seed fixes the unit-size sequence (0 = seed 1).
	Seed int64
}

// Result is one load run's report.
type Result struct {
	OfferedRate float64 `json:"offered_rate_per_sec"`
	Offered     int64   `json:"offered"`
	Completed   int64   `json:"completed"` // grants (each later released)
	Overloads   int64   `json:"rejects_overload"`
	Deadlines   int64   `json:"rejects_deadline"`
	Errors      int64   `json:"errors"` // transport and unexpected protocol errors
	// Violations counts protocol-contract breaches observed by the client:
	// a grant with the wrong unit count or an empty lease id. Always 0 on a
	// correct server.
	Violations int64 `json:"violations"`

	ThroughputPerSec float64 `json:"throughput_per_sec"` // completed / wall
	WallSeconds      float64 `json:"wall_seconds"`

	// Acquire latency from scheduled arrival to grant, microseconds.
	LatencyP50us int64 `json:"latency_p50_us"`
	LatencyP95us int64 `json:"latency_p95_us"`
	LatencyP99us int64 `json:"latency_p99_us"`
	LatencyCount int64 `json:"latency_count"`
}

// MaxRate is the highest offered rate Run accepts: one arrival per
// microsecond. Beyond it the inter-arrival gap rounds towards 0 ns, which
// first sizes the schedule at Duration/gap entries and then divides by zero.
const MaxRate = 1e6

// Run drives one open-loop load run and blocks until every scheduled
// arrival has resolved.
func Run(cfg Config) (Result, error) {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return Result{}, fmt.Errorf("loadgen: Rate and Duration are required")
	}
	if cfg.Rate > MaxRate {
		return Result{}, fmt.Errorf("loadgen: Rate %g/s is above the %g/s the arrival clock resolves",
			cfg.Rate, MaxRate)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.MaxUnits <= 0 {
		cfg.MaxUnits = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	clients := make([]*serve.Client, cfg.Clients)
	for i := range clients {
		c, err := serve.Dial(cfg.Addr)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return Result{}, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	var (
		res Result
		wg  sync.WaitGroup
		// Same resolution and span as the server's own latency series, so
		// client and server quantiles are comparable bucket for bucket.
		hist = obs.NewRegistry().Histogram("loadgen_acquire_latency_us",
			"acquire latency, scheduled arrival to grant",
			serve.LatencyBucketUS, serve.LatencyBuckets)
		grants  atomic.Int64
		overs   atomic.Int64
		deads   atomic.Int64
		errs    atomic.Int64
		viols   atomic.Int64
		arrival = time.Duration(float64(time.Second) / cfg.Rate)
	)

	// Unit sizes and request ids are built up front so the schedule is
	// deterministic in Seed regardless of goroutine interleaving, and the
	// dispatch loop does no per-arrival formatting that could skew the
	// fixed-rate clock at high offered rates.
	total := int(cfg.Duration / arrival)
	if total < 1 {
		total = 1
	}
	rng := rand.New(rand.NewSource(seed))
	units := make([]int, total)
	ids := make([]string, total)
	for i := range units {
		units[i] = 1 + rng.Intn(cfg.MaxUnits)
		ids[i] = fmt.Sprintf("lg-%d-%d", seed, i)
	}

	start := time.Now()
	for i := 0; i < total; i++ {
		sched := start.Add(time.Duration(i) * arrival)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		c := clients[i%len(clients)]
		want, id := units[i], ids[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := c.AcquireID(id, want, cfg.DeadlineMS, cfg.LeaseMS)
			lat := time.Since(sched).Microseconds()
			if err != nil {
				switch {
				case errors.Is(err, serve.ErrOverload):
					overs.Add(1)
				case errors.Is(err, serve.ErrDeadline):
					deads.Add(1)
				default:
					errs.Add(1)
				}
				return
			}
			if l.Units != want || l.ID == "" {
				viols.Add(1)
			}
			grants.Add(1)
			hist.Observe(lat)
			if cfg.Hold > 0 {
				time.Sleep(cfg.Hold)
			}
			if err := c.Release(l.ID); err != nil {
				errs.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var lat [3]int64
	count := hist.Quantiles([]float64{0.50, 0.95, 0.99}, lat[:])
	res = Result{
		OfferedRate:      cfg.Rate,
		Offered:          int64(total),
		Completed:        grants.Load(),
		Overloads:        overs.Load(),
		Deadlines:        deads.Load(),
		Errors:           errs.Load(),
		Violations:       viols.Load(),
		ThroughputPerSec: float64(grants.Load()) / wall.Seconds(),
		WallSeconds:      wall.Seconds(),
		LatencyP50us:     lat[0],
		LatencyP95us:     lat[1],
		LatencyP99us:     lat[2],
		LatencyCount:     count,
	}
	return res, nil
}
