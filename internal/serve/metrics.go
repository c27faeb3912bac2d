package serve

import "kofl/internal/obs"

// LatencyBucketUS is the acquire-latency histogram resolution: quantiles
// read from it are exact to one bucket (250µs), which is far below the
// protocol's token-circulation timescale.
const LatencyBucketUS = 250

// latencyQuantiles are the acquire-latency quantiles Stats and the
// kofl_serve_acquire_latency_summary_us scrape report: p50, p95, p99.
var latencyQuantiles = [...]float64{0.50, 0.95, 0.99}

// LatencyBuckets spans the histogram to ~4s of queue wait before the
// overflow bucket absorbs the tail — comfortably past any deadline a client
// would set, and past the pre-overhaul pathological p50 of ~2.2s.
const LatencyBuckets = 16384

// metrics is the server's counter set, registered on the server's unified
// obs.Registry under the historical kofl_serve_* series names (every
// pre-migration name renders byte-identically; max_units_held and the
// acquire-latency summary are additions). Counters are sharded atomics
// written on the hot paths; the latency histogram is lock-free fixed-bucket.
type metrics struct {
	sessions       *obs.Counter // accepted connections, lifetime
	sessionsActive *obs.Gauge
	acquires       *obs.Counter // acquire frames admitted to dedupe
	grants         *obs.Counter
	batches        *obs.Counter // protocol cycles served (each carries ≥1 lease)
	batchUnits     *obs.Counter // Σ units requested across batches
	releases       *obs.Counter // client-initiated releases
	expired        *obs.Counter // TTL auto-releases
	drained        *obs.Counter // force-releases at shutdown
	overloads      *obs.Counter // full-process rejects
	deadlineRejs   *obs.Counter
	drainingRejs   *obs.Counter
	malformed      *obs.Counter
	dedupeHits     *obs.Counter // retries answered from the store
	leases         *obs.Gauge   // leases outstanding
	unitsHeld      *obs.Gauge   // resource units currently leased out
	maxUnitsHeld   *obs.Gauge   // high-water mark of unitsHeld
	latency        *obs.Histogram
}

// newMetrics registers the serve series on reg in the historical exposition
// order; queueDepth reads the acquires waiting across all processes. The
// frame counters are the runtime's own kofl_runtime_frames_* series on the
// same registry.
func newMetrics(reg *obs.Registry, queueDepth func() int64) *metrics {
	m := &metrics{}
	m.sessions = reg.Counter("kofl_serve_sessions_total", "accepted client connections")
	m.sessionsActive = reg.Gauge("kofl_serve_sessions_active", "open client connections")
	m.acquires = reg.Counter("kofl_serve_acquires_total", "acquire requests admitted")
	m.grants = reg.Counter("kofl_serve_grants_total", "leases granted")
	m.batches = reg.Counter("kofl_serve_batches_total", "protocol cycles served (batched admission)")
	m.batchUnits = reg.Counter("kofl_serve_batch_units_total", "resource units requested across batches")
	m.releases = reg.Counter("kofl_serve_releases_total", "client-initiated lease releases")
	m.expired = reg.Counter("kofl_serve_leases_expired_total", "leases auto-released on TTL expiry")
	m.drained = reg.Counter("kofl_serve_leases_drained_total", "leases force-released at shutdown")
	m.overloads = reg.Counter("kofl_serve_rejects_overload_total", "acquires rejected by a full process queue")
	m.deadlineRejs = reg.Counter("kofl_serve_rejects_deadline_total", "acquires rejected past their deadline")
	m.drainingRejs = reg.Counter("kofl_serve_rejects_draining_total", "acquires rejected during drain")
	m.malformed = reg.Counter("kofl_serve_malformed_total", "frames that failed to parse or validate")
	m.dedupeHits = reg.Counter("kofl_serve_dedupe_hits_total", "acquire retries answered from the dedupe store")
	reg.GaugeFunc("kofl_serve_queue_depth", "acquires waiting across all processes", queueDepth)
	m.leases = reg.Gauge("kofl_serve_leases_outstanding", "leases currently held")
	m.unitsHeld = reg.Gauge("kofl_serve_units_held", "resource units currently leased out")
	m.maxUnitsHeld = reg.Gauge("kofl_serve_max_units_held",
		"high-water mark of units_held — the ≤ ℓ safety watermark")
	m.latency = reg.Histogram("kofl_serve_acquire_latency_us",
		"acquire latency, enqueue to grant", LatencyBucketUS, LatencyBuckets)
	reg.Summary("kofl_serve_acquire_latency_summary_us",
		"acquire latency p50/p95/p99, enqueue to grant", latencyQuantiles[:], m.latency)
	return m
}

// grant accounts one granted lease and its acquire latency.
func (m *metrics) grant(units int, latencyUS int64) {
	m.grants.Add(1)
	m.leases.Add(1)
	m.maxUnitsHeld.SetMax(m.unitsHeld.Add(int64(units)))
	m.latency.Observe(latencyUS)
}

// release accounts one lease teardown under its obs.Release… cause.
func (m *metrics) release(units int, cause int64) {
	m.leases.Add(-1)
	m.unitsHeld.Add(int64(-units))
	switch cause {
	case obs.ReleaseExpired:
		m.expired.Add(1)
	case obs.ReleaseDrain:
		m.drained.Add(1)
	default:
		m.releases.Add(1)
	}
}
