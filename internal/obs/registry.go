// Package obs is the repo's dependency-free instrumentation core: a metric
// registry of atomic counters, gauges and lock-free fixed-bucket
// histograms with a single Prometheus-text exposition writer, plus a bounded
// ring-buffer event journal for the live layers' stabilization and lease
// events (see journal.go).
//
// Design rules, in order:
//
//  1. Zero steady-state allocation. Counter.Add, Gauge ops, Histogram.Observe
//     and Journal.Record never allocate; the sim kernel's zero-allocation
//     stepping contract (TestZeroAllocSteadyState) holds with its registry
//     attached.
//  2. Hot-path writes are wait-free. A counter or gauge is one atomic word
//     and a histogram sample is plain atomic bucket increments. A few
//     counter bumps per lease grant cost far less than the grant's own
//     lock and write, so counters are not sharded across cache lines.
//  3. Reads may be slow and slightly torn. Exposition walks buckets without
//     stopping writers; Prometheus scrapes tolerate that by construction.
//  4. Registration is setup-time only. Registering a duplicate family name
//     panics — it is a programming error, and silently merged duplicates are
//     exactly the exposition corruption promcheck.go exists to reject.
//
// Layers that already maintain cheap counters (the sim kernel's Steps, the
// runtime's frame atomics) are exposed through CounterFunc/GaugeFunc instead
// of double-counting on their hot paths: the func reads the existing value at
// scrape time, so instrumentation costs those paths nothing.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotone counter: one atomic word. The zero value is usable,
// but normally one is obtained from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current total.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a current-value metric.
type Gauge struct {
	v atomic.Int64
}

// Add adds n (may be negative) and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Store sets the gauge.
func (g *Gauge) Store(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v exceeds it — the high-water-mark
// operation (e.g. max units held).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram is a lock-free fixed-bucket histogram: bucket k counts samples
// in [k*Width, (k+1)*Width); the last bucket additionally absorbs overflow.
// Quantile is the inclusive upper bound of the bucket holding the
// nearest-rank sample: it never underestimates, and its error is at most one
// bucket width. The sample count is kept beside the buckets, so a reader
// walks them once, and only as far as its highest quantile (Quantiles).
type Histogram struct {
	width   int64
	buckets []atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64 // added after the bucket: a reader never counts a sample its walk misses
}

// Observe records one sample (negative samples clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	k := v / h.width
	if k >= int64(len(h.buckets)) {
		k = int64(len(h.buckets)) - 1
	}
	h.buckets[k].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns the q-quantile (clamped to [0, 1]) as the inclusive upper
// bound of the bucket holding the nearest-rank sample; 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	var v [1]int64
	h.Quantiles([]float64{q}, v[:])
	return v[0]
}

// Quantiles sets dst[i] to the qs[i]-quantile, as Quantile computes it, in
// one walk over the buckets that stops at the highest one, and returns the
// sample count the ranks were taken from. qs must be ascending and dst as
// long as qs; all quantiles of an empty histogram are 0.
func (h *Histogram) Quantiles(qs []float64, dst []int64) (count int64) {
	total := h.Count()
	clear(dst)
	if total == 0 || len(qs) == 0 {
		return total
	}
	// The walk reaches total: every counted sample is in its bucket.
	i, cum, r := 0, int64(0), rank(qs[0], total)
	for k := range h.buckets {
		cum += h.buckets[k].Load()
		for ; cum >= r; r = rank(qs[i], total) {
			dst[i] = (int64(k)+1)*h.width - 1
			if i++; i == len(qs) {
				return total
			}
		}
	}
	return total
}

// rank is the nearest rank of the q-quantile among total samples, in
// [1, total].
func rank(q float64, total int64) int64 {
	return min(max(int64(math.Ceil(q*float64(total))), 1), total)
}

// CounterVec is a family of counters distinguished by one label (e.g. one
// series per campaign worker). Series are created at setup time via With;
// the returned Counters are then written lock-free.
type CounterVec struct {
	label string

	mu       sync.Mutex
	vals     []string
	counters []*Counter
}

// With returns the counter for the given label value, creating the series on
// first use. Call during setup, not on hot paths (it takes a lock).
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, val := range v.vals {
		if val == value {
			return v.counters[i]
		}
	}
	c := new(Counter)
	v.vals = append(v.vals, value)
	v.counters = append(v.counters, c)
	return c
}

// family is one registered metric family: fixed metadata plus a sample
// writer invoked at exposition time.
type family struct {
	name, help, typ string
	write           func(w io.Writer, name string) error
}

// Registry is an ordered set of metric families with one Prometheus-text
// writer. Families render in registration order, so an exposition's layout
// is stable across scrapes.
type Registry struct {
	mu   sync.Mutex
	fams []family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

func (r *Registry) register(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic("obs: duplicate metric family " + f.name)
	}
	r.seen[f.name] = true
	r.fams = append(r.fams, f)
}

// Counter registers and returns a counter family with the given full series
// name (including any prefix) and help text.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.register(family{name: name, help: help, typ: "counter",
		write: func(w io.Writer, name string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", name, c.Load())
			return err
		}})
	return c
}

// Gauge registers and returns a gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.register(family{name: name, help: help, typ: "gauge",
		write: func(w io.Writer, name string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", name, g.Load())
			return err
		}})
	return g
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — the zero-hot-path-cost bridge to counters a layer already
// maintains (e.g. the runtime's frame atomics, the sim kernel's Steps).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(family{name: name, help: help, typ: "counter",
		write: func(w io.Writer, name string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", name, fn())
			return err
		}})
}

// GaugeFunc registers a gauge whose value is read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(family{name: name, help: help, typ: "gauge",
		write: func(w io.Writer, name string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", name, fn())
			return err
		}})
}

// Histogram registers and returns a fixed-bucket histogram with the given
// bucket width and bucket count (the last bucket absorbs overflow).
// Exposition renders cumulative le buckets (only non-empty ones), +Inf,
// _sum and _count.
func (r *Registry) Histogram(name, help string, width int64, buckets int) *Histogram {
	if width <= 0 || buckets < 1 {
		panic("obs: histogram needs width > 0 and buckets >= 1")
	}
	h := &Histogram{width: width, buckets: make([]atomic.Int64, buckets)}
	r.register(family{name: name, help: help, typ: "histogram",
		write: func(w io.Writer, name string) error {
			var cum int64
			for k := range h.buckets {
				n := h.buckets[k].Load()
				if n == 0 {
					continue
				}
				cum += n
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n",
					name, (int64(k)+1)*h.width-1, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum()); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s_count %d\n", name, cum)
			return err
		}})
	return h
}

// Summary registers a summary family over an existing histogram: its
// quantiles (ascending; one Quantiles walk per scrape), sum and count, read
// at exposition time — e.g. p50/p95/p99.
func (r *Registry) Summary(name, help string, quantiles []float64, h *Histogram) {
	if !slices.IsSorted(quantiles) {
		panic("obs: summary quantiles must be ascending")
	}
	qs := slices.Clone(quantiles)
	r.register(family{name: name, help: help, typ: "summary",
		write: func(w io.Writer, name string) error {
			vals := make([]int64, len(qs))
			h.Quantiles(qs, vals)
			for i, p := range qs {
				if _, err := fmt.Fprintf(w, "%s{quantile=\"%g\"} %d\n", name, p, vals[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum()); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
			return err
		}})
}

// CounterVec registers a counter family keyed by one label (series created
// via With render in creation order).
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label}
	r.register(family{name: name, help: help, typ: "counter",
		write: func(w io.Writer, name string) error {
			v.mu.Lock()
			vals := append([]string(nil), v.vals...)
			counters := append([]*Counter(nil), v.counters...)
			v.mu.Unlock()
			for i := range vals {
				if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n",
					name, v.label, vals[i], counters[i].Load()); err != nil {
					return err
				}
			}
			return nil
		}})
	return v
}

// WriteProm renders every registered family in registration order in the
// Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	fams := r.fams
	r.mu.Unlock()
	for i := range fams {
		f := &fams[i]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		if err := f.write(w, f.name); err != nil {
			return err
		}
	}
	return nil
}
