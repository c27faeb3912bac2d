package obs

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterShardedSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("Load() = %d, want 8000", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.Store(5)
	g.SetMax(3)
	if g.Load() != 5 {
		t.Fatalf("SetMax lowered the gauge to %d", g.Load())
	}
	g.SetMax(9)
	if g.Load() != 9 {
		t.Fatalf("SetMax(9) = %d", g.Load())
	}
}

func TestHistogramQuantileMatchesStatsConvention(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", "t", 250, 64)
	for _, v := range []int64{100, 300, 700, 700, 10_000_000} { // last overflows
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	// Nearest-rank over buckets: p50 is the 3rd sample (700) → bucket
	// [500,750) → upper bound 749.
	if got := h.Quantile(0.50); got != 749 {
		t.Fatalf("p50 = %d, want 749", got)
	}
	// p100 lands in the overflow bucket, whose reported bound is the top of
	// the covered range.
	if got := h.Quantile(1.0); got != 64*250-1 {
		t.Fatalf("p100 = %d, want %d", got, 64*250-1)
	}

	// At width 1 every bucket holds one integer value, so Quantile must be
	// the nearest-rank quantile exactly; q outside [0, 1] clamps.
	exact := r.Histogram("exact", "t", 1, 128)
	if got := exact.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile(0.5) = %d, want 0", got)
	}
	for v := int64(1); v <= 100; v++ {
		exact.Observe(v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.505, 51}, {0.95, 95}, {0.99, 99}, {1, 100}, {1.5, 100}, {-1, 1},
	} {
		if got := exact.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	exact.Observe(-7) // negative samples clamp into bucket 0
	if got := exact.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) after a negative sample = %d, want 0", got)
	}
}

// refQuantile is the q-quantile as Quantile computed it before the count was
// kept: the count summed over the buckets, then a walk to the nearest-rank
// sample, whose bucket's inclusive upper bound it returns.
func refQuantile(h *Histogram, q float64) int64 {
	var total int64
	for k := range h.buckets {
		total += h.buckets[k].Load()
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	rank = min(max(rank, 1), total)
	var cum int64
	for k := range h.buckets {
		if cum += h.buckets[k].Load(); cum >= rank {
			return (int64(k)+1)*h.width - 1
		}
	}
	return int64(len(h.buckets))*h.width - 1
}

// TestQuantilesMatchQuantile fills random histograms — widths, bucket
// counts, samples past the overflow bucket and below 0, empty ones — and
// holds the one-walk Quantiles, and Quantile and Count through it, to the
// bucket-summing reference for ascending quantile sets that include the
// clamped ends.
func TestQuantilesMatchQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 500 {
		h := NewRegistry().Histogram("h", "t", 1+rng.Int63n(300), 1+rng.Intn(200))
		samples := rng.Intn(3) * rng.Intn(400) // a third empty
		for range samples {
			h.Observe(rng.Int63n(h.width*int64(len(h.buckets))*5/4) - h.width/2)
		}
		qs := []float64{-0.5, 0, 1, 1.5}
		for range rng.Intn(6) {
			qs = append(qs, rng.Float64())
		}
		qs = append(qs, 0.5, 0.95, 0.99)
		slices.Sort(qs)
		got := make([]int64, len(qs))
		if n := h.Quantiles(qs, got); n != int64(samples) || h.Count() != int64(samples) {
			t.Fatalf("trial %d: Quantiles counted %d, Count %d, want %d", trial, n, h.Count(), samples)
		}
		for i, q := range qs {
			want := refQuantile(h, q)
			if got[i] != want || h.Quantile(q) != want {
				t.Fatalf("trial %d (%d samples, width %d, %d buckets): quantile %v = %d by Quantiles, %d by Quantile, want %d",
					trial, samples, h.width, len(h.buckets), q, got[i], h.Quantile(q), want)
			}
		}
	}
}

func TestZeroAllocPrimitives(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "t")
	var g Gauge
	h := r.Histogram("h_us", "t", 250, 16)
	j := NewJournal(64, nil)
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Add(1)
		g.SetMax(7)
		h.Observe(123)
		j.Record(KindTimeout, 0, 1, 2)
	}); n != 0 {
		t.Fatalf("hot-path ops allocate %v times per run, want 0", n)
	}
}

func TestJournalRingOverwrite(t *testing.T) {
	var clock int64
	j := NewJournal(4, func() int64 { return clock })
	for i := int64(0); i < 10; i++ {
		clock = i
		j.Record(KindFaultInjected, int32(i), i, -i)
	}
	snap := j.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4 (ring capacity)", len(snap))
	}
	for i, e := range snap {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq || e.Time != int64(wantSeq) || e.A != int64(wantSeq) {
			t.Fatalf("snap[%d] = %+v, want seq/time/a = %d", i, e, wantSeq)
		}
	}
	if j.Len() != 10 {
		t.Fatalf("Len = %d, want 10", j.Len())
	}
}

func TestJournalWriteJSON(t *testing.T) {
	clock := int64(41)
	j := NewJournal(8, func() int64 { clock++; return clock })
	j.Record(KindLeaseGrant, 3, 2, 1500)
	j.Record(KindLeaseRelease, 3, 2, ReleaseExpired)
	var sb strings.Builder
	if err := j.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"kind":"lease_grant"`, `"kind":"lease_release"`,
		`"time":42`, `"proc":3`, `"b":1500`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteJSON missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePromAndCheckExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("kofl_test_grants_total", "grants")
	g := r.Gauge("kofl_test_depth", "queue depth")
	h := r.Histogram("kofl_test_latency_us", "latency", 250, 32)
	r.CounterFunc("kofl_test_steps_total", "steps", func() int64 { return 7 })
	r.Summary("kofl_test_latency_summary_us", "latency quantiles", []float64{0.5, 0.99}, h)
	v := r.CounterVec("kofl_test_worker_slots_total", "slots by worker", "worker")
	v.With("0").Add(3)
	v.With("1").Add(4)

	c.Add(2)
	g.Store(-1)
	h.Observe(100)
	h.Observe(600)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE kofl_test_grants_total counter",
		"kofl_test_grants_total 2",
		"kofl_test_depth -1",
		`kofl_test_latency_us_bucket{le="249"} 1`,
		`kofl_test_latency_us_bucket{le="749"} 2`,
		`kofl_test_latency_us_bucket{le="+Inf"} 2`,
		"kofl_test_latency_us_sum 700",
		"kofl_test_latency_us_count 2",
		"kofl_test_steps_total 7",
		`kofl_test_latency_summary_us{quantile="0.5"} 249`,
		`kofl_test_worker_slots_total{worker="1"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := CheckExposition([]byte(out)); err != nil {
		t.Fatalf("CheckExposition rejected our own exposition: %v\n%s", err, out)
	}
}

func TestRegistryRejectsDuplicateFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "y")
}

func TestCheckExpositionRejectsBadFormats(t *testing.T) {
	cases := map[string]string{
		"sample without headers": "orphan_total 1\n",
		"missing TYPE":           "# HELP a_total x\na_total 1\n",
		"missing HELP":           "# TYPE a_total counter\na_total 1\n",
		"duplicate series":       "# HELP a x\n# TYPE a gauge\na 1\na 2\n",
		"duplicate family": "# HELP a x\n# TYPE a gauge\na 1\n" +
			"# HELP a x\n# TYPE a gauge\n",
		"non-monotone buckets": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"10\"} 5\nh_bucket{le=\"20\"} 3\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"descending le": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"20\"} 1\nh_bucket{le=\"10\"} 2\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"count mismatch": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"missing +Inf": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"10\"} 1\nh_sum 1\nh_count 1\n",
		"summary without count": "# HELP s x\n# TYPE s summary\n" +
			"s{quantile=\"0.5\"} 1\ns_sum 1\n",
	}
	for name, exp := range cases {
		if err := CheckExposition([]byte(exp)); err == nil {
			t.Errorf("%s: CheckExposition accepted:\n%s", name, exp)
		}
	}
}
