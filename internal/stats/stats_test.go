package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Percentile(50) != 0 || s.Stddev() != 0 {
		t.Error("empty summary must answer zeros")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddAll([]int64{5, 1, 3, 2, 4})
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %f", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("P50 = %d", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("P100 = %d", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %d (nearest rank clamps to first)", got)
	}
	want := math.Sqrt(2.5)
	if math.Abs(s.Stddev()-want) > 1e-9 {
		t.Errorf("Stddev = %f, want %f", s.Stddev(), want)
	}
}

func TestSummaryAddAfterSort(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Max() // forces a sort
	s.Add(1)    // must invalidate sortedness
	if s.Min() != 1 {
		t.Errorf("Min after post-sort Add = %d", s.Min())
	}
}

func TestSummaryStddevSingle(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Stddev() != 0 {
		t.Error("stddev of one sample must be 0")
	}
}

func TestPercentileMatchesSort(t *testing.T) {
	check := func(seed int64, count uint8, p uint8) bool {
		n := 1 + int(count)%200
		rng := rand.New(rand.NewSource(seed))
		var s Summary
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
			s.Add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		pct := float64(p % 101)
		rank := int(math.Ceil(pct / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		return s.Percentile(pct) == vals[rank-1]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanProperty(t *testing.T) {
	check := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		var sum float64
		for _, v := range vals {
			s.Add(int64(v))
			sum += float64(v)
		}
		return math.Abs(s.Mean()-sum/float64(len(vals))) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.AddAll([]int64{1, 2, 3})
	str := s.String()
	for _, want := range []string{"n=3", "mean=2.0", "max=3"} {
		if !strings.Contains(str, want) {
			t.Errorf("String = %q missing %q", str, want)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty = %f", got)
	}
	if got := JainIndex([]int64{0, 0, 0}); got != 0 {
		t.Errorf("all-zero = %f", got)
	}
	if got := JainIndex([]int64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal = %f, want 1", got)
	}
	// One participant hogging everything: index 1/n.
	if got := JainIndex([]int64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("hog = %f, want 0.25", got)
	}
	// Monotone: more skew, lower index.
	a := JainIndex([]int64{6, 5, 5})
	b := JainIndex([]int64{10, 3, 3})
	if a <= b {
		t.Errorf("skew ordering: %f ≤ %f", a, b)
	}
}

func TestDescribeStddevAndCV(t *testing.T) {
	d := Describe([]int64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(d.Stddev-2.13808993) > 1e-6 {
		t.Errorf("Stddev = %f, want ≈2.138 (sample stddev)", d.Stddev)
	}
	if cv := d.CV(); math.Abs(cv-d.Stddev/5.0) > 1e-9 {
		t.Errorf("CV = %f, want stddev/mean", cv)
	}
	if d := Describe([]int64{7}); d.Stddev != 0 || d.CV() != 0 {
		t.Errorf("single sample: stddev=%f cv=%f, want 0", d.Stddev, d.CV())
	}
	if d := Describe(nil); d.Stddev != 0 || d.CV() != 0 {
		t.Errorf("empty: stddev=%f cv=%f, want 0", d.Stddev, d.CV())
	}
	if d := Describe([]int64{0, 0, 0}); d.CV() != 0 {
		t.Errorf("zero mean: cv=%f, want 0", d.CV())
	}
}
