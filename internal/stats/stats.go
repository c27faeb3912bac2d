// Package stats provides the small summary-statistics toolkit the experiment
// tables are built from. It is intentionally minimal and stdlib-only.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates int64 samples and answers the usual questions.
type Summary struct {
	samples []int64
	sorted  bool
	sum     float64
}

// Add records one sample.
func (s *Summary) Add(v int64) {
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += float64(v)
}

// AddAll records every sample of vs.
func (s *Summary) AddAll(vs []int64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// N returns the number of samples.
func (s *Summary) N() int { return len(s.samples) }

// Mean returns the arithmetic mean (0 for an empty summary).
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest sample (0 for an empty summary).
func (s *Summary) Min() int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[0]
}

// Max returns the largest sample (0 for an empty summary).
func (s *Summary) Max() int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[len(s.samples)-1]
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using the
// nearest-rank method.
func (s *Summary) Percentile(p float64) int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	rank := int(math.Ceil(p / 100 * float64(len(s.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.samples) {
		rank = len(s.samples)
	}
	return s.samples[rank-1]
}

// Stddev returns the sample standard deviation (0 for < 2 samples).
func (s *Summary) Stddev() float64 {
	if len(s.samples) < 2 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.samples {
		d := float64(v) - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s.samples)-1))
}

func (s *Summary) sort() {
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
}

// String renders "n=… mean=… p50=… p95=… max=…".
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d max=%d",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Max())
}

// Dist is a JSON-friendly summary of an int64 sample vector, used by the
// campaign engine's aggregate reports. All fields are pure functions of the
// sample values and their order, so a Dist computed from samples collected
// in a fixed order is byte-for-byte reproducible when marshalled.
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Median int64   `json:"median"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// Describe summarizes samples into a Dist. The mean is accumulated in the
// order given, keeping float rounding deterministic for a fixed input order.
func Describe(samples []int64) Dist {
	var s Summary
	s.AddAll(samples)
	return Dist{
		N:      s.N(),
		Mean:   s.Mean(),
		Stddev: s.Stddev(),
		Median: s.Percentile(50),
		Min:    s.Min(),
		Max:    s.Max(),
	}
}

// CV returns the coefficient of variation (stddev / mean), the scale-free
// spread measure the campaign engine's adaptive seed escalation keys on.
// It is 0 when the mean is 0 or fewer than two samples were described.
func (d Dist) CV() float64 {
	if d.Mean == 0 || d.N < 2 {
		return 0
	}
	return d.Stddev / d.Mean
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) for the sample
// vector: 1 for perfectly equal allocations, approaching 1/n under total
// starvation of all but one participant. It is 0 for an empty or all-zero
// vector by convention.
func JainIndex(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
