package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported percentile for
// it to mean anything: with fewer, the "p99" of a run is one or two slow
// requests and swings with each of them.
const tailBeyond = 10

// supportedPercentile returns the highest of p50/p90/p99/p99.9 that still
// has at least tailBeyond samples beyond it among n samples (0 when even
// the median has not).
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 990, 999} { // integers: 100-99.9 is not 0.1
		if n*(1000-perMille) >= tailBeyond*1000 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; sorted must be ascending.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), because that is
// what the acceptance check of the benchmark contract computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		j = min(max(j, 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// segmentRates turns per-segment (work, seconds) pairs into rates and
// returns the fastest, the median and the inter-quartile spread. The median
// is the reported throughput: a change that stalls some of the segments must
// show. The fastest is what the work costs when the host leaves it alone
// (interference only ever slows a segment) and goes into per-layer numbers.
func segmentRates(work, secs []float64) (best, med, spr float64) {
	rates := make([]float64, 0, len(work))
	for i := range work {
		if secs[i] > 0 {
			rates = append(rates, work[i]/secs[i])
		}
	}
	return maxOf(rates), median(rates), spread(rates)
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}
