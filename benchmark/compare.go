package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// loadSet reads one result file, or every result-*.json of a directory: a
// set of runs of one commit.
func loadSet(path string) ([]runFile, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("%s: no result-*.json files", path)
		}
	}
	var set []runFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		set = append(set, f)
	}
	return set, nil
}

// series is one metric of one workload across the runs of a set.
type series struct {
	unit   string
	values []float64
	within float64 // the spread a single run recorded for itself
}

func (s series) median() float64 { return median(s.values) }

// spread is the inter-quartile spread across the set's runs; a set of one
// run has only the spread that run measured across its own segments.
func (s series) spread() float64 {
	if len(s.values) < 2 {
		return s.within
	}
	return spread(s.values)
}

type seriesKey struct{ workload, metric string }

// runSet is what -compare needs of a set of runs.
type runSet struct {
	series map[seriesKey]series
	// shas lists, per workload, the campaign report digests of the runs.
	shas map[string][]string
	// inputs lists every run's seed, seconds and pass: simulated statistics
	// are fixed by all three.
	inputs []string
}

func collect(files []runFile) runSet {
	set := runSet{series: make(map[seriesKey]series), shas: make(map[string][]string)}
	for _, f := range files {
		set.inputs = append(set.inputs, fmt.Sprintf("%d/%g/%v", f.Seed, f.Seconds, f.Traced))
		for _, w := range f.Workloads {
			set.shas[w.Workload] = append(set.shas[w.Workload], w.ReportSHA256)
			for _, m := range w.Metrics {
				k := seriesKey{w.Workload, m.Name}
				s := set.series[k]
				s.unit, s.within = m.Unit, m.Spread
				s.values = append(s.values, m.Value)
				set.series[k] = s
			}
		}
	}
	sort.Strings(set.inputs)
	for _, v := range set.shas {
		sort.Strings(v)
	}
	return set
}

// compareSets prints one row per (workload, metric) found in both sets. An
// end-to-end metric regresses when B's median is worse than A's by more
// than its bound, and is unresolved — not unchanged — when either set's
// spread exceeds the bound, unless every run of B beats every run of A. A
// demoted metric gets the same verdict against the issue's bound on its
// native workload, without failing the comparison. A simulated statistic and
// the campaign report's digest must match exactly when both sets ran the
// same seeds for the same seconds in the same pass. ok is false on a
// regression or a mismatch.
func compareSets(w io.Writer, pathA, pathB string) (ok bool, err error) {
	filesA, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	filesB, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	a, b := collect(filesA), collect(filesB)
	sameInputs := slices.Equal(a.inputs, b.inputs)
	bounds := make(map[string]metricDef)
	for _, d := range endToEnd {
		bounds[d.name] = d
	}
	var keys []seriesKey
	for k := range a.series {
		if _, both := b.series[k]; both {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	ok = true
	fmt.Fprintf(w, "%-18s %-30s %-5s %14s %7s %14s %7s %8s  %s\n",
		"workload", "metric", "unit", "A median", "spread", "B median", "spread", "B worse", "verdict")
	for _, k := range keys {
		sa, sb := a.series[k], b.series[k]
		ma, mb := sa.median(), sb.median()
		verdict, change := "", ""
		d, gating := bounds[k.metric]
		if !gating {
			d = demoted[k]
		}
		switch {
		case d.name != "":
			wr := worse(ma, mb, d.lowerBetter)
			change = fmt.Sprintf("%+.1f%%", 100*wr)
			switch {
			case math.Max(sa.spread(), sb.spread()) > d.bound && !allBetter(sa.values, sb.values, d.lowerBetter):
				verdict = fmt.Sprintf("unresolved (spread > bound %.0f%%)", 100*d.bound)
			case wr > d.bound && gating:
				verdict, ok = fmt.Sprintf("REGRESSED (bound %.0f%%)", 100*d.bound), false
			case wr > d.bound:
				verdict = fmt.Sprintf("worse (demoted, issue's bound %.0f%%)", 100*d.bound)
			default:
				verdict = "ok"
			}
			if !gating {
				verdict += ", not gating"
			}
		case exactMetrics[k.metric] && !sameInputs:
			verdict = "exact, not compared: seeds, seconds or pass differ"
		case exactMetrics[k.metric]:
			verdict = "exact, equal"
			if !sameValues(sa.values, sb.values) {
				verdict, ok = "MISMATCH: a simulated statistic changed", false
			}
		}
		fmt.Fprintf(w, "%-18s %-30s %-5s %14.6g %7.3f %14.6g %7.3f %8s  %s\n",
			k.workload, k.metric, sa.unit, ma, sa.spread(), mb, sb.spread(), change, verdict)
	}
	if !sameInputs {
		return ok, nil
	}
	var names []string
	for name := range a.shas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, both := b.shas[name]; !both {
			continue
		}
		verdict := "exact, equal"
		if !slices.Equal(a.shas[name], b.shas[name]) {
			verdict, ok = "MISMATCH: the campaign report changed", false
		}
		fmt.Fprintf(w, "%-18s %-30s %s\n", name, "campaign_report_sha256", verdict)
	}
	return ok, nil
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, lowerBetter bool) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if lowerBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// sameValues reports whether a and b hold the same multiset of values.
func sameValues(a, b []float64) bool {
	return slices.Equal(sortedCopy(a), sortedCopy(b))
}
