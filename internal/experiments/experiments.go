// Package experiments contains one driver per paper artifact (figures 1-4,
// theorems 1-2, the liveness lemma, the errata ablations and the
// performance sweeps). All lists them in id order; cmd/koflbench prints the
// resulting tables.
package experiments

import (
	"fmt"
	"strings"

	"kofl/internal/core"
	"kofl/internal/sim"
	"kofl/internal/tree"
)

// Table is a printable experiment result.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// Add appends a row; cells are stringified with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-text note printed under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Cols)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// config builds a protocol Config for the given tree.
func config(t *tree.Tree, k, l, cmax int, feat core.Features) core.Config {
	return core.Config{K: k, L: l, N: t.N(), CMAX: cmax, Features: feat}
}

// newSim builds a simulation with the given scheduler (nil = random).
func newSim(t *tree.Tree, k, l, cmax int, feat core.Features, seed int64, sched sim.Scheduler) *sim.Sim {
	return sim.MustNew(t, config(t, k, l, cmax, feat), sim.Options{Seed: seed, Scheduler: sched})
}

// Topology is a named tree constructor used by sweeps.
type Topology struct {
	Name  string
	Build func() *tree.Tree
}

// SweepTopologies returns the standard topology ladder used by the sweeps.
func SweepTopologies(ns []int) []Topology {
	var tops []Topology
	for _, n := range ns {
		n := n
		tops = append(tops,
			Topology{fmt.Sprintf("chain-%d", n), func() *tree.Tree { return tree.Chain(n) }},
			Topology{fmt.Sprintf("star-%d", n), func() *tree.Tree { return tree.Star(n) }},
		)
	}
	return tops
}

// All runs every experiment with default parameters and returns the tables
// in id order. quick trims the sweeps for fast regeneration.
func All(seed int64, quick bool) []*Table {
	var tables []*Table
	tables = append(tables, Fig1(seed, quick))
	tables = append(tables, Fig2(seed))
	tables = append(tables, Fig3(seed))
	tables = append(tables, Fig4(quick))
	tables = append(tables, Convergence(seed, quick))
	tables = append(tables, WaitingTime(seed, quick))
	tables = append(tables, WaitingTimeAdversarial(seed, quick))
	tables = append(tables, Liveness(seed))
	tables = append(tables, AblationPusherGuard(seed))
	tables = append(tables, AblationCountOrder(seed, quick))
	tables = append(tables, AblationVariants(seed))
	tables = append(tables, AblationCMAX(seed, quick))
	tables = append(tables, Throughput(seed, quick))
	tables = append(tables, ControlOverhead(seed, quick))
	tables = append(tables, Extension(seed, quick))
	tables = append(tables, Baseline(seed, quick))
	tables = append(tables, Availability(seed, quick))
	return tables
}
