package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"kofl/internal/sim"
	"kofl/internal/trace"
)

// defaultTraceCap bounds the entries kept per captured trace when the spec
// does not say otherwise.
const defaultTraceCap = 20_000

// traceCapture carries out the spec's TraceSpec: when a slot's result trips
// the outlier predicate, the slot is replayed with an internal/trace log
// attached and the trace written to dir as
// "<plan>-r<round>-c<cell>-s<seed>.trace". The filename (not the
// directory) is recorded in RunResult.Trace, so reports reference their
// traces portably and stay byte-identical across sharded and unsharded
// executions.
type traceCapture struct {
	dir  string
	spec TraceSpec

	mu  sync.Mutex
	err error
}

// newTraceCapture creates the capture directory and returns the capture.
func newTraceCapture(dir string, ts TraceSpec) (*traceCapture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: trace dir: %w", err)
	}
	return &traceCapture{dir: dir, spec: ts}, nil
}

// outlier is the capture predicate over a completed run.
func (ts TraceSpec) outlier(rr *RunResult) bool {
	if ts.WaitingFraction > 0 && rr.WaitingRatio >= ts.WaitingFraction {
		return true
	}
	if ts.Diverged && !rr.Converged {
		return true
	}
	return false
}

// traceFileName is the deterministic per-slot trace filename. The campaign
// name is sanitized to a safe filename component: specs are user input, and
// a name containing path separators must not let capture write outside the
// configured trace directory.
func traceFileName(plan *Plan, slot Slot) string {
	return fmt.Sprintf("%s-r%d-c%03d-s%d.trace", sanitizeName(plan.Name), plan.Round,
		plan.Cells[slot.Cell].Index, slot.Seed)
}

// sanitizeName maps a campaign name onto [A-Za-z0-9_-], replacing
// everything else (path separators, dots, spaces) with '_', so names
// cannot produce hidden, parent-relative, or out-of-directory files.
func sanitizeName(name string) string {
	if name == "" {
		return "campaign"
	}
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// capture checks rr, the result of slot, against the predicate; on an
// outlier it replays the slot on the worker's state with a trace log
// attached (exact, because a run is a pure function of its slot), writes
// the trace and records its filename in rr.Trace. Workers call it
// concurrently; write failures are collected and surfaced by firstErr after
// the pool drains.
func (tc *traceCapture) capture(plan *Plan, slot Slot, rt *cellRuntime, ws *workerState, rr *RunResult) {
	if !tc.spec.outlier(rr) {
		return
	}
	cap := tc.spec.Cap
	if cap <= 0 {
		cap = defaultTraceCap
	}
	cell := plan.Cells[slot.Cell]
	var lg *trace.Log
	runSlot(plan.Spec, cell, rt, slot, ws, func(s *sim.Sim) { lg = trace.New(s, cap) })
	name := traceFileName(plan, slot)
	f, err := os.Create(filepath.Join(tc.dir, name))
	if err == nil {
		_, err = fmt.Fprintf(f, "# campaign %s round %d\n# cell %d: %s\n# seed %d: grants=%d max_waiting=%d (%.4f of bound) converged=%v\n",
			plan.Name, plan.Round, cell.Index, cell.Label(),
			slot.Seed, rr.Grants, rr.MaxWaiting, rr.WaitingRatio, rr.Converged)
		if err == nil {
			_, err = lg.WriteTo(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		tc.mu.Lock()
		if tc.err == nil {
			tc.err = fmt.Errorf("campaign: trace capture %s: %w", name, err)
		}
		tc.mu.Unlock()
		return
	}
	rr.Trace = name
}

// firstErr returns the first write failure the capture hit, if any.
func (tc *traceCapture) firstErr() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.err
}
