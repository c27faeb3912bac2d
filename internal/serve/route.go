package serve

import "sync/atomic"

// loadIndex is the per-process load book the router picks targets from. The
// load of a process is the number of units bound to it anywhere in the
// pipeline: queued, in an open protocol cycle, or leased out and not yet
// released — so "least loaded" tracks expected time-to-grant, not just
// queue length.
type loadIndex struct {
	loads []atomic.Int64
}

func newLoadIndex(n int) *loadIndex {
	return &loadIndex{loads: make([]atomic.Int64, n)}
}

// add moves p's load by delta units.
func (li *loadIndex) add(p int, delta int) { li.loads[p].Add(int64(delta)) }

// pick returns the least-loaded process, the first on a tie, by a scan of
// every process. Reads are racy by design — a slightly stale minimum routes
// to a slightly busier process, nothing more.
func (li *loadIndex) pick() int {
	best, bestLoad := 0, li.loads[0].Load()
	for p := 1; p < len(li.loads); p++ {
		if l := li.loads[p].Load(); l < bestLoad {
			best, bestLoad = p, l
		}
	}
	return best
}

// next returns the process after p (wrapping), the fallback target when p
// is full at admission.
func (li *loadIndex) next(p int) int { return (p + 1) % len(li.loads) }
