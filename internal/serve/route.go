package serve

import "sync/atomic"

// routeShardSize bounds how many per-process load counters one routing
// decision scans. Small trees fit in a single shard (the scan is exact);
// larger trees are split and each acquire scans two shards picked by a
// rotating cursor — the classic power-of-two-choices bound on queue
// imbalance without a global lock or a global scan.
const routeShardSize = 64

// loadIndex is the sharded per-process load book the router picks targets
// from. The load of a process is the number of units bound to it anywhere
// in the pipeline: queued, in an open protocol cycle, or leased out and not
// yet released — so "least loaded" tracks expected time-to-grant, not just
// queue length.
type loadIndex struct {
	loads  []atomic.Int64
	cursor atomic.Uint64
	shards int
}

func newLoadIndex(n int) *loadIndex {
	shards := (n + routeShardSize - 1) / routeShardSize
	if shards < 1 {
		shards = 1
	}
	return &loadIndex{loads: make([]atomic.Int64, n), shards: shards}
}

// add moves p's load by delta units.
func (li *loadIndex) add(p int, delta int) { li.loads[p].Add(int64(delta)) }

// pick returns the least-loaded process among up to two shards (all
// processes when the tree fits one shard). Reads are racy by design — a
// slightly stale minimum routes to a slightly busier process, nothing more.
func (li *loadIndex) pick() int {
	n := len(li.loads)
	if li.shards == 1 {
		return li.scan(0, n)
	}
	c := li.cursor.Add(1)
	a := int(c) % li.shards
	b := int(c>>32+c) % li.shards // decorrelated second choice
	best := li.scanShard(a)
	if b != a {
		if cand := li.scanShard(b); li.loads[cand].Load() < li.loads[best].Load() {
			best = cand
		}
	}
	return best
}

func (li *loadIndex) scanShard(s int) int {
	lo := s * routeShardSize
	hi := lo + routeShardSize
	if hi > len(li.loads) {
		hi = len(li.loads)
	}
	return li.scan(lo, hi)
}

func (li *loadIndex) scan(lo, hi int) int {
	best, bestLoad := lo, li.loads[lo].Load()
	for p := lo + 1; p < hi; p++ {
		if l := li.loads[p].Load(); l < bestLoad {
			best, bestLoad = p, l
		}
	}
	return best
}

// next returns the process after p (wrapping), the fallback target when p
// is full at admission.
func (li *loadIndex) next(p int) int { return (p + 1) % len(li.loads) }
