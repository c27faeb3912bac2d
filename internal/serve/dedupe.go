package serve

import (
	"hash/maphash"
	"sync"
	"time"
)

// dedupeShards is the lock-striping factor of the dedupe store. Acquire
// admission takes the dedupe lock once per frame; striping by request-id
// hash keeps concurrent sessions off each other's locks.
const dedupeShards = 16

// dedupeStore makes acquire idempotent: the first frame carrying a request
// id claims it, the grant (or terminal answer) is cached under it, and any
// retry inside the TTL window gets the cached response back instead of a
// second lease. Rejections (overload, deadline, draining) release the id so
// an honest retry may succeed later. Entries expire TTL after completion;
// expiry is swept lazily on access, amortized over inserts, per shard.
type dedupeStore struct {
	ttl    time.Duration
	seed   maphash.Seed
	shards [dedupeShards]dedupeShard
}

type dedupeShard struct {
	mu      sync.Mutex
	m       map[string]*dedupeEntry
	sweepAt time.Time
}

type dedupeEntry struct {
	resp *Response // nil while the request is in flight
	at   time.Time // completion time; zero while in flight
}

func newDedupeStore(ttl time.Duration) *dedupeStore {
	d := &dedupeStore{ttl: ttl, seed: maphash.MakeSeed()}
	for i := range d.shards {
		d.shards[i].m = make(map[string]*dedupeEntry)
	}
	return d
}

func (d *dedupeStore) shard(id string) *dedupeShard {
	return &d.shards[maphash.String(d.seed, id)%dedupeShards]
}

// begin claims id. fresh means the caller owns the request and must later
// call complete or forget. Otherwise cached is the stored response (nil if
// the original is still in flight).
func (d *dedupeStore) begin(id string, now time.Time) (cached *Response, fresh bool) {
	sh := d.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sweep(now, d.ttl)
	if e, ok := sh.m[id]; ok {
		if e.resp == nil || now.Sub(e.at) < d.ttl {
			return e.resp, false
		}
		// Completed and expired: the retry is a fresh request again.
	}
	sh.m[id] = &dedupeEntry{}
	return nil, true
}

// complete stores the terminal response for a claimed id.
func (d *dedupeStore) complete(id string, resp *Response, now time.Time) {
	sh := d.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.m[id] = &dedupeEntry{resp: resp, at: now}
}

// forget releases a claimed id without caching an answer (rejections), so
// a retry is admitted as a fresh request.
func (d *dedupeStore) forget(id string) {
	sh := d.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.m, id)
}

// sweep drops expired completed entries, at most every ttl/4 (caller holds
// the shard lock). In-flight entries never expire — their owner completes
// or forgets them.
func (sh *dedupeShard) sweep(now time.Time, ttl time.Duration) {
	if now.Before(sh.sweepAt) {
		return
	}
	sh.sweepAt = now.Add(ttl / 4)
	for id, e := range sh.m {
		if e.resp != nil && now.Sub(e.at) >= ttl {
			delete(sh.m, id)
		}
	}
}
