package serve

import (
	"sync"
	"time"
)

// dedupeStore makes acquire idempotent: the first frame carrying a request
// id claims it, the grant (or terminal answer) is cached under it, and any
// retry inside the TTL window gets the cached response back instead of a
// second lease. Rejections (overload, deadline, draining) release the id so
// an honest retry may succeed later. Entries expire TTL after completion;
// expiry is swept lazily on access, at most every ttl/4. One mutex guards
// the map: it is held for a map operation, once per acquire frame and once
// per answer.
type dedupeStore struct {
	ttl     time.Duration
	mu      sync.Mutex
	m       map[string]*dedupeEntry
	sweepAt time.Time
}

type dedupeEntry struct {
	resp *Response // nil while the request is in flight
	at   time.Time // completion time; zero while in flight
}

func newDedupeStore(ttl time.Duration) *dedupeStore {
	return &dedupeStore{ttl: ttl, m: make(map[string]*dedupeEntry)}
}

// begin claims id. fresh means the caller owns the request and must later
// call complete or forget. Otherwise cached is the stored response (nil if
// the original is still in flight).
func (d *dedupeStore) begin(id string, now time.Time) (cached *Response, fresh bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sweep(now)
	if e, ok := d.m[id]; ok {
		if e.resp == nil || now.Sub(e.at) < d.ttl {
			return e.resp, false
		}
		// Completed and expired: the retry is a fresh request again.
	}
	d.m[id] = &dedupeEntry{}
	return nil, true
}

// complete stores the terminal response for a claimed id.
func (d *dedupeStore) complete(id string, resp *Response, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[id] = &dedupeEntry{resp: resp, at: now}
}

// forget releases a claimed id without caching an answer (rejections), so
// a retry is admitted as a fresh request.
func (d *dedupeStore) forget(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.m, id)
}

// sweep drops expired completed entries, at most every ttl/4 (caller holds
// the lock). In-flight entries never expire — their owner completes or
// forgets them.
func (d *dedupeStore) sweep(now time.Time) {
	if now.Before(d.sweepAt) {
		return
	}
	d.sweepAt = now.Add(d.ttl / 4)
	for id, e := range d.m {
		if e.resp != nil && now.Sub(e.at) >= d.ttl {
			delete(d.m, id)
		}
	}
}
