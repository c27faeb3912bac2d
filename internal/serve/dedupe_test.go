package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDedupeLifecycle walks the idempotence contract table-driven over a
// fake clock: claim → in-flight → complete → replay inside TTL → expire.
func TestDedupeLifecycle(t *testing.T) {
	ttl := 10 * time.Second
	t0 := time.Unix(1000, 0)
	grant := &Response{ID: "r1", OK: true, Lease: "L1", Units: 2}

	steps := []struct {
		name       string
		at         time.Duration // offset from t0
		op         string        // begin | complete | forget
		id         string
		wantFresh  bool
		wantCached *Response
	}{
		{name: "first begin claims", at: 0, op: "begin", id: "r1", wantFresh: true},
		{name: "duplicate while in flight", at: time.Second, op: "begin", id: "r1", wantFresh: false, wantCached: nil},
		{name: "complete stores grant", at: 2 * time.Second, op: "complete", id: "r1"},
		{name: "retry inside ttl replays", at: 5 * time.Second, op: "begin", id: "r1", wantFresh: false, wantCached: grant},
		{name: "retry at ttl-1ns still replays", at: 2*time.Second + ttl - time.Nanosecond, op: "begin", id: "r1", wantFresh: false, wantCached: grant},
		{name: "retry at ttl is fresh again", at: 2*time.Second + ttl, op: "begin", id: "r1", wantFresh: true},
		{name: "forget readmits", at: 13 * time.Second, op: "forget", id: "r1"},
		{name: "begin after forget is fresh", at: 13 * time.Second, op: "begin", id: "r1", wantFresh: true},
		{name: "other ids are independent", at: 13 * time.Second, op: "begin", id: "r2", wantFresh: true},
	}

	d := newDedupeStore(ttl)
	for _, st := range steps {
		now := t0.Add(st.at)
		switch st.op {
		case "begin":
			cached, fresh := d.begin(st.id, now)
			if fresh != st.wantFresh {
				t.Fatalf("%s: fresh=%v want %v", st.name, fresh, st.wantFresh)
			}
			if st.wantCached == nil && cached != nil {
				t.Fatalf("%s: cached=%+v want nil", st.name, cached)
			}
			if st.wantCached != nil && (cached == nil || cached.Lease != st.wantCached.Lease) {
				t.Fatalf("%s: cached=%+v want %+v", st.name, cached, st.wantCached)
			}
		case "complete":
			d.complete(st.id, grant, now)
		case "forget":
			d.forget(st.id)
		}
	}
}

// TestDedupeSweep verifies expired completed entries are actually removed
// (not just masked) while in-flight claims survive any amount of time.
func TestDedupeSweep(t *testing.T) {
	ttl := time.Second
	t0 := time.Unix(2000, 0)
	d := newDedupeStore(ttl)

	if _, fresh := d.begin("done", t0); !fresh {
		t.Fatal("claim failed")
	}
	d.complete("done", &Response{ID: "done", OK: true}, t0)
	if _, fresh := d.begin("inflight", t0); !fresh {
		t.Fatal("claim failed")
	}
	if got := d.size(); got != 2 {
		t.Fatalf("size=%d want 2", got)
	}

	// Far past the TTL: the next begin sweeps the completed entry but must
	// keep the in-flight claim (its owner still holds it).
	if _, fresh := d.begin("probe", t0.Add(time.Hour)); !fresh {
		t.Fatal("claim failed")
	}
	if cached, fresh := d.begin("inflight", t0.Add(time.Hour)); fresh || cached != nil {
		t.Fatalf("in-flight entry was swept (fresh=%v cached=%v)", fresh, cached)
	}
	if got := d.size(); got != 2 { // inflight + probe; "done" swept
		t.Fatalf("size=%d want 2 after sweep", got)
	}
}

// TestDedupeSweepThrottle: sweeps run at most every ttl/4, so a burst of
// begins between sweep points does not rescan the map each time.
func TestDedupeSweepThrottle(t *testing.T) {
	ttl := 8 * time.Second
	t0 := time.Unix(3000, 0)
	d := newDedupeStore(ttl)
	d.complete("old", &Response{OK: true}, t0)

	// First access sets the next sweep point at t0+2s; "old" is not yet
	// expired there, and accesses before the point must not sweep at all.
	d.begin("a", t0)
	d.begin("b", t0.Add(time.Second))
	if got := d.size(); got != 3 {
		t.Fatalf("size=%d want 3", got)
	}
	// Jump past both the sweep point and the TTL: "old" goes.
	d.begin("c", t0.Add(2*ttl))
	if cached, fresh := d.begin("old", t0.Add(2*ttl)); !fresh || cached != nil {
		t.Fatal("expired entry still answered from the store")
	}
}

// TestDedupeConcurrentClaims: goroutines racing begin on the same ids get
// exactly one fresh claim per id, and once that owner completes, every later
// begin replays its response. Run it with -race.
func TestDedupeConcurrentClaims(t *testing.T) {
	const goroutines, ids = 8, 64
	now := time.Unix(4000, 0)
	d := newDedupeStore(time.Minute)
	var fresh [ids]atomic.Int32
	var stored [ids]atomic.Pointer[Response]
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				n := (i + 7*g) % ids // each goroutine starts at its own id
				id := fmt.Sprintf("r%d", n)
				cached, ok := d.begin(id, now)
				switch {
				case ok:
					fresh[n].Add(1)
					resp := &Response{ID: id, OK: true, Lease: "L-" + id}
					stored[n].Store(resp)
					d.complete(id, resp, now)
				case cached != nil && cached != stored[n].Load():
					t.Errorf("%s: replayed %+v, not the completed response", id, cached)
				}
			}
		}()
	}
	wg.Wait()
	for n := range ids {
		id := fmt.Sprintf("r%d", n)
		if got := fresh[n].Load(); got != 1 {
			t.Errorf("%s: %d fresh claims, want exactly 1", id, got)
		}
		if cached, ok := d.begin(id, now.Add(time.Second)); ok || cached != stored[n].Load() {
			t.Errorf("%s: after completion begin = (%+v, fresh %v), want the stored response", id, cached, ok)
		}
	}
}

// size reports the live entry count.
func (d *dedupeStore) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.m)
}
