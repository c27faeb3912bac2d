package obs

import (
	"fmt"
	"io"
	"sync"
)

// Kind tags one journal entry with the event it records. Journal JSON
// carries the kind's name, never its number.
type Kind uint8

const (
	// KindStabilized: a controller traversal completed at the live root
	// found a legitimate token population after one that did not
	// (core.Config.LegitimatePopulation); A/B = the resource and priority
	// tokens it counted.
	KindStabilized Kind = iota
	// KindDestabilized: a traversal found the population left the
	// legitimate set; A/B as for KindStabilized.
	KindDestabilized
	// KindLeaseGrant: the serve layer granted a lease (Proc = tree process,
	// A = units, B = acquire latency µs).
	KindLeaseGrant
	// KindLeaseRelease: a lease was torn down (A = units, B = release cause:
	// 0 client, 1 expired, 2 drain).
	KindLeaseRelease
	// KindFaultInjected: a fault injector acted (A/B = injector detail,
	// e.g. seed and frame count).
	KindFaultInjected
	// KindTimeout: the root's retransmission timeout fired.
	KindTimeout
	// KindDrain: the serve layer began draining.
	KindDrain

	numKinds
)

var kindNames = [numKinds]string{
	"stabilized", "destabilized", "lease_grant", "lease_release",
	"fault_injected", "timeout", "drain",
}

// String returns the wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ReleaseCause codes for KindLeaseRelease's B field.
const (
	ReleaseClient int64 = iota
	ReleaseExpired
	ReleaseDrain
)

// Entry is one fixed-size journal record. Time is whatever clock the journal
// was built with (wall ns for the live runtime and the lease server); Proc
// is the tree process concerned (-1 when not process-scoped); A and B are
// kind-specific details.
type Entry struct {
	Seq  uint64
	Time int64
	Kind Kind
	Proc int32
	A, B int64
}

// Journal is a bounded ring buffer of fixed-size entries: Record overwrites
// the oldest entry once the ring is full, takes one uncontended mutex, and
// never allocates — so it is safe on zero-allocation hot paths. Snapshot and
// WriteJSON are for debug surfaces and may allocate freely.
type Journal struct {
	mu   sync.Mutex
	now  func() int64 // nil: entries carry Time 0
	ring []Entry      // preallocated, len == capacity
	next uint64       // total records ever; ring index is next % len
}

// NewJournal returns a journal holding the last capacity entries (min 1).
// now supplies entry timestamps (may be nil).
func NewJournal(capacity int, now func() int64) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{now: now, ring: make([]Entry, capacity)}
}

// Record appends one entry, stamped with the journal's clock.
func (j *Journal) Record(k Kind, proc int32, a, b int64) {
	var t int64
	if j.now != nil {
		t = j.now()
	}
	j.mu.Lock()
	j.ring[j.next%uint64(len(j.ring))] = Entry{
		Seq: j.next, Time: t, Kind: k, Proc: proc, A: a, B: b,
	}
	j.next++
	j.mu.Unlock()
}

// Len returns the total number of entries ever recorded (recorded - retained
// = overwritten).
func (j *Journal) Len() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Snapshot returns the retained entries, oldest first.
func (j *Journal) Snapshot() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.next
	cap64 := uint64(len(j.ring))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Entry, 0, n-start)
	for s := start; s < n; s++ {
		out = append(out, j.ring[s%cap64])
	}
	return out
}

// WriteJSON renders the retained entries (oldest first) as a JSON array of
// objects: {"seq":..,"time":..,"kind":"..","proc":..,"a":..,"b":..}.
func (j *Journal) WriteJSON(w io.Writer) error {
	entries := j.Snapshot()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range entries {
		sep := ",\n"
		if i == len(entries)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w,
			"  {\"seq\":%d,\"time\":%d,\"kind\":%q,\"proc\":%d,\"a\":%d,\"b\":%d}%s",
			e.Seq, e.Time, e.Kind.String(), e.Proc, e.A, e.B, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
