// Package serve is the network-facing resource-lease layer over the live
// runtime: external clients lease up to k of the ℓ resource units of a
// k-out-of-ℓ exclusion tree over a length-prefixed JSON TCP protocol.
//
// Every acquire is routed at admission to the least-loaded tree process and
// waits there (a full routed and fallback process answers "overload" at
// once). Each process's worker is the single owner of its ledger, whose one
// FIFO waiting line opens one multi-unit protocol cycle at a time,
// Request(p, Σunits ≤ k), and fans the grant out as independent
// sub-leases. Wherever an acquire waits, its deadline is answered at the
// deadline; leases expire at their TTL (request-chosen, clamped to the
// server maximum), and the cycle's units go back to the protocol exactly
// once. Acquire is idempotent
// through a TTL dedupe store keyed by the client-chosen request id.
//
// Wire format: each frame is a 4-byte big-endian length followed by one JSON
// object (a Request from clients, a Response from the server). Responses are
// matched to requests by the client-chosen id, not by ordering — the server
// answers release/stats frames while an acquire on the same session is still
// queued.
package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// MaxFrame bounds one frame body; a longer announced length is a protocol
// error (and keeps a hostile client from making the server buffer gigabytes).
const MaxFrame = 64 << 10

// Request ops.
const (
	OpAcquire = "acquire"
	OpRelease = "release"
	OpStats   = "stats"
)

// Response error codes (Response.Err). CodeErr maps them to the exported
// sentinel errors.
const (
	CodeOverload  = "overload"
	CodeDeadline  = "deadline"
	CodeDraining  = "draining"
	CodePending   = "pending"
	CodeMalformed = "malformed"
)

// Sentinel errors for the response codes above.
var (
	// ErrOverload rejects an acquire that found its process queue full: the
	// explicit load-shedding signal of a saturated server.
	ErrOverload = errors.New("serve: overload (process queue full)")
	// ErrDeadline rejects an acquire whose queue-wait deadline passed
	// before the units could be granted.
	ErrDeadline = errors.New("serve: acquire deadline exceeded")
	// ErrDraining rejects an acquire that reached a server shutting down.
	ErrDraining = errors.New("serve: server draining")
	// ErrPending rejects an acquire whose request id is already in flight.
	ErrPending = errors.New("serve: duplicate request id still in flight")
	// ErrMalformed rejects a frame that did not parse or validate.
	ErrMalformed = errors.New("serve: malformed request")
)

// CodeErr maps a Response error code to its sentinel error (nil for an empty
// code; a generic error for an unknown one, so clients can always errors.Is).
func CodeErr(code string) error {
	switch code {
	case "":
		return nil
	case CodeOverload:
		return ErrOverload
	case CodeDeadline:
		return ErrDeadline
	case CodeDraining:
		return ErrDraining
	case CodePending:
		return ErrPending
	case CodeMalformed:
		return ErrMalformed
	default:
		return fmt.Errorf("serve: server error %q", code)
	}
}

// Request is one client frame.
type Request struct {
	// Op is one of acquire, release, stats.
	Op string `json:"op"`
	// ID is the client-chosen request id: the dedupe key for acquires and
	// the correlation id every response echoes. Required, ≤ 128 bytes, and
	// expected to be globally unique per logical request (retries reuse it —
	// that is what makes acquire idempotent).
	ID string `json:"id"`
	// Units is the acquire size (1 ≤ units ≤ k).
	Units int `json:"units,omitempty"`
	// DeadlineMS bounds an acquire's wait for its grant in milliseconds
	// (0 = wait indefinitely); past it the acquire is answered with the
	// deadline code. See Client.Acquire for when that answer is sent.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// LeaseMS is the requested lease TTL in milliseconds (0 = server
	// default; always clamped to the server maximum).
	LeaseMS int64 `json:"lease_ms,omitempty"`
	// Lease is the lease id to release (release op only).
	Lease string `json:"lease,omitempty"`
}

// Validate checks the request against the protocol rules and the server's
// per-request cap k (k ≤ 0 skips the bound check, for contexts that do not
// know the tree yet).
func (r *Request) Validate(k int) error {
	if r.ID == "" {
		return fmt.Errorf("missing request id")
	}
	if len(r.ID) > 128 {
		return fmt.Errorf("request id longer than 128 bytes")
	}
	switch r.Op {
	case OpAcquire:
		if r.Units < 1 {
			return fmt.Errorf("acquire of %d units (need ≥ 1)", r.Units)
		}
		if k > 0 && r.Units > k {
			return fmt.Errorf("acquire of %d units exceeds k=%d", r.Units, k)
		}
		if r.DeadlineMS < 0 || r.LeaseMS < 0 {
			return fmt.Errorf("negative deadline_ms/lease_ms")
		}
	case OpRelease:
		if r.Lease == "" {
			return fmt.Errorf("release without lease id")
		}
	case OpStats:
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
	return nil
}

// deadlineAt is when an acquire received at now stops waiting for its grant
// (zero: never). Client milliseconds are clamped before they are converted,
// here and in leaseTTL, so no value wraps a Duration negative.
func (r *Request) deadlineAt(now time.Time) time.Time {
	if r.DeadlineMS <= 0 {
		return time.Time{}
	}
	return now.Add(time.Duration(min(r.DeadlineMS, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond)
}

// leaseTTL is the lease duration r asks for, clamped to the server maximum
// (which is also the default).
func (r *Request) leaseTTL(max time.Duration) time.Duration {
	if r.LeaseMS <= 0 || r.LeaseMS > max.Milliseconds() {
		return max
	}
	return time.Duration(r.LeaseMS) * time.Millisecond
}

// Response is one server frame, correlated to its request by ID.
type Response struct {
	ID string `json:"id"`
	OK bool   `json:"ok"`
	// Err is a response code from the Code… set ("" when OK); CodeErr maps
	// it back to a sentinel error. Detail carries the human-readable cause.
	Err    string `json:"error,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Grant fields (acquire only).
	Lease   string `json:"lease,omitempty"`
	Units   int    `json:"units,omitempty"`
	Process int    `json:"process,omitempty"`
	// Stats payload (stats op only).
	Stats *Stats `json:"stats,omitempty"`
}

// ParseRequest decodes one request body strictly: unknown fields, trailing
// data and non-object bodies are all errors, never panics.
func ParseRequest(b []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("serve: bad request frame: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after request object")
	}
	return &r, nil
}

// parseResponse decodes one response body (client side). Unknown fields are
// tolerated here — a newer server may answer with more than we know.
func parseResponse(b []byte) (*Response, error) {
	var r Response
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("serve: bad response frame: %w", err)
	}
	return &r, nil
}

// WriteFrame writes v as one length-prefixed JSON frame in a single Write
// call (header and body coalesce into one TCP segment instead of two).
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("serve: frame body %d bytes exceeds MaxFrame", len(body))
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(body)))
	copy(buf[4:], body)
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed frame body. A zero or over-MaxFrame
// announced length is a protocol error.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("serve: zero-length frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("serve: announced frame length %d exceeds MaxFrame", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
