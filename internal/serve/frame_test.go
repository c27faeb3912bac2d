package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{Op: OpAcquire, ID: "r1", Units: 2, DeadlineMS: 500, LeaseMS: 1000}
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := ParseRequest(body)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if *got != req {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
}

func TestReadFrameRejects(t *testing.T) {
	zero := make([]byte, 4)
	if _, err := ReadFrame(bytes.NewReader(zero)); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge[:])); err == nil {
		t.Fatal("over-MaxFrame length accepted")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("truncated header accepted")
	}
	var short [4]byte
	binary.BigEndian.PutUint32(short[:], 10)
	if _, err := ReadFrame(bytes.NewReader(append(short[:], 'x'))); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	big := Request{Op: OpAcquire, ID: strings.Repeat("x", MaxFrame)}
	if err := WriteFrame(&buf, big); err == nil {
		t.Fatal("oversize body accepted")
	}
}

func TestParseRequestStrict(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"valid acquire", `{"op":"acquire","id":"a","units":1}`, true},
		{"valid release", `{"op":"release","id":"b","lease":"L1"}`, true},
		{"valid stats", `{"op":"stats","id":"c"}`, true},
		{"unknown field", `{"op":"acquire","id":"a","bogus":1}`, false},
		{"trailing data", `{"op":"stats","id":"c"}{"op":"stats","id":"d"}`, false},
		{"not an object", `[1,2,3]`, false},
		{"bare string", `"acquire"`, false},
		{"empty", ``, false},
		{"truncated json", `{"op":"acq`, false},
		{"wrong type", `{"op":"acquire","id":"a","units":"two"}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseRequest([]byte(tc.body))
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		k    int
		ok   bool
	}{
		{"acquire 1 of k=3", Request{Op: OpAcquire, ID: "a", Units: 1}, 3, true},
		{"acquire k of k", Request{Op: OpAcquire, ID: "a", Units: 3}, 3, true},
		{"acquire over k", Request{Op: OpAcquire, ID: "a", Units: 4}, 3, false},
		{"acquire zero units", Request{Op: OpAcquire, ID: "a"}, 3, false},
		{"acquire negative units", Request{Op: OpAcquire, ID: "a", Units: -1}, 3, false},
		{"acquire no id", Request{Op: OpAcquire, Units: 1}, 3, false},
		{"acquire long id", Request{Op: OpAcquire, ID: strings.Repeat("i", 129), Units: 1}, 3, false},
		{"acquire negative deadline", Request{Op: OpAcquire, ID: "a", Units: 1, DeadlineMS: -1}, 3, false},
		{"acquire negative lease", Request{Op: OpAcquire, ID: "a", Units: 1, LeaseMS: -5}, 3, false},
		{"acquire huge deadline", Request{Op: OpAcquire, ID: "a", Units: 1, DeadlineMS: 1e13}, 3, true},
		{"acquire huge lease", Request{Op: OpAcquire, ID: "a", Units: 1, LeaseMS: 1e13}, 3, true},
		{"acquire unchecked k", Request{Op: OpAcquire, ID: "a", Units: 99}, 0, true},
		{"release ok", Request{Op: OpRelease, ID: "a", Lease: "L1"}, 3, true},
		{"release no lease", Request{Op: OpRelease, ID: "a"}, 3, false},
		{"stats ok", Request{Op: OpStats, ID: "a"}, 3, true},
		{"unknown op", Request{Op: "renew", ID: "a"}, 3, false},
		{"empty op", Request{ID: "a"}, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate(tc.k)
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("accepted")
			}
			if !tc.ok || tc.req.Op != OpAcquire {
				return
			}
			// An accepted acquire's milliseconds never wrap: its deadline is
			// not already past, and its lease is positive and within the cap.
			now := time.Now()
			if d := tc.req.deadlineAt(now); !d.IsZero() && !d.After(now) {
				t.Fatalf("deadline %v is not after receipt", d.Sub(now))
			}
			if ttl := tc.req.leaseTTL(DefaultLeaseTTL); ttl <= 0 || ttl > DefaultLeaseTTL {
				t.Fatalf("lease TTL %v, want in (0, %v]", ttl, DefaultLeaseTTL)
			}
		})
	}
}

func TestCodeErr(t *testing.T) {
	if CodeErr("") != nil {
		t.Fatal("empty code should map to nil")
	}
	for code, want := range map[string]error{
		CodeOverload:  ErrOverload,
		CodeDeadline:  ErrDeadline,
		CodeDraining:  ErrDraining,
		CodePending:   ErrPending,
		CodeMalformed: ErrMalformed,
	} {
		if !errors.Is(CodeErr(code), want) {
			t.Fatalf("CodeErr(%q) != %v", code, want)
		}
	}
	if CodeErr("someday") == nil {
		t.Fatal("unknown code should map to a non-nil error")
	}
}

// FuzzServeFrame feeds arbitrary bytes through the full server-side frame
// path — ReadFrame, ParseRequest, Validate — asserting the contract that
// malformed input errors and never panics.
func FuzzServeFrame(f *testing.F) {
	var valid bytes.Buffer
	WriteFrame(&valid, Request{Op: OpAcquire, ID: "seed", Units: 2})
	f.Add(valid.Bytes())
	var rel bytes.Buffer
	WriteFrame(&rel, Request{Op: OpRelease, ID: "seed2", Lease: "L7"})
	f.Add(rel.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0, 0, 0, 5, '[', '1', ',', '2', ']'})
	f.Add(append([]byte{0, 0, 0, 30}, []byte(`{"op":"acquire","id":"a","uni`)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			body, err := ReadFrame(r)
			if err != nil {
				return // malformed or exhausted: an error, never a panic
			}
			req, err := ParseRequest(body)
			if err != nil {
				continue
			}
			_ = req.Validate(3)
		}
	})
}
