package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"kofl/internal/serve/loadgen"
)

// TestUsageErrors pins the exit-code convention: malformed flags and flag
// combinations return usageError (exit 2 + usage hint), never a panic.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"positional arg", []string{"paper"}},
		{"k over l", []string{"-k", "5", "-l", "2"}},
		{"zero k", []string{"-k", "0"}},
		{"l over the frame limit", []string{"-k", "1", "-l", "65535"}},
		{"negative cmax", []string{"-cmax", "-1"}},
		{"zero queue", []string{"-queue", "0"}},
		{"negative load", []string{"-load", "-5"}},
		{"load over the arrival clock", []string{"-load", "2e9"}},
		{"load units over k", []string{"-k", "2", "-l", "3", "-load-units", "3"}},
		{"unknown topo", []string{"-topo", "mesh"}},
		{"tiny n", []string{"-topo", "chain", "-n", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out, io.Discard)
			if err == nil {
				t.Fatal("accepted")
			}
			if _, ok := err.(usageError); !ok {
				t.Fatalf("err %v (%T) is not a usageError", err, err)
			}
		})
	}
}

// TestServeForDuration runs the server end to end for a bounded interval and
// checks the drain banner is printed.
func TestServeForDuration(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topo", "star", "-n", "4", "-k", "2", "-l", "3",
		"-duration", "300ms"}, &out, io.Discard); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"serving star", "draining", "served 0 grants"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestLoadMode runs the embedded load test and checks the printed report:
// parseable JSON on stdout, zero protocol violations, non-empty latency
// histogram, and the human latency/rejects summary line on stderr.
func TestLoadMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-topo", "paper", "-k", "3", "-l", "5",
		"-load", "100", "-load-duration", "1s"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var res loadgen.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if res.Violations != 0 {
		t.Fatalf("violations: %+v", res)
	}
	if res.Completed == 0 || res.LatencyCount == 0 {
		t.Fatalf("empty load report: %+v", res)
	}
	summary := errOut.String()
	for _, want := range []string{"p50=", "p95=", "p99=", "overload=", "deadline="} {
		if !strings.Contains(summary, want) {
			t.Fatalf("summary line missing %q:\n%s", want, summary)
		}
	}
}
