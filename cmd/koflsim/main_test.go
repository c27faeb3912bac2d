package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: every malformed flag combination must come back as a
// usageError (exit code 2 with a usage hint in main), never a panic or a
// plain runtime error.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-k", "5", "-l", "3"},
		{"-k", "0"},
		{"-l", "70001"}, // ℓ+1 must fit the controller frame's 16-bit count
		{"-n", "1"},
		{"-topo", "moebius"},
		{"-variant", "bogus"},
		{"-cmax", "-1"},
		{"-steps", "0"},
		{"-need", "7", "-k", "2", "-l", "3"},
		{"-hold", "-1"},
		{"-adversary", "no-such-scenario-or-file"},
		{"-unknown-flag"},
		{"stray-arg"},
	}
	for _, args := range cases {
		err := run(args, os.NewFile(0, os.DevNull))
		if err == nil {
			t.Errorf("args %v: accepted", args)
			continue
		}
		if _, ok := err.(usageError); !ok {
			t.Errorf("args %v: got %T (%v), want usageError", args, err, err)
		}
	}
}

// TestRunSmoke drives a tiny run end to end, with and without a built-in
// adversary scenario and with a scenario file.
func TestRunSmoke(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if err := run([]string{"-topo", "paper", "-steps", "2000"}, null); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := run([]string{"-topo", "star", "-n", "6", "-steps", "5000",
		"-adversary", "budgeted-random"}, null); err != nil {
		t.Fatalf("builtin adversary run: %v", err)
	}
	script := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(script, []byte(
		`{"version":1,"name":"f","phases":[{"steps":0,"events":[{"kind":"garbage","every":500}]}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-steps", "3000", "-adversary", script}, null); err != nil {
		t.Fatalf("file adversary run: %v", err)
	}
	// A malformed scenario file is a runtime error (exit 1), not usage.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-adversary", bad}, null)
	if err == nil {
		t.Fatal("malformed scenario file accepted")
	}
	if _, ok := err.(usageError); ok {
		t.Fatal("malformed scenario file misclassified as usage error")
	}
	if !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("unhelpful scenario error: %v", err)
	}
}
