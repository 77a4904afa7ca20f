package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsInvalidFlags: a flag value the simulation cannot use
// exits 1 with one sbgpsim: line on stderr and nothing on stdout, before
// any simulation runs — never a panic, never a silent exit 0.
func TestRunRejectsInvalidFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-x", "1.5"},
		{"-x", "-0.1"},
		{"-workers", "-2"},
		{"-max-rounds", "-5"},
		{"-dist-workers", "-1"},
		{"-augment", "-0.5"},
		{"-augment", "1.5"},
		{"-cache-bytes", "-1"},
		{"-model", "bogus"},
		{"-preset", "bogus"},
	} {
		args = append([]string{"-n", "300", "-q"}, args...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "sbgpsim: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one sbgpsim: line", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want nothing", args, stdout.String())
		}
	}
}

// TestRunUnparsableFlag: a flag that does not parse exits 2, the flag
// package's convention, with its usage on stderr.
func TestRunUnparsableFlag(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-n", "many"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, stderr %q; want usage on stderr only", args, stdout.String(), stderr.String())
		}
	}
}

// TestRunSummary: a valid game exits 0 and prints its summary to stdout.
func TestRunSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "300", "-q", "-workers", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "secure ASes:") || stderr.Len() != 0 {
		t.Errorf("stdout %q, stderr %q; want a summary on stdout only", stdout.String(), stderr.String())
	}
}
