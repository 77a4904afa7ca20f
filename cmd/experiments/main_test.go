package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunErrorPrefix: an option the batch rejects reaches stderr with
// one experiments: prefix, not the command's on top of the package's,
// and exits 2 before anything runs.
func TestRunErrorPrefix(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "all", "-n", "3"},
		{"-run", "all", "-cache-bytes", "-1"},
		{"-run", "table4", "-dist-workers", "-1"},
		{"-run", "table4", "-parallel", "-3"},
		{"-run", "nosuch"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "experiments: ") || strings.Count(msg, "experiments:") != 1 {
			t.Errorf("%v: stderr %q, want one experiments: prefix", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want nothing", args, stdout.String())
		}
	}
}
