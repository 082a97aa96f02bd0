package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// exe is the command, built once for the tests to run.
var exe string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "paperbench")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	exe = filepath.Join(dir, "paperbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// exitCode runs the command and returns its exit code and stderr.
func exitCode(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stderr strings.Builder
	cmd := exec.Command(exe, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// A failing invocation must still stop the profiler it started: the
// -cpuprofile file is a gzip stream that reads to EOF, not the
// zero-byte file an os.Exit past the deferred stop used to leave.
func TestFailureStillClosesProfile(t *testing.T) {
	for _, bad := range [][]string{{"-exp", "nosuch"}, {"-size", "huge"}} {
		prof := filepath.Join(t.TempDir(), "cpu.pprof")
		code, stderr := exitCode(t, append(bad, "-cpuprofile", prof)...)
		if code != 2 || !strings.Contains(stderr, bad[1]) {
			t.Errorf("%v: exit code %d, stderr %q; want 2 and the bad value named", bad, code, stderr)
		}
		f, err := os.Open(prof)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%v: profile is not a gzip stream: %v", bad, err)
		}
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Errorf("%v: profile is truncated: %v", bad, err)
		}
		f.Close()
	}
}

// TestCountsBelowOneRefused: -j below 1 is a usage error, one line and
// exit code 2, before anything runs.
func TestCountsBelowOneRefused(t *testing.T) {
	for _, c := range [][]string{{"-j", "0"}, {"-j", "-1"}} {
		code, stderr := exitCode(t, "-exp", "scale", "-size", "scaled", c[0], c[1])
		if want := c[0] + " must be at least 1, have " + c[1] + "\n"; code != 2 || stderr != want {
			t.Errorf("%v: exit code %d, stderr %q; want 2 and %q", c, code, stderr, want)
		}
	}
}

func TestNamedExperimentRuns(t *testing.T) {
	if code, stderr := exitCode(t, "-exp", "table1"); code != 0 {
		t.Errorf("-exp table1: exit code %d, stderr %q", code, stderr)
	}
}
