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
	dir, err := os.MkdirTemp("", "hpfrun")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	exe = filepath.Join(dir, "hpfrun")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runExe runs the command and returns its exit code, stdout and stderr.
func runExe(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// A failing invocation must still stop the profiler it started: the
// -cpuprofile file is a gzip stream that reads to EOF, not the
// zero-byte file an os.Exit past the deferred stop used to leave. Both
// machines are ones config.Validate refuses.
func TestFailureStillClosesProfile(t *testing.T) {
	for _, block := range []string{"24", "256"} {
		prof := filepath.Join(t.TempDir(), "cpu.pprof")
		code, _, stderr := runExe(t, "-app", "jacobi", "-size", "scaled", "-block", block, "-cpuprofile", prof)
		if code != 1 || !strings.HasPrefix(stderr, "hpfrun: config: ") || !strings.Contains(stderr, "block size "+block) {
			t.Errorf("-block %s: exit code %d, stderr %q; want 1 and the block size named", block, code, stderr)
		}
		f, err := os.Open(prof)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("-block %s: profile is not a gzip stream: %v", block, err)
		}
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Errorf("-block %s: profile is truncated: %v", block, err)
		}
		f.Close()
	}
}

func TestScaledJacobiRuns(t *testing.T) {
	code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled")
	if code != 0 || !strings.Contains(stdout, "elapsed   24.362 ms (simulated)") {
		t.Errorf("exit code %d, stdout %q, stderr %q; want 0 and the pinned elapsed line", code, stdout, stderr)
	}
}

// -check and -ckpt belong to the shared-memory protocol. On the
// message-passing backend the run goes ahead without them and says so
// once; it used to print "checks    0 coherence audits passed" and drop
// -ckpt without a word.
func TestMPBackendSaysCheckAndCkptDoNotApply(t *testing.T) {
	for _, flags := range [][]string{{"-check"}, {"-ckpt"}, {"-check", "-ckpt"}} {
		code, stdout, stderr := runExe(t, append([]string{"-app", "jacobi", "-size", "scaled", "-backend", "mp"}, flags...)...)
		if code != 0 || strings.Contains(stdout, "checks ") || strings.Contains(stdout, "recovery ") {
			t.Errorf("%v: exit code %d, stdout %q; want 0 and neither a checks nor a recovery line", flags, code, stdout)
		}
		if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "do not apply to the message-passing backend") {
			t.Errorf("%v: stderr %q; want the one line saying they do not apply", flags, stderr)
		}
	}
	code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled", "-check", "-ckpt")
	if code != 0 || stderr != "" || !strings.Contains(stdout, "coherence audits passed") || !strings.Contains(stdout, "checkpoint(s)") {
		t.Errorf("shared memory: exit code %d, stdout %q, stderr %q; want both lines and a silent stderr", code, stdout, stderr)
	}
}
