package main

import (
	"compress/gzip"
	"encoding/json"
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

// A -machine file naming a CPU mode, memory model or topology that no
// constant names used to run a machine no flag describes (Consistency 9
// simulated release semantics with the coalescer off). Each is refused
// by field, exit 1.
func TestMachineEnumOutOfRangeFails(t *testing.T) {
	for _, in := range []string{`{"Consistency": 9}`, `{"CPUMode": -1}`, `{"Topology": 2}`} {
		field, _, _ := strings.Cut(strings.Trim(in, `{"`), `"`)
		path := filepath.Join(t.TempDir(), "machine.json")
		if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled", "-machine", path)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "hpfrun: config: "+field+" ") {
			t.Errorf("-machine %s: exit code %d, stdout %q, stderr %q; want 1 and a config: line naming %s", in, code, stdout, stderr, field)
		}
	}
}

func TestScaledJacobiRuns(t *testing.T) {
	code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled")
	if code != 0 || !strings.Contains(stdout, "elapsed   24.362 ms (simulated)") {
		t.Errorf("exit code %d, stdout %q, stderr %q; want 0 and the pinned elapsed line", code, stdout, stderr)
	}
}

// A -param the program cannot take is one line, exit 1: an array too
// large to declare used to panic in makeslice while the cluster was
// built, and a name the program does not declare was ignored.
func TestBadParamFails(t *testing.T) {
	for _, c := range []struct{ param, want string }{
		{"N=999999999", "hpfrun: apps: jacobi: line 5: array A holds more than 1099511627776 bytes, the most one array may\n"},
		{"ZZ=3", "hpfrun: apps: jacobi: no PARAM ZZ to override: program JACOBI declares ITERS, N\n"},
	} {
		code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled", "-param", c.param)
		if code != 1 || stdout != "" || stderr != c.want {
			t.Errorf("-param %s: exit code %d, stdout %q, stderr %q; want 1 and %q", c.param, code, stdout, stderr, c.want)
		}
	}
}

// A crash the run never reaches — an epoch past its last barrier, a
// time past its end — used to leave only "recovery  0 crash(es)
// detected" and exit 0 without a word. The run still succeeds, but says
// once on stderr that the crash never happened; a crash that fires and
// is recovered from says nothing.
func TestUnreachedCrashIsReported(t *testing.T) {
	for _, spec := range []string{"node=3@epoch=999", "node=3@t=999ms"} {
		code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled", "-crash", spec)
		if code != 0 || !strings.Contains(stdout, "recovery  0 crash(es) detected") {
			t.Errorf("%s: exit code %d, stdout %q; want 0 and no crash detected", spec, code, stdout)
		}
		if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "1 of 1 configured crash(es) never fired") {
			t.Errorf("%s: stderr %q; want the one line naming the crash that never fired", spec, stderr)
		}
	}
	code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled", "-crash", "node=3@epoch=5")
	if code != 0 || stderr != "" || !strings.Contains(stdout, "recovery  1 crash(es) detected, 1 recover(ies)") {
		t.Errorf("firing crash: exit code %d, stdout %q, stderr %q; want 0, one recovery and a silent stderr", code, stdout, stderr)
	}
}

// An unusable -ckpt-dir used to exit 0 having written nothing and said
// nothing; it is one line naming the path, exit 1.
func TestUnwritableCkptDirFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "x")
	code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled", "-ckpt-dir", dir)
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "hpfrun: runtime: checkpoint directory "+dir+": ") {
		t.Errorf("exit code %d, stdout %q, stderr %q; want 1 and one line naming %s", code, stdout, stderr, dir)
	}
}

// A -jitter whose nanoseconds no int64 holds used to wrap to some
// other delay, and the run then died in the watchdog; it is one line
// naming the limit, exit 1.
func TestJitterOverflowFails(t *testing.T) {
	for _, us := range []string{"20000000000000000", "-20000000000000000", "9223372036854776"} {
		code, stdout, stderr := runExe(t, "-app", "jacobi", "-size", "scaled", "-jitter", us)
		want := "hpfrun: -jitter " + us + "us overflows the simulated clock (at most 9223372036854775us)\n"
		if code != 1 || stdout != "" || stderr != want {
			t.Errorf("-jitter %s: exit code %d, stdout %q, stderr %q; want 1 and %q", us, code, stdout, stderr, want)
		}
	}
}

// A chart narrower than Gantt draws used to print "(empty timeline)"
// and exit 0, and a negative width was ignored; both are one line
// naming the minimum, exit 1.
func TestGanttBelowMinimumFails(t *testing.T) {
	for _, width := range []string{"5", "9", "-3"} {
		code, stdout, stderr := runExe(t, "-app", "lu", "-size", "scaled", "-gantt", width)
		if code != 1 || stdout != "" || stderr != "hpfrun: -gantt must be 0 or at least 10 characters wide, have "+width+"\n" {
			t.Errorf("-gantt %s: exit code %d, stdout %q, stderr %q; want 1 and the minimum named", width, code, stdout, stderr)
		}
	}
	code, stdout, stderr := runExe(t, "-app", "lu", "-size", "scaled", "-gantt", "10")
	if code != 0 || !strings.Contains(stdout, "legend: a=forall@7") {
		t.Errorf("-gantt 10: exit code %d, stdout %q, stderr %q; want 0 and a chart", code, stdout, stderr)
	}
}

// TestProvenancePinned pins, byte for byte, the provenance text runs
// print: -heatmap stdout of shallow at bulk and of cg on a 16-node tree,
// then the prov argument of every miss span in a -trace-out of the
// shallow run, in export order.
func TestProvenancePinned(t *testing.T) {
	shallow := []string{"-app", "shallow", "-size", "scaled", "-opt", "bulk"}
	var got strings.Builder
	for _, args := range [][]string{
		append(shallow, "-heatmap"),
		{"-app", "cg", "-size", "scaled", "-opt", "rtelim", "-topo", "tree", "-nodes", "16", "-heatmap"},
	} {
		code, stdout, stderr := runExe(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit code %d, stderr %q", args, code, stderr)
		}
		fmt.Fprintf(&got, "$ hpfrun %s\n%s", strings.Join(args, " "), stdout)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if code, _, stderr := runExe(t, append(shallow, "-trace-out", path)...); code != 0 {
		t.Fatalf("-trace-out: exit code %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Cat  string `json:"cat"`
			Args struct {
				Prov string `json:"prov"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "$ hpfrun %s -trace-out: prov of every miss span\n", strings.Join(shallow, " "))
	for _, e := range tr.TraceEvents {
		if e.Cat == "miss" {
			got.WriteString(e.Args.Prov + "\n")
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "provenance.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("provenance text moved (%d bytes, golden %d):\n%s", got.Len(), len(want), got.String())
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

// TestProfilePinned pins, byte for byte, what the observers print: the
// stdout of a profiled, charted lu run with per-node stats and its
// -profile-json, the stdout of a lossy jacobi run (the reliable-delivery
// line and the cluster summary), and the -heatmap-json of shallow at
// bulk.
func TestProfilePinned(t *testing.T) {
	dir := t.TempDir()
	var got strings.Builder
	for _, run := range []struct {
		args []string
		out  string // the file flag whose bytes follow stdout, or ""
	}{
		{[]string{"-app", "lu", "-size", "scaled", "-profile", "-gantt", "80", "-stats"}, "-profile-json"},
		{[]string{"-app", "jacobi", "-size", "scaled", "-drop", ".05", "-dup", ".02", "-stats"}, ""},
		{[]string{"-app", "shallow", "-size", "scaled", "-opt", "bulk"}, "-heatmap-json"},
	} {
		args := run.args
		path := filepath.Join(dir, "out.json")
		if run.out != "" {
			args = append(args, run.out, path)
		}
		code, stdout, stderr := runExe(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit code %d, stderr %q", args, code, stderr)
		}
		fmt.Fprintf(&got, "$ hpfrun %s\n%s", strings.Join(run.args, " "), stdout)
		if run.out != "" {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "$ %s\n%s", run.out, raw)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "profile.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("observer output moved (%d bytes, golden %d):\n%s", got.Len(), len(want), got.String())
	}
}

// A CYCLIC(k) chunk the language refuses is one positioned line, exit 1:
// CYCLIC(0) used to panic in the distribution, and a k past MaxInt was
// read as MaxInt and ran the process out of memory.
func TestBlockCyclicChunkFails(t *testing.T) {
	for k, want := range map[string]string{
		"0":                    "hpfrun: line 4: CYCLIC(0): the chunk size must be at least 1\n",
		"99999999999999999999": "hpfrun: line 4: CYCLIC(99999999999999999999): the chunk size is out of range\n",
	} {
		src := filepath.Join(t.TempDir(), "cyc.hpf")
		if err := os.WriteFile(src, []byte(`PROGRAM cyc
PARAM n = 16
REAL a(n, n)
DISTRIBUTE a(*, CYCLIC(`+k+`))
FORALL (i = 1:n, j = 1:n)
  a(i, j) = i + j
END FORALL
END
`), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runExe(t, "-file", src)
		if code != 1 || stdout != "" || stderr != want {
			t.Errorf("CYCLIC(%s): exit code %d, stdout %q, stderr %q; want 1 and %q", k, code, stdout, stderr, want)
		}
	}
}

// A -machine file's values used to be replaced by every flag's
// default: a 4-node single-CPU tree ran as 8 dual-CPU nodes on a flat
// topology, and adding -crash reset the file's drop rate and seed. A
// flag now overrides the file only when given, a fault flag only the
// field it names, and -crash adds to the file's crashes.
func TestMachineFileKeepsValuesNoFlagGives(t *testing.T) {
	tree := `{"Nodes": 4, "BlockSize": 64, "CPUMode": 1, "Topology": 1, "Radix": 2}`
	lossy := `{"Faults": {"Drop": 0.01, "Seed": 7}}`
	for _, c := range []struct {
		name, file string
		flags      []string
		want       []string // lines stdout must hold
	}{
		{"file alone", tree, nil, []string{
			"machine   4 node(s), single-cpu, 64B blocks,",
			"topology  tree, radix 2\n",
		}},
		{"file and -nodes", tree, []string{"-nodes", "2"}, []string{
			"machine   2 node(s), single-cpu, 64B blocks,",
			"topology  tree, radix 2\n",
		}},
		{"file faults and -crash", lossy, []string{"-crash", "node=1@epoch=3"}, []string{
			"machine   8 node(s), dual-cpu, 128B blocks,",
			"faults    drop=0.01 dup=0 jitter=0us reorder=0 seed=7 crashes=1\n",
			"recovery  1 crash(es) detected, 1 recover(ies),",
		}},
	} {
		path := filepath.Join(t.TempDir(), "machine.json")
		if err := os.WriteFile(path, []byte(c.file), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runExe(t, append([]string{"-app", "jacobi", "-size", "scaled", "-machine", path}, c.flags...)...)
		if code != 0 {
			t.Errorf("%s: exit code %d, stderr %q; want 0", c.name, code, stderr)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("%s: stdout %q lacks %q", c.name, stdout, w)
			}
		}
	}
}

// Every flag is checked before anything runs: an unknown -backend used
// to fail only after -verify had printed its verdict. It is one line,
// exit 1, with nothing on stdout.
func TestBadFlagFailsBeforeWork(t *testing.T) {
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-verify", "-backend", "foo"}, "hpfrun: unknown -backend \"foo\"\n"},
	} {
		code, stdout, stderr := runExe(t, append([]string{"-app", "jacobi", "-size", "scaled"}, c.flags...)...)
		if code != 1 || stdout != "" || stderr != c.want {
			t.Errorf("%v: exit code %d, stdout %q, stderr %q; want 1 and %q", c.flags, code, stdout, stderr, c.want)
		}
	}
}
