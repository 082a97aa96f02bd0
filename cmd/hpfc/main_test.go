package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/bench"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
)

// exe is the command, built once for the tests to run.
var exe string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hpfc")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	exe = filepath.Join(dir, "hpfc")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// verifierBarriers is, per loop of lu in the order hpfc -calls shows them
// (sequential loops at their first iteration), the barriers the static
// verifier folds for each node at OptBulk.
func verifierBarriers(t *testing.T, nodes int) (labels []string, barriers [][]int) {
	t.Helper()
	prog, err := bench.LoadProgram("lu", "", bench.Scaled, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default().WithNodes(nodes)
	_, layouts := compiler.Place(prog, mc)
	an, err := compiler.New(prog, nodes, layouts, mc.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	m := analysis.NewModel(an, compiler.OptBulk, analysis.NewReport(prog.Name))
	env := map[string]int{}
	for k, v := range prog.Params {
		env[k] = v
	}
	record := func(lc *analysis.LoopCalls) {
		labels = append(labels, lc.Site.Loop)
		barriers = append(barriers, slices.Clone(lc.Barriers)) // the model's scratch
	}
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ir.Block:
				walk(st.Body)
			case *ir.SeqLoop:
				env[st.Var] = st.Lo.Eval(env)
				walk(st.Body)
				delete(env, st.Var)
			case *ir.ParLoop:
				record(m.FoldLoopCalls(st, analysis.Site{Loop: st.Label}, an.Schedule(st, an.LoopRuleOf(st), env), false))
			case *ir.Reduce:
				t.Fatalf("lu has a reduction now (%s): hpfc prints its all-reduce as part of the body, the verifier counts it as a barrier, and this test does not allow for that", st.Label)
			}
		}
	}
	walk(prog.Body)
	return labels, barriers
}

// TestCallsBarrierParity: hpfc -calls used to decide the barriers around
// a loop from the node's own transfers, so lu's forall@17 showed three on
// node 0 and four elsewhere, where every node of a run takes four. Every
// node must print the same number per loop, and it must be the number
// the verifier folds.
func TestCallsBarrierParity(t *testing.T) {
	const nodes = 8
	labels, want := verifierBarriers(t, nodes)
	sawReads := false
	for n := 0; n < nodes; n++ {
		out, err := exec.Command(exe, "-app", "lu", "-nodes", fmt.Sprint(nodes), "-calls", "-node", fmt.Sprint(n)).Output()
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
		var gotLabels []string
		var got []int
		for _, line := range strings.Split(string(out), "\n") {
			switch line = strings.TrimSpace(line); {
			case strings.HasPrefix(line, "forall@"):
				gotLabels = append(gotLabels, strings.TrimSuffix(line, ":"))
				got = append(got, 0)
			case line == "barrier":
				got[len(got)-1]++
			}
		}
		if fmt.Sprint(gotLabels) != fmt.Sprint(labels) {
			t.Fatalf("node %d: hpfc shows loops %v, the verifier walked %v", n, gotLabels, labels)
		}
		for i, label := range labels {
			if got[i] != want[i][n] || got[i] != want[i][0] {
				t.Errorf("node %d, %s: hpfc -calls prints %d barrier(s), the verifier folds %d for it and %d for node 0",
					n, label, got[i], want[i][n], want[i][0])
			}
			sawReads = sawReads || got[i] == 4
		}
	}
	if !sawReads {
		t.Fatal("no loop of lu printed the full four barriers: the comparison never saw a schedule with reads")
	}
}

// TestPrintIsTheScaledApp: -print of every application is its program
// at the scaled sizing, as built straight from the app.
func TestPrintIsTheScaledApp(t *testing.T) {
	for _, a := range append(apps.All(), apps.Irregular()) {
		prog, err := a.Program(a.ScaledParams)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(exe, "-app", a.Name, "-print").Output()
		if err != nil {
			t.Fatalf("-app %s -print: %v", a.Name, err)
		}
		if want := lang.Print(prog); string(out) != want {
			t.Errorf("-app %s -print printed\n%s\nwant\n%s", a.Name, out, want)
		}
	}
}

// TestNodeOutOfRange: -node beyond the machine is refused in one line,
// not printed as a communication-free program.
func TestNodeOutOfRange(t *testing.T) {
	for _, node := range []string{"8", "99", "-1"} {
		out, err := exec.Command(exe, "-app", "lu", "-nodes", "8", "-calls", "-node", node).CombinedOutput()
		if _, failed := err.(*exec.ExitError); !failed {
			t.Fatalf("-node %s: exit %v, want a non-zero exit\n%s", node, err, out)
		}
		if msg := strings.TrimSpace(string(out)); strings.Contains(msg, "\n") || !strings.Contains(msg, "-node "+node) {
			t.Fatalf("-node %s: want a one-line diagnostic naming the flag, got:\n%s", node, out)
		}
	}
}

// TestNoSuchMachine: a processor count that is no machine is reported
// as the configuration error hpfrun gives, not as a -node range with
// nothing in it.
func TestNoSuchMachine(t *testing.T) {
	for _, nodes := range []string{"0", "-1"} {
		for _, mode := range [][]string{nil, {"-lint"}, {"-calls"}} {
			args := append([]string{"-app", "jacobi", "-nodes", nodes}, mode...)
			out, err := exec.Command(exe, args...).CombinedOutput()
			if _, failed := err.(*exec.ExitError); !failed {
				t.Fatalf("%v: exit %v, want a non-zero exit\n%s", args, err, out)
			}
			if want := "hpfc: config: need at least 1 node, have " + nodes + "\n"; string(out) != want {
				t.Fatalf("%v printed %q, want %q", args, out, want)
			}
		}
	}
}

// TestLoopBoundsLeaveArray: a loop whose bounds drive the anchor's
// distributed subscript outside the array used to panic out of the
// partitioner. -lint reports it as a verifier error naming the loop,
// and the schedule dump refuses it in one line; both exit 1.
func TestLoopBoundsLeaveArray(t *testing.T) {
	src := filepath.Join(t.TempDir(), "bad.hpf")
	if err := os.WriteFile(src, []byte(`
PROGRAM bad
PARAM n = 64
REAL a(n, n)
DISTRIBUTE a(*, BLOCK)
FORALL (i = 1:n, j = 0:n)
  a(i, j) = i + j
END FORALL
END
`), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "loop over J drives A's distributed subscript out of range: 0..64 not in 1..64"
	for _, args := range [][]string{{"-lint"}, {}} {
		cmd := exec.Command(exe, append(args, "-file", src)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if ee, failed := err.(*exec.ExitError); !failed || ee.ExitCode() != 1 {
			t.Fatalf("hpfc %v: %v, want exit status 1\n%s%s", args, err, stdout, stderr.String())
		}
		out := string(stdout) + stderr.String()
		if strings.Contains(out, "goroutine ") {
			t.Fatalf("hpfc %v dumps a stack:\n%s", args, out)
		}
		found := false
		for _, line := range strings.Split(out, "\n") {
			found = found || strings.Contains(line, "BAD") && strings.Contains(line, "loop forall@6") && strings.Contains(line, want)
		}
		if !found {
			t.Fatalf("hpfc %v: no line names program, loop, array, range and extent:\n%s", args, out)
		}
	}
}

// TestBlockCyclicChunkFails: a CYCLIC(k) chunk the language refuses is
// one positioned line, exit 1, with or without -lint; CYCLIC(0) used to
// panic in the distribution, and a k past MaxInt ran the verifier out of
// memory.
func TestBlockCyclicChunkFails(t *testing.T) {
	for k, want := range map[string]string{
		"0":                    "hpfc: line 4: CYCLIC(0): the chunk size must be at least 1\n",
		"99999999999999999999": "hpfc: line 4: CYCLIC(99999999999999999999): the chunk size is out of range\n",
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
		for _, args := range [][]string{{"-lint"}, {}} {
			out, err := exec.Command(exe, append(args, "-file", src)...).CombinedOutput()
			if ee, failed := err.(*exec.ExitError); !failed || ee.ExitCode() != 1 || string(out) != want {
				t.Errorf("hpfc %v, CYCLIC(%s): %v, output %q; want exit status 1 and %q", args, k, err, out, want)
			}
		}
	}
}
