package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/bench"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
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
// verifier records for each node at OptBulk.
func verifierBarriers(t *testing.T, nodes int) (labels []string, barriers [][]int) {
	t.Helper()
	a, err := apps.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Program(bench.ParamsFor(a, bench.Scaled))
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
		per := make([]int, nodes)
		for n, calls := range lc.Nodes {
			for _, c := range calls {
				if c.Op == analysis.OpBarrier {
					per[n]++
				}
			}
		}
		labels = append(labels, lc.Site.Loop)
		barriers = append(barriers, per)
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
				record(m.BuildLoopCalls(st, st.Label, an.LoopRuleOf(st), env, false))
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
// the verifier records.
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
				t.Errorf("node %d, %s: hpfc -calls prints %d barrier(s), the verifier records %d for it and %d for node 0",
					n, label, got[i], want[i][n], want[i][0])
			}
			sawReads = sawReads || got[i] == 4
		}
	}
	if !sawReads {
		t.Fatal("no loop of lu printed the full four barriers: the comparison never saw a schedule with reads")
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
