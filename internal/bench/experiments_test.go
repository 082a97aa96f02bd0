package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// renderExperiments renders every deterministic experiment at Scaled,
// the suite tables from a 4-node sweep, as `paperbench -size scaled
// -nodes 4 -exp all` followed by `-exp scale` prints them. It returns
// the output and the suite's -v log.
func renderExperiments(t *testing.T, workers int) (string, string) {
	t.Helper()
	cfg := Config{Sizing: Scaled, Nodes: 4, Workers: workers}
	var out, log bytes.Buffer
	emit := func(s string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(s + "\n")
	}
	emit(Table1(), nil)
	emit(Fig1(), nil)
	emit(Table2(Scaled), nil)
	suite, err := RunSuite(cfg, &log)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(*SuiteResults) string{Fig3, Table3, Fig4, PRE} {
		emit(f(suite), nil)
	}
	for _, f := range []func(Config) (string, error){
		BlockSize, Prefetch, Consistency, Distribution, Irregular, Network, Faults, Agg, Scale,
	} {
		emit(f(cfg))
	}
	return out.String(), log.String()
}

// TestExperimentsGolden pins the rendered output of every deterministic
// experiment, byte for byte, at one worker and at four: the pool may
// change when a simulation runs, never what any table or the -v log
// says. Run under -race it also checks the pool and the shared
// compiled-program caches for data races.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment, twice")
	}
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, workers := range []int{1, 4} {
		got, log := renderExperiments(t, workers)
		if got != string(want) {
			g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("workers %d: line %d is\n%s\ngolden:\n%s", workers, i+1, g[i], w[i])
				}
			}
			t.Fatalf("workers %d: %d lines, golden %d", workers, len(g), len(w))
		}
		logs = append(logs, log)
	}
	if logs[0] != logs[1] {
		t.Errorf("-v log at workers 4 differs from workers 1:\n%s\nworkers 1:\n%s", logs[1], logs[0])
	}
}
