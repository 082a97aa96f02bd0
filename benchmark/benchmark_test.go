package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// runSmoke drives run() the way the driver does, at the smoke sizes,
// from a scratch directory so nothing is left in the source tree.
func runSmoke(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-smoke", "-seconds", "0"}, args...), &stdout, &stderr)
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("no result line (exit %d): %v\n%s", code, err, stderr.String())
	}
	if testing.Verbose() {
		t.Log(stderr.String())
	}
	return code, res
}

func wantMetrics(t *testing.T, what string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("%s: metric %s is missing", what, d.Name)
		} else if v.Unit != d.Unit || v.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.Name, v.Unit, d.Unit)
		}
	}
}

// Every workload runs, checks its outputs and reports every end-to-end
// metric; one traced run reports every per-layer metric (all kernels,
// at a tenth of their operation counts).
func TestSmokeEveryWorkload(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		code, res := runSmoke(t, "-workload", w.name, "-trace", "0")
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("%s: exit %d, correct %v, %d of %d failed", w.name, code, res.Correct, res.Failed, res.Attempted)
		}
		wantMetrics(t, w.name, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
	}
	code, res := runSmoke(t, "-workload", "lossy_recover", "-trace", "1")
	if code != 0 || !res.Correct {
		t.Errorf("traced lossy_recover: exit %d, correct %v", code, res.Correct)
	}
	wantMetrics(t, "traced lossy_recover", res, perLayer())
	for name, want := range map[string]float64{"protocol.fig1_msgs_default": 8, "protocol.fig1_msgs_direct": 1,
		"protocol.readmiss_sim_us": 92.3, "network.allocs_per_msg": 0, "runtime.recoveries": 1, "analysis.errors": 0} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	var cpu float64
	for _, d := range tracedDefs {
		if len(d.Name) > 4 && d.Name[:4] == "cpu." {
			cpu += res.Metrics[d.Name].Value
		}
	}
	if cpu < 99 || cpu > 101 {
		t.Errorf("cpu.* rows sum to %v, want 100", cpu)
	}
	if _, err := os.Stat(filepath.Join(scratchDir, "trace", "lossy_recover.json")); err != nil {
		t.Errorf("the harness spans were not written: %v", err)
	}
}

// A wrong expected value must fail the run: failed > 0, correct false,
// exit code not 0.
func TestWrongExpectedFails(t *testing.T) {
	t.Chdir(t.TempDir())
	if code, _ := runSmoke(t, "-workload", "miss_storm", "-trace", "1", "-expected", "exp.json", "-update-expected"); code != 0 {
		t.Fatalf("recording the expected stats: exit %d", code)
	}
	if code, res := runSmoke(t, "-workload", "miss_storm", "-expected", "exp.json"); code != 0 || !res.Correct {
		t.Fatalf("against its own recorded stats: exit %d, correct %v", code, res.Correct)
	}
	data, err := os.ReadFile("exp.json")
	if err != nil {
		t.Fatal(err)
	}
	var exp map[string]counts
	if err := json.Unmarshal(data, &exp); err != nil {
		t.Fatal(err)
	}
	exp["miss_storm"]["network.msgs"]++
	data, _ = json.Marshal(exp)
	if err := os.WriteFile("exp.json", data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, res := runSmoke(t, "-workload", "miss_storm", "-expected", "exp.json")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("one wrong expected message count: exit %d, correct %v, failed %d; want a failure", code, res.Correct, res.Failed)
	}
}

// BENCHMARK.json is generated from the tables in this package, and the
// tables keep within the driver's limits.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer()) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the driver's limits", len(workloads), len(endToEnd), len(perLayer()))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is outside the driver's limits", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	if exp, err := loadExpected(options{}); err != nil {
		t.Error(err)
	} else {
		for _, w := range workloads {
			if len(exp.stats[w.name]) == 0 {
				t.Errorf("expected.json has no entry for %s", w.name)
			}
		}
	}
}
