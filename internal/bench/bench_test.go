package bench

import (
	"bytes"
	"strings"
	"testing"

	"hpfdsm/internal/apps"
)

func TestParamsFor(t *testing.T) {
	a, _ := apps.ByName("jacobi")
	if ParamsFor(a, Paper)["N"] != 2048 {
		t.Fatal("paper params wrong")
	}
	if ParamsFor(a, Scaled)["N"] != 128 {
		t.Fatal("scaled params wrong")
	}
	if ParamsFor(a, Bench)["N"] != 512 {
		t.Fatal("bench params wrong")
	}
}

func TestParseSizing(t *testing.T) {
	for _, c := range []struct {
		name string
		want Sizing
		ok   bool
	}{
		{"bench", Bench, true},
		{"paper", Paper, true},
		{"scaled", Scaled, true},
		{"", 0, false},
		{"Scaled", 0, false},
		{"huge", 0, false},
	} {
		got, err := ParseSizing(c.name)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseSizing(%q) = %v, %v; want %v, ok=%v", c.name, got, err, c.want, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), SizingNames) {
			t.Errorf("ParseSizing(%q) error %q does not list the valid names", c.name, err)
		}
	}
}

func TestVariantsCoverPaperConfigs(t *testing.T) {
	vs := Variants(8)
	keys := map[string]bool{}
	for _, v := range vs {
		keys[v.Key] = true
	}
	for _, want := range []string{"uni", "unopt-single", "unopt-dual", "base-dual",
		"bulk-dual", "opt-single", "opt-dual", "pre-dual", "mp"} {
		if !keys[want] {
			t.Fatalf("variant %s missing", want)
		}
	}
	if vs[0].Nodes != 1 {
		t.Fatal("uni variant must be 1 node")
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{"40.0 us", "20 MB/s", "Read-miss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1ShowsEightVsOne(t *testing.T) {
	out := Fig1()
	if !strings.Contains(out, "7.8 messages") && !strings.Contains(out, "8.0 messages") {
		t.Fatalf("default protocol message count unexpected:\n%s", out)
	}
	if !strings.Contains(out, "1.0 messages") {
		t.Fatalf("compiler-directed message count unexpected:\n%s", out)
	}
}

func TestTable2Renders(t *testing.T) {
	out := Table2(Scaled)
	for _, name := range AppNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("Table2 missing %s", name)
		}
	}
}

func TestSuiteSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep is slow")
	}
	// A 2-node scaled sweep of one app exercises the full plumbing.
	a, _ := apps.ByName("cg")
	for _, v := range Variants(2) {
		res, err := RunApp(a, a.ScaledParams, v)
		if err != nil {
			t.Fatalf("%s: %v", v.Key, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: no elapsed time", v.Key)
		}
	}
}

// TestExperimentsRenderAtScaledSize exercises the full experiment
// formatting pipeline on a small cluster.
func TestExperimentsRenderAtScaledSize(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep is slow")
	}
	suite, err := RunSuite(Scaled, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig3":   Fig3(suite),
		"table3": Table3(suite),
		"fig4":   Fig4(suite),
		"pre":    PRE(suite),
	} {
		for _, app := range AppNames() {
			if !strings.Contains(out, app) {
				t.Errorf("%s missing %s:\n%s", name, app, out)
			}
		}
	}
	// Speedups must be positive and bounded.
	for _, app := range AppNames() {
		uni := suite.Get(app, "uni")
		opt := suite.Get(app, "opt-dual")
		s := float64(uni.Elapsed) / float64(opt.Elapsed)
		if s <= 0 || s > 8.5 {
			t.Errorf("%s: implausible speedup %.2f", app, s)
		}
	}
}

// TestParallelSuiteMatchesSerial is the correctness statement for the
// sweep pool: a concurrent sweep must produce bit-identical statistics
// and log output to the serial one. Run under -race it also checks the
// pool and the shared compiled-program caches for data races.
func TestParallelSuiteMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep is slow")
	}
	old := SuiteWorkers
	defer func() { SuiteWorkers = old }()

	SuiteWorkers = 1
	var serialLog bytes.Buffer
	serial, err := RunSuite(Scaled, 2, &serialLog)
	if err != nil {
		t.Fatal(err)
	}
	SuiteWorkers = 4
	var parLog bytes.Buffer
	par, err := RunSuite(Scaled, 2, &parLog)
	if err != nil {
		t.Fatal(err)
	}

	for _, app := range AppNames() {
		for _, v := range Variants(2) {
			s, p := serial.Get(app, v.Key), par.Get(app, v.Key)
			if s.Elapsed != p.Elapsed {
				t.Errorf("%s/%s: elapsed %d (serial) != %d (parallel)", app, v.Key, s.Elapsed, p.Elapsed)
			}
			if s.Stats.TotalMisses() != p.Stats.TotalMisses() ||
				s.Stats.TotalMessages() != p.Stats.TotalMessages() ||
				s.Stats.TotalBytes() != p.Stats.TotalBytes() {
				t.Errorf("%s/%s: stats diverge: serial (%d misses, %d msgs, %d B) vs parallel (%d, %d, %d)",
					app, v.Key,
					s.Stats.TotalMisses(), s.Stats.TotalMessages(), s.Stats.TotalBytes(),
					p.Stats.TotalMisses(), p.Stats.TotalMessages(), p.Stats.TotalBytes())
			}
		}
	}
	if serialLog.String() != parLog.String() {
		t.Errorf("log output diverges:\nserial:\n%s\nparallel:\n%s", serialLog.String(), parLog.String())
	}
}

func TestAblationExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for name, f := range map[string]func(Sizing) (string, error){
		"blocksize":    BlockSize,
		"prefetch":     Prefetch,
		"consistency":  Consistency,
		"distribution": Distribution,
		"irregular":    Irregular,
	} {
		out, err := f(Scaled)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) < 50 {
			t.Fatalf("%s: suspiciously short output %q", name, out)
		}
	}
}
