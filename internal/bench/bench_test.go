package bench

import (
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
	// A 2-node scaled sweep exercises the full plumbing, and Figure 3's
	// title names the sweep's cluster size.
	suite, err := RunSuite(Config{Sizing: Scaled, Nodes: 2, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames() {
		for _, v := range Variants(2) {
			if suite.Get(app, v.Key).Elapsed <= 0 {
				t.Fatalf("%s/%s: no elapsed time", app, v.Key)
			}
		}
	}
	if out, want := Fig3(suite), "Figure 3: speedups on 2 nodes (relative to 1-node run)\n"; !strings.HasPrefix(out, want) {
		t.Errorf("Fig3 title is not %q:\n%s", want, out)
	}
}

// TestTable3OneNode: on one node the unoptimized runs take no misses,
// so there is no miss count to reduce; the column reads 0.0%, not NaN%.
func TestTable3OneNode(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep is slow")
	}
	suite, err := RunSuite(Config{Sizing: Scaled, Nodes: 1, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Table3(suite)
	rows := strings.Split(out, "\n")[3:]
	for i, app := range AppNames() {
		if !strings.HasPrefix(rows[i], "  "+app+" ") || !strings.HasSuffix(rows[i], "|       0.0    0.0%") {
			t.Errorf("Table3 row %q: want %s with no misses and 0.0%% reduction", rows[i], app)
		}
	}
}
