// Host-level profiling under PDES: -cpuprofile/-memprofile are
// observer-only (they sample the Go process, never the simulated
// machine), so they must work under -pdes and must not perturb the
// simulated results — unlike the per-loop simulated-time profiler
// (-profile), which keeps a single-threaded accumulator and stays
// rejected in partitioned mode.
package hpfdsm_test

import (
	"os"
	"path/filepath"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/profiling"
)

// TestPDESCPUProfile runs one app at 4 partitions with the host CPU
// profiler attached and demands (a) a non-empty profile file and (b)
// outputs identical to the unprofiled run, a corpus cell of
// TestPDESDifferential.
func TestPDESCPUProfile(t *testing.T) {
	c := conf{app: "lu", opt: compiler.OptRTElim, parts: 4}
	plain := run(t, c)

	dir := t.TempDir()
	cpu := filepath.Join(dir, "pdes.cpuprofile")
	stop, err := profiling.Start(cpu, "", "")
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	fi, err := os.Stat(cpu)
	if err != nil {
		t.Fatalf("cpu profile not written: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("cpu profile is empty")
	}
	if d := sameParts(profiled, plain, "Data", "Timing"); d != "" {
		t.Errorf("profiled run differs: %s", d)
	}
}
