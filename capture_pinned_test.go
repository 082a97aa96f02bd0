package hpfdsm_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
)

// TestCaptureBytesPinned holds the content of a checkpoint, not only
// its size: the crash-jacobi golden run (scaled, OptRTElim, node 2 lost
// at barrier epoch 5) leaves its last encoded snapshot in CkptDir, and
// its SHA-256 must be the one the run wrote before the protocol's
// per-block state moved from maps to tables (PR 21 took both digests at
// its parent commit). That snapshot is captured after a restore and a
// further run, so it is downstream of every Capture and Restore of the
// run: directory entries in block order, the three flag arrays, tags
// and block images. The tree row routes invalidations through relays.
func TestCaptureBytesPinned(t *testing.T) {
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	crash := config.Faults{Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}}
	for _, row := range []struct {
		name   string
		mc     config.Machine
		taken  int64
		bytes  int64
		sha256 string
	}{
		{"flat", config.Default().WithFaults(crash), 22, 15182464,
			"ab019d033d0cbd4187413b80d902b3b6db45fc04a45a0fdf31f7e09248ff2c18"},
		{"tree", config.Default().WithTopology(config.TreeTopo).WithRadix(4).WithFaults(crash), 22, 15182464,
			"553e9421116c1366f9d3fee08576344aeb7242934eee40ff9efc558949a312d8"},
	} {
		dir := t.TempDir()
		r, err := runtime.Run(prog, runtime.Options{Machine: row.mc, Opt: compiler.OptRTElim, CkptDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, prog.Name+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != row.sha256 ||
			r.CheckpointsTaken != row.taken || r.CheckpointBytes != row.bytes {
			t.Errorf("%s: %d checkpoints, %d bytes, last one's SHA-256 %s; pinned %d, %d, %s",
				row.name, r.CheckpointsTaken, r.CheckpointBytes, got, row.taken, row.bytes, row.sha256)
		}
	}
}
