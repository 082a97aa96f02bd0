package runtime

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
)

// TestEveryCaptureBytesPinned folds a running SHA-256 over every blob
// the recovery layer installs, in order, on the two crash-jacobi rows of
// the root package's TestCaptureBytesPinned (scaled, OptRTElim, node 2
// lost at barrier epoch 5; flat, then a radix-4 tree). That test hashes
// only the last blob; this one holds every capture of both runs,
// including the initial one and those the crash rolls back past, so a
// capture that leaks stale or live bytes into any blob is caught.
func TestEveryCaptureBytesPinned(t *testing.T) {
	const pinned = "1e87796a8aa7c93e0879ed0615536241bce1ff069f51e67cd9613bb59bb9ceda"
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	crash := config.Faults{Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}}
	h := sha256.New()
	blobs := 0
	defer observeKeeps(func(blob []byte) {
		h.Write(blob)
		blobs++
	})()
	for _, mc := range []config.Machine{
		config.Default().WithFaults(crash),
		config.Default().WithTopology(config.TreeTopo).WithRadix(4).WithFaults(crash),
	} {
		if _, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); blobs != 44 || got != pinned {
		t.Errorf("%d blobs with running SHA-256 %s; pinned 44, %s", blobs, got, pinned)
	}
}
