package runtime

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/lang"
)

// TestEveryCaptureBytesPinned folds a running SHA-256 over every blob
// the recovery layer installs, in order, on the two crash-jacobi rows of
// the root package's TestCaptureBytesPinned (scaled, OptRTElim, node 2
// lost at barrier epoch 5; flat, then a radix-4 tree). That test hashes
// only the last blob; this one holds every capture of both runs,
// including the initial one and those the crash rolls back past, so a
// capture that leaks stale or live bytes into any blob is caught. The
// blobs embed each node's statistics, so the digest moves with the
// time accounting too: it was retaken when a flat barrier stopped
// counting a non-master's arrive send as barrier wait, after decoding
// every old and new blob showed them differing in Stats.BarrierTime
// alone.
func TestEveryCaptureBytesPinned(t *testing.T) {
	const pinned = "be5f116054e31979ebd3f8e8661a76ce490afcc4bdacfba09f73e74cf546c64c"
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

// TestKeepReusesItsBuffer counts the distinct backing arrays the
// recovery layer installs blobs in, per Run, over the two crash-jacobi
// runs of TestEveryCaptureBytesPinned. One buffer serves every capture
// of a Run, across its attempts, and grows geometrically, so a Run may
// allocate a few; before the buffer was kept across captures this way
// each Run used 4. Each blob is held until the end, so a freed array's
// address cannot come back as a new one.
func TestKeepReusesItsBuffer(t *testing.T) {
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	crash := config.Faults{Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}}
	var held [][]byte
	arrays := map[*byte]bool{}
	defer observeKeeps(func(blob []byte) {
		held = append(held, blob)
		arrays[&blob[:1][0]] = true
	})()
	for _, mc := range []config.Machine{
		config.Default().WithFaults(crash),
		config.Default().WithTopology(config.TreeTopo).WithRadix(4).WithFaults(crash),
	} {
		clear(arrays)
		res, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(arrays); n == 0 || n > 4 {
			t.Errorf("%v: %d captures installed in %d backing arrays; want 1 to 4", mc.Topology, res.CheckpointsTaken, n)
		}
		t.Logf("%v: %d captures in %d backing arrays", mc.Topology, res.CheckpointsTaken, len(arrays))
	}
	if len(held) != 44 {
		t.Errorf("%d blobs installed, want the 44 of TestEveryCaptureBytesPinned", len(held))
	}
}

// BenchmarkCheckpoint is the host cost of one capture at the shape of
// the benchmark's jacobi-crash unit: jacobi 256² on 8 nodes, the cluster
// a real Run leaves settled (about 2.8 MB a blob), into a reused buffer.
func BenchmarkCheckpoint(b *testing.B) {
	b.Run("jacobi256-8nodes", func(b *testing.B) {
		prog, err := lang.ParseWithOverrides(apps.Jacobi().Source, map[string]int{"N": 256, "ITERS": 12})
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(prog, Options{Machine: config.Default(), Opt: compiler.OptRTElim, Checkpoint: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.proto.Quiescent() {
			b.Fatal("the finished run left the cluster busy")
		}
		buf := res.proto.Checkpoint(nil)
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for b.Loop() {
			buf = res.proto.Checkpoint(buf[:0])
		}
	})
}
