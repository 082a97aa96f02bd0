package protocol

import (
	"bytes"
	"strings"
	"testing"

	"hpfdsm/internal/checkpoint"
	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// sharedRun leaves directory entries on several homes (remote reads and
// writes of the pages of nodes 0..2, eleven pages over four nodes so the
// homes hold unequal shares), a compiler-controlled frame and a touched
// block, then drains.
func sharedRun(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t, 4, 11, config.DualCPU)
	bs := h.space.BlockSize()
	for id := 0; id < 4; id++ {
		h.run(id, "worker", func(p *sim.Proc, n *tempest.Node) {
			for home := 0; home < 3; home++ {
				if home != n.ID {
					n.LoadF64(p, h.addrOnPage(home, 8*n.ID))
					n.StoreF64(p, h.addrOnPage(home+4, bs+8*n.ID), float64(n.ID))
				}
			}
			h.c.Barrier(p, n)
			if n.ID == 1 {
				frame := []BlockRun{{Start: h.addrOnPage(3, 0) / bs, N: 2}}
				h.p.Node(1).ImplicitWritable(p, frame, true)
			}
			h.c.Barrier(p, n)
		})
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if !h.p.Quiescent() {
		t.Fatalf("the drained cluster is not quiescent:\n%s", h.p.DumpOutstanding())
	}
	return h
}

// TestCaptureRestoreRoundTrip: a snapshot restored on a fresh cluster
// captures to the same bytes — directory entries in block order through
// the slot arithmetic both ways, flags packed and unpacked bit by bit,
// the implicit_writable memo — and the restored directory answers
// lookups for the blocks the original had entries for and no others.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	h := sharedRun(t)
	snap := h.p.Capture()
	blob := checkpoint.Encode(snap)
	entries := 0
	for _, ns := range snap.Nodes {
		entries += len(ns.Dir)
	}
	if entries == 0 {
		t.Fatal("the run left no directory entry to carry")
	}

	fresh := newHarness(t, 4, 11, config.DualCPU)
	decoded, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.p.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	recaptured := fresh.p.Capture()
	recaptured.SimTime = snap.SimTime // the fresh cluster's clock reads zero
	if again := checkpoint.Encode(recaptured); !bytes.Equal(again, blob) {
		t.Fatalf("the restored cluster captures to %d bytes that differ from the %d restored", len(again), len(blob))
	}
	for b := 0; b < h.space.NumBlocks(); b++ {
		home := h.space.HomeOfBlock(b)
		if had, has := h.p.nodes[home].lookup(b) != nil, fresh.p.nodes[home].lookup(b) != nil; had != has {
			t.Fatalf("block %d: entry before the round trip %v, after %v", b, had, has)
		}
	}
	if err := fresh.p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesMissizedSnapshot: a blob is outside input. A flag
// array for another segment size, or a directory entry for a block homed
// elsewhere, is an error and not an index out of range.
func TestRestoreRefusesMissizedSnapshot(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(*checkpoint.Snapshot)
		want    string
	}{
		{"short flags", func(s *checkpoint.Snapshot) { s.Nodes[2].CCTouched = s.Nodes[2].CCTouched[:3] }, "different segment"},
		{"long flags", func(s *checkpoint.Snapshot) { s.Nodes[0].SCHold = append(s.Nodes[0].SCHold, 1) }, "different segment"},
		{"foreign entry", func(s *checkpoint.Snapshot) { s.Nodes[1].Dir[0].Block = 0 }, "foreign block 0"},
	} {
		snap := sharedRun(t).p.Capture()
		c.corrupt(snap)
		err := newHarness(t, 4, 11, config.DualCPU).p.Restore(snap)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
