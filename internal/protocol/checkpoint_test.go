package protocol

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hpfdsm/internal/checkpoint"
	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// sharedRun leaves directory entries on several homes (remote reads and
// writes of the pages of nodes 0..2, eleven pages over four nodes so the
// homes hold unequal shares), a compiler-controlled frame and a touched
// block, then drains. It runs on four dual-CPU nodes with blockSize-byte
// blocks.
func sharedRun(t *testing.T, blockSize int) *harness {
	t.Helper()
	h := newHarnessOn(config.Default().WithNodes(4).WithCPUMode(config.DualCPU).WithBlockSize(blockSize), 11)
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

// fresh returns an unused cluster on h's machine.
func (h *harness) fresh() *harness { return newHarnessOn(h.space.Machine(), 11) }

// decoded is the snapshot a checkpoint of h decodes to.
func decoded(t *testing.T, h *harness) *checkpoint.Snapshot {
	t.Helper()
	s, err := checkpoint.Decode(h.p.Checkpoint(nil))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCaptureRestoreRoundTrip: a snapshot restored on a fresh cluster
// captures to the same bytes — directory entries in block order through
// the slot arithmetic both ways, flags packed and unpacked bit by bit,
// the implicit_writable memo — and the restored directory answers
// lookups for the blocks the original had entries for and no others.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	h := sharedRun(t, 128)
	blob := h.p.Checkpoint(nil)
	snap, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, ns := range snap.Nodes {
		entries += len(ns.Dir)
	}
	if entries == 0 {
		t.Fatal("the run left no directory entry to carry")
	}

	fresh := h.fresh()
	if err := fresh.p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	recaptured := decoded(t, fresh)
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

	// The capture sizes the directory from the count makeEntry keeps:
	// restored over the used cluster itself, and with an entry listed
	// twice, the snapshot still captures to the bytes restored.
	for i := range snap.Nodes {
		if dir := snap.Nodes[i].Dir; len(dir) > 0 {
			snap.Nodes[i].Dir = append(dir[:1:1], dir...)
			break
		}
	}
	if err := h.p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if again := h.p.Checkpoint(nil); !bytes.Equal(again, blob) {
		t.Fatalf("restored over the used cluster, with an entry listed twice, it captures to %d bytes that differ from the %d restored", len(again), len(blob))
	}
}

// TestRestoreRefusesMissizedSnapshot: a blob is outside input. Restore
// refuses, with an error and not an index out of range or a silently
// wrong machine, what no capture produces: a flag array for another
// segment size, a directory entry for a block homed elsewhere, a tag
// above readwrite, a dirty mask with bits past the block's words (the
// run uses 64-byte blocks, eight words), and an implicit_writable memo
// that is out of order, repeated or outside the segment (ImplicitWritable
// binary-searches it).
func TestRestoreRefusesMissizedSnapshot(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(*checkpoint.Snapshot)
		want    string
	}{
		{"short flags", func(s *checkpoint.Snapshot) { s.Nodes[2].CCTouched = s.Nodes[2].CCTouched[:3] }, "different segment"},
		{"long flags", func(s *checkpoint.Snapshot) { s.Nodes[0].SCHold = append(s.Nodes[0].SCHold, 1) }, "different segment"},
		{"foreign entry", func(s *checkpoint.Snapshot) { s.Nodes[1].Dir[0].Block = 0 }, "foreign block 0"},
		{"tag", func(s *checkpoint.Snapshot) { s.Nodes[3].Tags[7] = byte(memory.ReadWrite) + 1 }, "node 3 has tag 3 for block 7"},
		{"dirty past the block", func(s *checkpoint.Snapshot) { s.Nodes[2].Dirty[9] = 1 << 8 }, "node 2 has dirty mask 0x100 for block 9, past its 8 words"},
		{"memo out of order", func(s *checkpoint.Snapshot) {
			s.Nodes[1].IWDone = []checkpoint.IWKey{{A: 40, B: 2}, {A: 30, B: 2}}
		}, "node 1 has implicit_writable run 30+2 out of order or repeated"},
		{"memo repeated", func(s *checkpoint.Snapshot) {
			s.Nodes[1].IWDone = append(s.Nodes[1].IWDone, s.Nodes[1].IWDone...)
		}, "out of order or repeated"},
		{"memo outside", func(s *checkpoint.Snapshot) {
			s.Nodes[0].IWDone = []checkpoint.IWKey{{A: int32(len(s.Nodes[0].Tags)) - 1, B: 2}}
		}, "outside the segment's"},
		{"memo negative", func(s *checkpoint.Snapshot) { s.Nodes[0].IWDone = []checkpoint.IWKey{{A: -1, B: 1}} }, "run -1+1 outside"},
	} {
		h := sharedRun(t, 64)
		snap := decoded(t, h)
		c.corrupt(snap)
		err := h.fresh().p.Restore(snap)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestRestoreNamesMissizedTable: a mis-sized table is named with its own
// length, not the tag table's.
func TestRestoreNamesMissizedTable(t *testing.T) {
	h := sharedRun(t, 128)
	snap := decoded(t, h)
	snap.Nodes[3].CCFrames = snap.Nodes[3].CCFrames[:5]
	nb := h.space.NumBlocks()
	want := fmt.Sprintf("protocol: snapshot node 3 sized for a different segment (CCFrames has 5 entries, want %d)", nb)
	if err := h.fresh().p.Restore(snap); err == nil || err.Error() != want {
		t.Fatalf("Restore = %v, want %q", err, want)
	}
}

// snapshotOf builds the snapshot of p's cluster with snapshotRef, as the
// capture did before it wrote straight from the tables.
func snapshotOf(p *Proto) *checkpoint.Snapshot {
	c := p.C
	s := &checkpoint.Snapshot{
		Epoch:      c.Epoch(),
		SimTime:    int64(c.Env.Now()),
		TimerStart: int64(c.TimerStart),
		ReduceGen:  c.ReduceGen(),
		Journal:    c.ReduceJournal,
		Nodes:      make([]checkpoint.NodeState, len(p.nodes)),
	}
	for k, np := range p.nodes {
		np.snapshotRef(&s.Nodes[k])
	}
	return s
}

// snapshotRef points ns at this node's state, in one ordered walk: the
// capture as it was before Checkpoint wrote straight from the tables,
// kept as the reference FuzzCaptureMatchesSnapshot holds it to. Tags,
// mapped pages and the three flags are converted into a byte arena ns
// keeps from the first call on. The kept block images are the node's
// memory: the blocks homed here (home memory is the authoritative copy)
// and any other block with a live tag or dirty words; everything else is
// reconstructible garbage. Each directory entry's sets are the entry's
// own.
func (np *nodeProto) snapshotRef(ns *checkpoint.NodeState) {
	mem := np.n.Mem
	sp := mem.Space()
	tags, dirty := mem.Tags(), mem.DirtyMasks()
	nb, npg := len(tags), sp.NumPages()
	if ns.Tags == nil {
		arena := make([]byte, 4*nb+npg)
		ns.Tags, arena = arena[:nb:nb], arena[nb:]
		ns.CCFrames, arena = arena[:nb:nb], arena[nb:]
		ns.CCTouched, arena = arena[:nb:nb], arena[nb:]
		ns.SCHold, ns.Mapped = arena[:nb:nb], arena[nb:]
	}
	for b, t := range tags {
		ns.Tags[b] = byte(t)
	}
	for b, f := range np.flags {
		ns.CCFrames[b] = f / flagCCFrame & 1
		ns.CCTouched[b] = f / flagCCTouched & 1
		ns.SCHold[b] = f / flagSCHold & 1
	}
	for pg := range ns.Mapped {
		ns.Mapped[pg] = 0
		if mem.Mapped(pg) {
			ns.Mapped[pg] = 1
		}
	}
	ns.Dirty = dirty
	ns.IWDone = ns.IWDone[:0]
	for _, r := range np.iwDone {
		ns.IWDone = append(ns.IWDone, checkpoint.IWKey{A: int32(r.Start), B: int32(r.N)})
	}
	ns.CCRecv = np.ccRecv.Value()
	ns.CCExpected = np.ccExpected
	ns.Stats = *np.n.St

	ns.Blocks = ns.Blocks[:0]
	bpp := sp.Machine().PageSize / sp.BlockSize()
	for pg := 0; pg < npg; pg++ {
		homed := pg%len(np.p.nodes) == np.id
		for b := pg * bpp; b < (pg+1)*bpp; b++ {
			if homed || tags[b] != memory.Invalid || dirty[b] != 0 {
				ns.Blocks = append(ns.Blocks, checkpoint.BlockImage{Block: int32(b), Data: mem.BlockData(b)})
			}
		}
	}

	ns.Dir = ns.Dir[:0]
	for i := range np.dir {
		e := &np.dir[i]
		if !e.made() {
			continue
		}
		if !e.idle() {
			panic(fmt.Sprintf("protocol: capture with busy directory entry for block %d on node %d", sp.HomedBlock(np.id, i), np.id))
		}
		ns.Dir = append(ns.Dir, checkpoint.DirEntry{
			Block:   int32(sp.HomedBlock(np.id, i)),
			Sharers: e.sharers(),
			Writers: e.writers(),
			Stale:   e.stale(),
		})
	}
}

// captureDiff returns where p's checkpoint and the encoding of
// snapshotRef's snapshot first differ, or "" when they are equal. The
// snapshot borrows slices of the node images, so p, which keeps the
// images mapped, must stay reachable until it is encoded.
func captureDiff(p *Proto) string {
	got, want := p.Checkpoint(nil), checkpoint.Encode(snapshotOf(p))
	runtime.KeepAlive(p)
	if bytes.Equal(got, want) {
		return ""
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("the capture is %d bytes and the reference %d; they first differ at byte %d", len(got), len(want), i)
}

// TestCaptureMatchesSnapshot: on the settled clusters the other
// checkpoint tests use, the capture writes the bytes snapshotRef's
// snapshot encodes to.
func TestCaptureMatchesSnapshot(t *testing.T) {
	for _, c := range []struct {
		name string
		h    *harness
	}{
		{"shared 64", sharedRun(t, 64)},
		{"shared 128", sharedRun(t, 128)},
		{"cached 1", cachedRun(t, 1)},
		{"cached 32", cachedRun(t, 32)},
	} {
		if d := captureDiff(c.h.p); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
}

// FuzzCaptureMatchesSnapshot plants state on FuzzAuditMatchesReference's
// settled cluster (a tag, dirty words, a changed word, the three
// transfer flags, an idle directory entry, a mapped page and a done
// implicit_writable run) and requires the capture to write the bytes
// snapshotRef's snapshot encodes to.
func FuzzCaptureMatchesSnapshot(f *testing.F) {
	for _, s := range []struct {
		node, block, tag uint8
		mask             uint16
		word             int8
		flags            uint8
		entry            bool
		page             uint8
		run              uint16
	}{
		{0, 0, 3, 0, -1, 0, false, 0, 0},
		{2, 0, 2, 1, -1, 1, true, 1, 0},
		{2, 2, 1, 0, -1, 2, false, 3, 0x0203},
		{1, 1, 0, 0x8000, 15, 4, true, 2, 0},
		{2, 40, 1, 0, -1, 7, true, 0, 0x1101},
		{1, 70, 3, 4, -1, 0, false, 3, 0},
		{0, 100, 2, 1, -1, 5, true, 1, 0x0402},
	} {
		f.Add(s.node, s.block, s.tag, s.mask, s.word, s.flags, s.entry, s.page, s.run)
	}
	f.Fuzz(func(t *testing.T, node, block, tag uint8, mask uint16, word int8, flags uint8, entry bool, page uint8, run uint16) {
		h, b0 := plantedCluster(t)
		words := h.space.BlockSize() / 8
		pl := plant{
			node:  int(node) % 3,
			block: (b0 + int(block)) % h.space.NumBlocks(),
			tag:   memory.Tag(tag % 4),
			mask:  mask & (1<<uint(words) - 1),
			word:  -1,
		}
		if word >= 0 {
			pl.word = int(word) % words
		}
		pl.apply(h)
		np := h.p.nodes[pl.node]
		np.flags[pl.block] |= flags & (flagCCFrame | flagCCTouched | flagSCHold)
		if entry {
			h.p.nodes[h.space.HomeOfBlock(pl.block)].entry(pl.block)
		}
		np.n.Mem.SetMapped(int(page) % h.space.NumPages())
		if run != 0 {
			start := int(run>>8) % h.space.NumBlocks()
			np.iwDone = append(np.iwDone, BlockRun{Start: start, N: min(int(run&0xff), h.space.NumBlocks()-start)})
		}
		if d := captureDiff(h.p); d != "" {
			t.Fatal(d)
		}
	})
}

// TestCheckpointOwnsItsBytes: a checkpoint's blob is a copy, not a view
// of the live state it borrowed while encoding. Loads and stores after
// it (new cached copies, new dirty words, new directory sharers, new
// home data) and a second checkpoint into another buffer leave its bytes
// as they were.
func TestCheckpointOwnsItsBytes(t *testing.T) {
	h := sharedRun(t, 128)
	a := h.p.Checkpoint(nil)
	taken := bytes.Clone(a)
	bs := h.space.BlockSize()
	for id := 0; id < 4; id++ {
		h.run(id, "more", func(p *sim.Proc, n *tempest.Node) {
			for home := 0; home < 4; home++ {
				n.LoadF64(p, h.addrOnPage(home+4, 2*bs))
				n.StoreF64(p, h.addrOnPage(home, 3*bs+8*n.ID), float64(100+n.ID))
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
	b := h.p.Checkpoint(make([]byte, 0, len(a)))
	if bytes.Equal(a, b) {
		t.Fatal("the second run changed nothing a checkpoint holds")
	}
	if !bytes.Equal(a, taken) {
		t.Fatal("the first checkpoint's bytes changed after more traffic and a second checkpoint")
	}
}

// cachedRun leaves every node holding, besides its home pages, readonly
// copies of the first `per` blocks of every page homed elsewhere, so
// that every home has directory entries.
func cachedRun(tb testing.TB, per int) *harness {
	const nodes, pages = 4, 8
	h := newHarnessOn(config.Default().WithNodes(nodes).WithCPUMode(config.DualCPU), pages)
	bs := h.space.BlockSize()
	for id := 0; id < nodes; id++ {
		h.run(id, "reader", func(p *sim.Proc, n *tempest.Node) {
			for pg := 0; pg < pages; pg++ {
				if pg%nodes == n.ID {
					continue
				}
				for k := 0; k < per; k++ {
					n.LoadF64(p, h.addrOnPage(pg, k*bs))
				}
			}
			h.c.Barrier(p, n)
		})
	}
	if err := h.c.Env.Run(); err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestCheckpointAllocs: a checkpoint borrows the live state and encodes
// into the buffer it is given, so into a buffer that already held one it
// allocates nothing, whether the nodes cache one block of each remote
// page or all of them.
func TestCheckpointAllocs(t *testing.T) {
	for _, per := range []int{1, 32} {
		h := cachedRun(t, per)
		buf := h.p.Checkpoint(nil)
		if n := testing.AllocsPerRun(10, func() { buf = h.p.Checkpoint(buf[:0]) }); n != 0 {
			t.Errorf("with %d cached block(s) per remote page a checkpoint into a warmed buffer allocates %v times", per, n)
		}
	}
}

// BenchmarkCheckpoint is the host cost of checkpointing a 4-node cluster
// whose nodes cache every block of every remote page, into a reused
// buffer.
func BenchmarkCheckpoint(b *testing.B) {
	h := cachedRun(b, 32)
	buf := h.p.Checkpoint(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for b.Loop() {
		buf = h.p.Checkpoint(buf[:0])
	}
}
