// Barrier-consistent checkpoint capture and restore.
//
// The crash-recovery layer snapshots the protocol at synchronization
// epochs where the whole machine is provably quiescent: nothing in
// flight on the wire, no handler invocations queued, no deferred
// protocol work armed, no blocking miss outstanding, no directory
// transaction collecting, and no coalescer buffer open. At such an
// instant every block's truth is fully captured by memory images, tags,
// dirty masks, and directory masks — Restore rebuilds an equivalent
// machine on a fresh cluster and the run resumes as if the epoch had
// just completed.
package protocol

import (
	"fmt"

	"hpfdsm/internal/checkpoint"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
)

// Quiescent reports whether the cluster is checkpointable right now.
// Intended to be called at a barrier's all-arrived instant; mid-epoch
// it is almost always false.
func (p *Proto) Quiescent() bool {
	net := p.C.Net
	if net.Inflight() != 0 || !net.ChannelsQuiescent() {
		return false
	}
	for _, np := range p.nodes {
		if np.defers != 0 {
			return false
		}
		if np.n.HandlersQueued() != 0 || np.n.Pending() != 0 {
			return false
		}
		if np.fill != nil {
			return false
		}
		if np.ccRecv.Value() != np.ccExpected {
			return false
		}
		if co := np.n.Net.CoalescerOf(np.id); co != nil && co.PendingAny() {
			return false
		}
		if len(np.relay) != 0 {
			return false
		}
	}
	return p.dirIdle()
}

// Checkpoint appends the encoded snapshot of the cluster's
// protocol-visible state to dst and returns the extended buffer
// (checkpoint.Append, which also says how a buffer that does not fit
// grows): into a buffer that already holds the checkpoint's length it
// allocates nothing. The caller must have established quiescence
// (Quiescent); a busy directory entry here is a bug, not a race.
//
// Each node is written in one pass straight from the tables the
// protocol keeps (liveNode); no snapshot is built on the way.
func (p *Proto) Checkpoint(dst []byte) []byte {
	c := p.C
	h := checkpoint.Header{
		Epoch:      c.Epoch(),
		SimTime:    int64(c.Env.Now()),
		TimerStart: int64(c.TimerStart),
		ReduceGen:  c.ReduceGen(),
		Journal:    c.ReduceJournal,
	}
	return checkpoint.Append(dst, &h, len(p.nodes), func(i int) checkpoint.NodeSource { return (*liveNode)(p.nodes[i]) })
}

// liveNode is a node's protocol state as the checkpoint encoder reads
// it. The kept block images are the node's memory: every block on a
// page homed here (home memory is the authoritative copy) and any other
// block with a live tag or dirty words; everything else is
// reconstructible garbage. The three transfer flags are the bits of the
// one flags byte a block, and each directory entry's sets are the
// entry's own.
type liveNode nodeProto

func (ln *liveNode) Shape() checkpoint.Shape {
	sp := ln.n.Mem.Space()
	nb, npg := sp.NumBlocks(), sp.NumPages()
	s := checkpoint.Shape{
		Tags: nb, Dirty: nb, Mapped: npg, Frames: nb, Touched: nb, Hold: nb,
		IWDone:     len(ln.iwDone),
		DirEntries: ln.made,
		DirWords:   ln.made * 3 * nsWords(len(ln.p.nodes)),
	}
	ln.kept(func(_, n int) { s.Blocks += n })
	s.BlockBytes = s.Blocks * sp.BlockSize()
	return s
}

// kept calls f, in block order, with each run of n blocks from lo that
// the capture keeps: every page homed here whole, and any other live
// block.
func (ln *liveNode) kept(f func(lo, n int)) {
	mem := ln.n.Mem
	tags, dirty, bpp := mem.Tags(), mem.DirtyMasks(), ln.blocksPerPage()
	for pg, lo := 0, 0; lo < len(tags); pg, lo = pg+1, lo+bpp {
		if ln.homes(pg) {
			f(lo, bpp)
			continue
		}
		pt, pd := tags[lo:lo+bpp], dirty[lo:lo+bpp]
		if quiet(pt, pd) {
			continue
		}
		for i, t := range pt {
			if live(t, pd[i]) {
				f(lo+i, 1)
			}
		}
	}
}

// live reports that a block with tag t and dirty mask d holds a copy
// the capture keeps wherever its page is homed.
func live(t memory.Tag, d uint16) bool { return t != memory.Invalid || d != 0 }

// quiet reports that no block of a page is live, so the capture keeps
// none of them unless the page is homed here. Most pages away from home
// are quiet; it tests eight tags and four masks at a time.
func quiet(tags []memory.Tag, dirty []uint16) bool {
	var or uint64
	i := 0
	for ; i+8 <= len(tags); i += 8 {
		t := tags[i : i+8 : i+8]
		or |= uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
	}
	for ; i < len(tags); i++ {
		or |= uint64(tags[i])
	}
	i = 0
	for ; i+4 <= len(dirty); i += 4 {
		d := dirty[i : i+4 : i+4]
		or |= uint64(d[0]) | uint64(d[1])<<16 | uint64(d[2])<<32 | uint64(d[3])<<48
	}
	for ; i < len(dirty); i++ {
		or |= uint64(dirty[i])
	}
	return or == 0
}

// homes reports whether page pg is homed at this node.
func (ln *liveNode) homes(pg int) bool { return pg%len(ln.p.nodes) == ln.id }

func (ln *liveNode) blocksPerPage() int {
	sp := ln.n.Mem.Space()
	return sp.Machine().PageSize / sp.BlockSize()
}

func (ln *liveNode) PutTags(dst []byte) {
	tags := ln.n.Mem.Tags()
	dst = dst[:len(tags)]
	for b, t := range tags {
		dst[b] = byte(t)
	}
}

func (ln *liveNode) DirtyMasks() []uint16 { return ln.n.Mem.DirtyMasks() }

func (ln *liveNode) PutMapped(dst []byte) {
	mem := ln.n.Mem
	for pg := range dst {
		dst[pg] = 0
		if mem.Mapped(pg) {
			dst[pg] = 1
		}
	}
}

func (ln *liveNode) PutBlocks(dst []byte) []byte {
	mem := ln.n.Mem
	bs := mem.Space().BlockSize()
	ln.kept(func(lo, n int) {
		data := mem.Bytes(lo*bs, n*bs)
		for i := 0; i < n; i++ {
			dst = checkpoint.PutBlock(dst, lo+i, data[i*bs:(i+1)*bs])
		}
	})
	return dst
}

// PutDir walks the entries page by page: the k-th page homed here holds
// slots k*bpp on, and its first block is (k*nodes + id)*bpp.
func (ln *liveNode) PutDir(dst []byte) []byte {
	bpp, nodes := ln.blocksPerPage(), len(ln.p.nodes)
	for k, lo := 0, 0; lo < len(ln.dir); k, lo = k+1, lo+bpp {
		first := (k*nodes + ln.id) * bpp
		entries := ln.dir[lo : lo+bpp]
		for i := range entries {
			e := &entries[i]
			if !e.made() {
				continue
			}
			if !e.idle() {
				panic(fmt.Sprintf("protocol: capture with busy directory entry for block %d on node %d", first+i, ln.id))
			}
			dst = checkpoint.PutDirEntry(dst, first+i, e.sharers(), e.writers(), e.stale())
		}
	}
	return dst
}

func (ln *liveNode) PutIWDone(dst []byte) []byte {
	for _, r := range ln.iwDone {
		dst = checkpoint.PutIW(dst, r.Start, r.N)
	}
	return dst
}

// PutFlags reads each block's flags byte at its three bit positions.
func (ln *liveNode) PutFlags(frames, touched, hold []byte) {
	flags := ln.flags
	frames, touched, hold = frames[:len(flags)], touched[:len(flags)], hold[:len(flags)]
	for b, f := range flags {
		frames[b] = f / flagCCFrame & 1
		touched[b] = f / flagCCTouched & 1
		hold[b] = f / flagSCHold & 1
	}
}

func (ln *liveNode) Counters() (int64, int64, *stats.Node) {
	return ln.ccRecv.Value(), ln.ccExpected, ln.n.St
}

// Restore installs a snapshot on a freshly built cluster (same machine
// configuration, no traffic yet). It rebuilds memory images, tags,
// dirty masks, directory state, and the compiler-directed transfer
// bookkeeping, and rebases the cluster's epoch, reduction generation,
// journal, and timer start.
func (p *Proto) Restore(s *checkpoint.Snapshot) error {
	c := p.C
	sp := c.Space
	nb := sp.NumBlocks()
	npg := sp.NumPages()
	wpb := sp.BlockSize() / 8
	allDirty := uint16(1)<<wpb - 1
	if len(s.Nodes) != len(p.nodes) {
		return fmt.Errorf("protocol: snapshot has %d nodes, cluster has %d", len(s.Nodes), len(p.nodes))
	}
	for i, np := range p.nodes {
		ns := &s.Nodes[i]
		for _, t := range []struct {
			name      string
			got, want int
		}{
			{"Tags", len(ns.Tags), nb}, {"Dirty", len(ns.Dirty), nb}, {"Mapped", len(ns.Mapped), npg},
			{"CCFrames", len(ns.CCFrames), nb}, {"CCTouched", len(ns.CCTouched), nb}, {"SCHold", len(ns.SCHold), nb},
		} {
			if t.got != t.want {
				return fmt.Errorf("protocol: snapshot node %d sized for a different segment (%s has %d entries, want %d)",
					i, t.name, t.got, t.want)
			}
		}
		mem := np.n.Mem
		for _, bi := range ns.Blocks {
			b := int(bi.Block)
			if b < 0 || b >= nb || len(bi.Data) != sp.BlockSize() {
				return fmt.Errorf("protocol: snapshot node %d has bad block image %d (%d bytes)", i, b, len(bi.Data))
			}
			mem.InstallBlock(b, bi.Data)
		}
		for b := 0; b < nb; b++ {
			t := memory.Tag(ns.Tags[b])
			if t > memory.ReadWrite {
				return fmt.Errorf("protocol: snapshot node %d has tag %d for block %d, above readwrite", i, t, b)
			}
			if ns.Dirty[b]&^allDirty != 0 {
				return fmt.Errorf("protocol: snapshot node %d has dirty mask %#x for block %d, past its %d words", i, ns.Dirty[b], b, wpb)
			}
			mem.SetTag(b, t)
			mem.SetDirtyMask(b, ns.Dirty[b])
		}
		for pg := 0; pg < npg; pg++ {
			if ns.Mapped[pg] != 0 {
				mem.SetMapped(pg)
			}
		}
		clear(np.dir)
		clear(np.slab)
		np.made = 0
		words := nsWords(len(p.nodes))
		for _, d := range ns.Dir {
			b := int(d.Block)
			home, slot := sp.HomeSlot(b)
			if b < 0 || b >= nb || home != np.id {
				return fmt.Errorf("protocol: snapshot node %d has directory entry for foreign block %d", i, b)
			}
			if len(d.Sharers) > words || len(d.Writers) > words || len(d.Stale) > words {
				return fmt.Errorf("protocol: snapshot node %d directory entry for block %d sized for a larger cluster", i, b)
			}
			e := np.makeEntry(slot)
			copy(e.sharers(), d.Sharers)
			copy(e.writers(), d.Writers)
			copy(e.stale(), d.Stale)
		}
		// ImplicitWritable binary-searches the memo: an unsorted one
		// would skip or repeat a first-time-only run.
		np.iwDone = np.iwDone[:0]
		for j, k := range ns.IWDone {
			r := BlockRun{Start: int(k.A), N: int(k.B)}
			if r.Start < 0 || r.N < 0 || r.Start+r.N > nb {
				return fmt.Errorf("protocol: snapshot node %d has implicit_writable run %d+%d outside the segment's %d blocks", i, r.Start, r.N, nb)
			}
			if j > 0 && cmpRun(np.iwDone[j-1], r) >= 0 {
				return fmt.Errorf("protocol: snapshot node %d has implicit_writable run %d+%d out of order or repeated", i, r.Start, r.N)
			}
			np.iwDone = append(np.iwDone, r)
		}
		for b := range np.flags {
			np.flags[b] = flagIf(ns.CCFrames[b], flagCCFrame) | flagIf(ns.CCTouched[b], flagCCTouched) | flagIf(ns.SCHold[b], flagSCHold)
		}
		np.ccRecv.Reset()
		np.ccRecv.Add(ns.CCRecv)
		np.ccExpected = ns.CCExpected
		*np.n.St = ns.Stats
	}
	c.TimerStart = sim.Time(s.TimerStart)
	c.RestoreEpoch(s.Epoch, s.ReduceGen, s.Journal)
	return nil
}

// flagIf returns bit when a snapshot's byte for it is set.
func flagIf(packed byte, bit uint8) uint8 {
	if packed != 0 {
		return bit
	}
	return 0
}
