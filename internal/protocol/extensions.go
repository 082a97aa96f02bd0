package protocol

import (
	"encoding/binary"
	"fmt"

	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// BlockRun is a contiguous range of coherence blocks [Start, Start+N):
// the operand of every Section 4.2 call. It is the front end's one
// block-set type, under the name the calls have always used.
type BlockRun = sections.BlockRun

// Ext is the compiler-directed protocol interface for one node: the
// run-time calls of the paper's Section 4.2. All methods must be called
// from the node's compute process. Each call's elapsed time is charged
// to the node's communication time (the paper includes protocol-call
// time in the optimized communication time).
type Ext struct {
	np *nodeProto
}

func (x *Ext) begin(p *sim.Proc) sim.Time {
	x.np.n.Sync(p)
	return p.Now()
}

func (x *Ext) end(p *sim.Proc, t0 sim.Time) {
	st := x.np.n.St
	st.ProtoCalls++
	d := p.Now() - t0
	st.ProtoCallTime += d
	st.CommTime += d
}

// MkWritable brings every block in runs to readwrite state in this
// node's cache, as if a write fault had been incurred for each block
// but pipelined: one request per home node, with the home shipping
// data in bulk for blocks this node does not hold. On return the
// directory records this node as the blocks' exclusive writer — which
// also relieves the homes of the only-valid-copy burden (step 1 of the
// paper's transfer preparation).
func (x *Ext) MkWritable(p *sim.Proc, runs []BlockRun) {
	np := x.np
	n := np.n
	mem := n.Mem
	sp := mem.Space()
	mc := n.MC
	t0 := x.begin(p)
	defer x.end(p, t0)

	np.mkwCount.Reset()

	// Classify each block by home and by what it needs. The per-home
	// grouping reuses the node's scratch buffers so steady-state calls
	// allocate nothing.
	if np.encScratch == nil {
		np.encScratch = make([][]encRun, len(np.p.nodes))
	}
	perHome := np.encScratch
	for i := range perHome {
		perHome[i] = perHome[i][:0]
	}
	var total int64
	for _, r := range runs {
		for b := r.Start; b < r.Start+r.N; b++ {
			if mem.Tag(b) == memory.ReadWrite {
				continue // already writable; nothing to do
			}
			home := sp.HomeOfBlock(b)
			needData := mem.Tag(b) == memory.Invalid
			total++
			// A change of disposition breaks a run like a gap does.
			l := perHome[home]
			if k := len(l) - 1; k >= 0 && l[k].needData == needData && l[k].End() == b {
				l[k].N++
			} else {
				perHome[home] = append(l, encRun{BlockRun{Start: b, N: 1}, needData})
			}
		}
	}
	if total == 0 {
		p.Sleep(mc.TagChange) // the call still tests its ranges
		return
	}

	for home := 0; home < len(perHome); home++ {
		list := perHome[home]
		if len(list) == 0 {
			continue
		}
		if home == np.id {
			agg := &mkwAgg{src: np.id, local: true}
			for _, er := range list {
				agg.add(er)
			}
			p.Sleep(sim.Time(agg.remaining) * mc.BulkPerBlock)
			np.enqueueMkWritable(list, agg)
			continue
		}
		// Remote home: one pipelined request. Upgrade-only blocks can
		// take their tags now; the call blocks until all confirmed.
		plen := 4 + 9*len(list)
		payload := n.Net.AllocVar(np.id, plen)[:plen]
		binary.LittleEndian.PutUint32(payload, uint32(len(list)))
		off := 4
		for _, er := range list {
			binary.LittleEndian.PutUint32(payload[off:], uint32(er.Start))
			binary.LittleEndian.PutUint32(payload[off+4:], uint32(er.N))
			if er.needData {
				payload[off+8] = 1
			} else {
				for b := er.Start; b < er.Start+er.N; b++ {
					mem.SetTag(b, memory.ReadWrite)
				}
			}
			off += 9
		}
		p.Sleep(mc.SendOver)
		m := n.Net.NewMessage(np.id)
		m.Src, m.Dst, m.Kind, m.Data, m.DataPooled = np.id, home, KMkWritableReq, payload, true
		n.Net.Send(m)
	}
	np.mkwCount.WaitFor(p, total)
}

// mkwAgg aggregates the per-block directory transactions of one
// mk_writable request at the home; when the last block completes it
// ships the response (bulk data plus an acknowledgement for
// upgrade-only blocks).
type mkwAgg struct {
	src       int
	remaining int
	local     bool       // the home's own request: it takes the tags of ownRuns itself
	ownRuns   []BlockRun // local: every run, whatever its disposition
	dataRuns  []BlockRun // remote: runs whose data the response carries
	upgraded  int        // remote: upgrade-only blocks, acknowledged by count
}

// add counts one classified run of the request into the aggregate.
func (a *mkwAgg) add(er encRun) {
	a.remaining += er.N
	switch {
	case a.local:
		a.ownRuns = append(a.ownRuns, er.BlockRun)
	case er.needData:
		a.dataRuns = append(a.dataRuns, er.BlockRun)
	default:
		a.upgraded += er.N
	}
}

// enqueueMkWritable opens one directory transaction per block of runs.
func (np *nodeProto) enqueueMkWritable(runs []encRun, agg *mkwAgg) {
	for _, er := range runs {
		for b := er.Start; b < er.Start+er.N; b++ {
			np.enqueue(&dirReq{kind: KMkWritableReq, block: b, src: agg.src, needData: er.needData, agg: agg})
		}
	}
}

func (a *mkwAgg) blockDone(np *nodeProto) {
	a.remaining--
	if a.remaining > 0 {
		return
	}
	mem := np.n.Mem
	mc := np.n.MC
	if a.local {
		// Requester is the home: data is already in home memory;
		// just take the tags.
		n := 0
		for _, dr := range a.ownRuns {
			for b := dr.Start; b < dr.Start+dr.N; b++ {
				mem.SetTag(b, memory.ReadWrite)
				mem.ClearDirty(b)
			}
			n += dr.N
		}
		np.mkwCount.Add(int64(n))
		return
	}
	bs := mem.Space().BlockSize()
	if np.coal != nil {
		// Piggyback the whole response — bulk data for absent blocks
		// plus the upgrade acknowledgement — on one carrier: the
		// requester's mk_writable completes on a single handler
		// dispatch regardless of how many runs the request covered.
		for _, dr := range a.dataRuns {
			np.occupy(sim.Time(dr.N) * mc.BulkPerBlock)
			np.coal.Append(a.src, KMkWritableData, dr.Start*bs, int64(dr.N), 0,
				mem.Bytes(dr.Start*bs, dr.N*bs), false)
		}
		if a.upgraded > 0 {
			np.occupy(mc.TagChange)
			np.coal.Append(a.src, KMkWritableAck, 0, int64(a.upgraded), 0, nil, false)
		}
		np.coal.FlushDst(a.src)
		return
	}
	maxBlocks := mc.MaxPayload / bs
	for _, dr := range a.dataRuns {
		for off := 0; off < dr.N; off += maxBlocks {
			nb := min(dr.N-off, maxBlocks)
			start := dr.Start + off
			var data []byte
			pooled := false
			if nb == 1 {
				data = np.n.Net.AllocBlock(np.id)
				pooled = true
			} else {
				data = make([]byte, nb*bs)
			}
			copy(data, mem.Bytes(start*bs, nb*bs))
			np.occupy(sim.Time(nb) * mc.BulkPerBlock)
			dm := np.n.Net.NewMessage(np.id)
			dm.Dst, dm.Kind = a.src, KMkWritableData
			dm.Addr, dm.Arg, dm.Data, dm.DataPooled = start*bs, int64(nb), data, pooled
			np.n.SendFromProto(dm)
		}
	}
	if a.upgraded > 0 {
		np.ctrl(a.src, KMkWritableAck, 0, int64(a.upgraded), 0)
	}
}

func (np *nodeProto) hMkWritableReq(hc *tempest.HContext, m *network.Message) {
	nruns := int(binary.LittleEndian.Uint32(m.Data))
	agg := &mkwAgg{src: m.Src}
	runs := np.mkwScratch[:0]
	for off := 4; off < 4+9*nruns; off += 9 {
		er := encRun{BlockRun{
			Start: int(binary.LittleEndian.Uint32(m.Data[off:])),
			N:     int(binary.LittleEndian.Uint32(m.Data[off+4:])),
		}, m.Data[off+8] == 1}
		agg.add(er)
		runs = append(runs, er)
	}
	np.mkwScratch = runs[:0]
	np.occupy(sim.Time(agg.remaining) * np.n.MC.BulkPerBlock)
	np.enqueueMkWritable(runs, agg)
}

func (np *nodeProto) hMkWritableData(hc *tempest.HContext, m *network.Message) {
	mem := np.n.Mem
	bs := mem.Space().BlockSize()
	nb := int(m.Arg)
	if h := np.heat(); h != nil {
		h.AddBytesRange(m.Addr/bs, nb, m.Size)
	}
	np.occupy(sim.Time(nb) * np.n.MC.BulkPerBlock)
	mem.InstallRange(m.Addr, m.Data)
	b0 := m.Addr / bs
	for b := b0; b < b0+nb; b++ {
		mem.SetTag(b, memory.ReadWrite)
		mem.ClearDirty(b)
	}
	np.mkwCount.Add(int64(nb))
}

func (np *nodeProto) hMkWritableAck(hc *tempest.HContext, m *network.Message) {
	np.occupy(np.n.MC.HandlerCost)
	np.mkwCount.Add(m.Arg)
}

// ImplicitWritable sets every block in runs to readwrite locally with
// no directory interaction (step 2 of the paper's preparation: readers
// pre-open their frames for the incoming data). With firstTimeOnly
// (the run-time overhead elimination of Section 4.3) a range already
// processed costs only a lookup. Reports whether tag work was done.
func (x *Ext) ImplicitWritable(p *sim.Proc, runs []BlockRun, firstTimeOnly bool) bool {
	np := x.np
	mem := np.n.Mem
	mc := np.n.MC
	t0 := x.begin(p)
	defer x.end(p, t0)

	did := false
	for _, r := range runs {
		for b := r.Start; b < r.Start+r.N; b++ {
			np.flags[b] |= flagCCFrame
		}
		if firstTimeOnly {
			if np.iwDone[r] {
				p.Sleep(mc.TagChange) // the test-only fast path
				continue
			}
			np.iwDone[r] = true
		}
		p.Sleep(sim.Time(r.N) * mc.TagChange)
		for b := r.Start; b < r.Start+r.N; b++ {
			mem.SetTag(b, memory.ReadWrite)
		}
		did = true
	}
	return did
}

// ImplicitInvalidate invalidates every block in runs locally, restoring
// consistency with the directory (which believes the sender holds the
// only copy). It enforces the contract: invalidating a block with
// locally modified, unflushed words panics, because those updates would
// be silently lost.
func (x *Ext) ImplicitInvalidate(p *sim.Proc, runs []BlockRun) {
	np := x.np
	mem := np.n.Mem
	mc := np.n.MC
	t0 := x.begin(p)
	defer x.end(p, t0)

	h := np.heat()
	for _, r := range runs {
		p.Sleep(sim.Time(r.N) * mc.TagChange)
		for b := r.Start; b < r.Start+r.N; b++ {
			if mem.Dirty(b) != 0 {
				panic(fmt.Sprintf("protocol: implicit_invalidate of block %d on node %d would lose dirty words; flush first", b, np.id))
			}
			if h != nil && mem.Tag(b) != memory.Invalid {
				h.AddInval(b)
			}
			mem.SetTag(b, memory.Invalid)
		}
	}
}

// SendMode selects how compiler-directed tagged-data traffic travels.
type SendMode int

const (
	// SendEager ships each block as its own message as soon as it is
	// composed (the unoptimized per-block send).
	SendEager SendMode = iota
	// SendBulk coalesces contiguous blocks of one transfer into
	// payloads up to the machine's MaxPayload, one message per chunk.
	SendBulk
	// SendAggregate hands the blocks to the NIC-level coalescing
	// scheduler, which merges same-destination traffic from the whole
	// barrier epoch — across transfers and arrays — into vectored
	// carrier messages with one header and one handler dispatch per
	// destination. Downgrades to SendBulk when aggregation is not
	// enabled (EnableAggregation was never called).
	SendAggregate
)

// String renders the mode for diagnostics and sweep output.
func (m SendMode) String() string {
	switch m {
	case SendEager:
		return "eager"
	case SendBulk:
		return "bulk"
	case SendAggregate:
		return "aggregate"
	}
	return fmt.Sprintf("SendMode(%d)", int(m))
}

// SendBlocks ships the blocks in runs to dst as specially tagged data
// messages (the paper's send primitive). The mode picks the transport:
// one message per block, per-transfer bulk chunks, or epoch-level
// aggregation through the coalescing scheduler. The sender must hold
// every block valid (guaranteed by mk_writable); a violation panics.
func (x *Ext) SendBlocks(p *sim.Proc, dst int, runs []BlockRun, mode SendMode) {
	x.sendTagged(p, dst, runs, mode, KCCData)
}

// FlushBlocks ships locally written blocks back to their owner (the
// non-owner-write case) and invalidates them locally. Per the paper's
// contract, the scenario at the end is that "the owner has the only
// latest (writable) copy of the block, and directory correctly
// reflects this information": each block's home is told to repoint its
// writer set at the owner.
func (x *Ext) FlushBlocks(p *sim.Proc, owner int, runs []BlockRun, mode SendMode) {
	x.sendTagged(p, owner, runs, mode, KCCFlush)
	np := x.np
	mem := np.n.Mem
	sp := mem.Space()
	for _, r := range runs {
		for b := r.Start; b < r.Start+r.N; b++ {
			mem.ClearDirty(b)
			mem.SetTag(b, memory.Invalid)
		}
	}
	// Directory fix-up, one message per home-contiguous run. The
	// grouping reuses the node's scratch buffers (steady-state calls
	// allocate nothing).
	if np.homeScratch == nil {
		np.homeScratch = make([][]BlockRun, len(np.p.nodes))
	}
	perHome := np.homeScratch
	for i := range perHome {
		perHome[i] = perHome[i][:0]
	}
	for _, r := range runs {
		for b := r.Start; b < r.Start+r.N; b++ {
			h := sp.HomeOfBlock(b)
			perHome[h] = sections.AppendBlock(perHome[h], b)
		}
	}
	for h := 0; h < len(perHome); h++ {
		for _, hr := range perHome[h] {
			if h == np.id {
				np.ccFlushDir(hr.Start, hr.N, owner, np.id)
				continue
			}
			// With the coalescer on, the directory update piggybacks on
			// the epoch's carrier to that home.
			np.postFromCompute(p, 0, h, KCCFlushDir, hr.Start, int64(hr.N), int64(owner), false)
		}
	}
}

// ccFlushDir repoints the directory for [start, start+n) at the owner:
// the flushed data now lives there. Busy entries retry shortly.
func (np *nodeProto) ccFlushDir(start, n, owner, flusher int) {
	for b := start; b < start+n; b++ {
		e := np.entry(b)
		if e.busy {
			np.later(func() { np.ccFlushDir(b, 1, owner, flusher) })
			continue
		}
		e.ownedBy(owner)
	}
	np.occupy(sim.Time(n) * np.n.MC.TagChange)
}

func (np *nodeProto) hCCFlushDir(hc *tempest.HContext, m *network.Message) {
	np.occupy(np.n.MC.HandlerCost)
	np.ccFlushDir(m.Addr, int(m.Arg), int(m.Arg2), m.Src)
}

// sendTagged is the shared transport for SendBlocks/FlushBlocks: the
// per-epoch bulk of compiler-directed traffic flows through it.
//
//simlint:hotpath
func (x *Ext) sendTagged(p *sim.Proc, dst int, runs []BlockRun, mode SendMode, kind network.Kind) {
	np := x.np
	n := np.n
	mem := n.Mem
	mc := n.MC
	bs := mem.Space().BlockSize()
	t0 := x.begin(p)
	defer x.end(p, t0)

	if dst == np.id {
		panic("protocol: compiler-directed send to self")
	}
	if mode == SendAggregate && np.coal == nil {
		mode = SendBulk
	}
	maxBlocks := mc.MaxPayload / bs
	if mode == SendEager {
		maxBlocks = 1
	}
	for _, r := range runs {
		for b := r.Start; b < r.Start+r.N; b++ {
			np.flags[b] |= flagCCTouched
			// The contract requires a valid local copy. ReadWrite is the
			// usual state (mk_writable / steady ownership); ReadOnly can
			// occur when an advisory prefetch or an edge read downgraded
			// the sender — the copy is still current and write ownership
			// is re-acquired lazily on the next store. Invalid means the
			// compiler's preconditions were violated.
			if mem.Tag(b) == memory.Invalid {
				panic(fmt.Sprintf("protocol: send of block %d on node %d without a valid copy; mk_writable missing",
					b, np.id))
			}
		}
		if mode == SendAggregate {
			// The run gathers into the per-destination carrier as one
			// segment, straight from memory — no intermediate buffer, no
			// per-run header, no MaxPayload chunking (the carrier is a
			// local drain artifact, not a wire MTU). Serialization still
			// charges the compute thread; send overhead is paid once per
			// carrier at drain time, overlapping later compute.
			p.Sleep(sim.Time(r.N) * mc.BulkPerBlock)
			np.coal.Append(dst, kind, r.Start*bs, int64(r.N), 0, mem.Bytes(r.Start*bs, r.N*bs), false)
			continue
		}
		for off := 0; off < r.N; off += maxBlocks {
			nb := min(r.N-off, maxBlocks)
			start := r.Start + off
			var data []byte
			if nb == 1 {
				data = n.Net.AllocBlock(np.id)
			} else {
				data = n.Net.AllocVar(np.id, nb*bs)[:nb*bs]
			}
			copy(data, mem.Bytes(start*bs, nb*bs))
			p.Sleep(mc.SendOver + sim.Time(nb)*mc.BulkPerBlock)
			m := n.Net.NewMessage(np.id)
			m.Src, m.Dst, m.Kind = np.id, dst, kind
			m.Addr, m.Arg, m.Data, m.DataPooled = start*bs, int64(nb), data, true
			n.Net.Send(m)
		}
	}
}

// hCC installs a compiler-controlled data (KCCData) or flush (KCCFlush)
// payload — the receive-side hot path for every specially tagged
// message.
//
//simlint:hotpath
func (np *nodeProto) hCC(hc *tempest.HContext, m *network.Message) {
	markDirty := m.Kind == KCCFlush
	mem := np.n.Mem
	bs := mem.Space().BlockSize()
	nb := int(m.Arg)
	if h := np.heat(); h != nil {
		h.AddBytesRange(m.Addr/bs, nb, m.Size)
	}
	np.occupy(sim.Time(nb) * np.n.MC.BulkPerBlock)
	b0 := m.Addr / bs
	for b := b0; b < b0+nb; b++ {
		np.flags[b] |= flagCCTouched
		if mem.Tag(b) != memory.ReadWrite {
			// A frame the receiver once opened may have been torn down
			// by an eager invalidation racing through an adjacent
			// edge-block's default-protocol sharing; the specially
			// tagged message carries the contract's permission to
			// reopen it. Data for a frame never opened is a compiler
			// bug and still trips the check.
			if np.flags[b]&flagCCFrame == 0 {
				panic(fmt.Sprintf("protocol: compiler-directed data for block %d arrived at node %d without readwrite frame (tag %v); implicit_writable missing",
					b, np.id, mem.Tag(b)))
			}
			np.occupy(np.n.MC.TagChange)
			mem.SetTag(b, memory.ReadWrite)
		}
	}
	mem.InstallRange(m.Addr, m.Data)
	for b := b0; b < b0+nb; b++ {
		if markDirty {
			// Flushed blocks are modifications relative to the home's
			// memory copy: the owner must present them as dirty so a
			// later default-protocol collection picks them up.
			mem.MarkAllDirty(b)
		} else {
			mem.ClearDirty(b)
		}
	}
	np.ccRecv.Add(int64(nb))
}

// Prefetch issues advisory, non-binding read requests for blocks this
// node will read through the default protocol (the paper's suggested
// boundary-case optimization: "co-operative prefetch" for the edge
// elements shmem_limits leaves behind). The compute process continues
// immediately; arriving data installs as a readonly copy, turning the
// later demand access into a hit. Blocks already readable are skipped.
func (x *Ext) Prefetch(p *sim.Proc, runs []BlockRun) {
	np := x.np
	n := np.n
	mem := n.Mem
	sp := mem.Space()
	mc := n.MC
	t0 := x.begin(p)
	defer x.end(p, t0)

	// Advisory requests are composed by the protocol engine, off the
	// compute processor's critical path; the call itself costs only its
	// dispatch.
	p.Sleep(mc.TagChange)
	for _, r := range runs {
		for b := r.Start; b < r.Start+r.N; b++ {
			if mem.Tag(b) != memory.Invalid {
				continue
			}
			home := sp.HomeOfBlock(b)
			if home == np.id {
				continue // local directory; a fault would be cheap anyway
			}
			if pg := sp.Page(b * sp.BlockSize()); !mem.Mapped(pg) {
				p.Sleep(mc.PageMapCost)
				mem.SetMapped(pg)
			}
			np.ctrl(home, KReadReq, b, 0, 0)
		}
	}
}

// IsFrame reports whether this node ever opened block b as a
// compiler-controlled frame.
func (x *Ext) IsFrame(b int) bool { return x.np.flags[b]&flagCCFrame != 0 }

// ExpectBlocks announces n incoming compiler-controlled blocks for this
// node's next ReadyToRecv (the schedule knows exactly what will
// arrive). May be called multiple times before the wait.
func (x *Ext) ExpectBlocks(n int) { x.np.ccExpected += int64(n) }

// ReadyToRecv blocks the compute process until every announced block
// has arrived — the counting-semaphore receive of the paper. Any
// traffic this node still holds in its coalescing buffers departs
// first: another node's ReadyToRecv may be waiting on it, and draining
// before blocking keeps the epoch free of cyclic waits.
func (x *Ext) ReadyToRecv(p *sim.Proc) {
	np := x.np
	t0 := x.begin(p)
	defer x.end(p, t0)
	p.Sleep(np.n.MC.TagChange)
	if np.coal != nil {
		np.coal.FlushAll()
	}
	np.ccRecv.WaitFor(p, np.ccExpected)
}

// DrainAggregated flushes every carrier the coalescing scheduler holds
// for this node. The runtime calls it at the end of a communication
// phase so the epoch's aggregated traffic departs before the closing
// barrier rather than riding on the barrier's own drain. A no-op when
// aggregation is off or nothing is pending.
func (x *Ext) DrainAggregated(p *sim.Proc) {
	np := x.np
	if np.coal == nil || !np.coal.PendingAny() {
		return
	}
	t0 := x.begin(p)
	defer x.end(p, t0)
	p.Sleep(np.n.MC.TagChange)
	np.coal.FlushAll()
}
