// Package protocol implements coherence for the fine-grain DSM.
//
// Two layers are provided:
//
//   - The default protocol: a directory-based, eager-invalidate,
//     multiple-writer release-consistency protocol equivalent to the
//     paper's Figure 1(a). Every block has a home node (its page's
//     home) whose directory tracks reader and writer sets. A remote
//     read of a block held exclusively costs four messages
//     (read-request, put-data-request, put-data-response,
//     read-response); gaining write ownership costs four more
//     (write-request, invalidation, acknowledgement, write-grant).
//     Upgrades from readonly hide their latency: the writer continues
//     immediately and the grant is collected at the next
//     synchronization point.
//
//   - The compiler-directed extensions of Section 4.2 (see
//     extensions.go): shmem_limits, mk_writable, implicit_writable,
//     send/ready_to_recv, implicit_invalidate, and the non-owner-write
//     flush — the contract that lets the compiler bypass the default
//     protocol on blocks it can prove are involved in a statically
//     known producer-consumer transfer.
package protocol

import (
	"fmt"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
	"hpfdsm/internal/trace"
)

// Message kinds of the default protocol (Figure 1a) and the
// compiler-directed extensions.
const (
	KReadReq network.Kind = 1 + iota
	KReadResp
	KWriteReq
	KWriteResp
	KUpgradeReq
	KWriteGrant
	KPutDataReq
	KPutDataResp
	KInval
	KInvalAck

	KMkWritableReq
	KMkWritableData
	KMkWritableAck
	KCCData
	KCCFlush
	KCCFlushDir

	// KCoalesced is a carrier: one vectored wire message holding many
	// protocol messages as segments (the NIC-level coalescing
	// scheduler's gather buffer). One header, one receive overhead, and
	// one handler dispatch cover every contained segment.
	KCoalesced

	// Multicast fan-out invalidation (tree topology, see multicast.go):
	// home -> relay (leaf mask in Arg), relay -> sibling leaf (home in
	// Arg2), leaf -> relay (dirty flag in Arg), relay -> home (clean
	// leaf mask in Arg).
	KInvalTree
	KInvalFwd
	KInvalAckFwd
	KInvalAckTree
)

// kindRow is one message kind's row of the dispatch table: its trace
// name, its handler, and whether it may travel as a carrier segment.
// Only latency-tolerant kinds — tagged data, flush-directory updates,
// mk_writable data and acks, and the eager-release upgrade and
// invalidation legs — ever ride a carrier.
type kindRow struct {
	name    string
	handle  func(*nodeProto, *tempest.HContext, *network.Message)
	carrier bool
}

// kinds is the protocol's one dispatch table, indexed by kind: every
// message a node receives runs its row (dispatch, which Attach binds),
// and hCoalesced routes a carrier's segments through the same rows. It is filled in init
// because hCoalesced, one of its handlers, reads it.
var kinds [KInvalAckTree + 1]kindRow

func init() {
	kinds = [...]kindRow{
		KReadReq:        {"read_req", (*nodeProto).hDirReq, false},
		KReadResp:       {"read_resp", (*nodeProto).hReadResp, false},
		KWriteReq:       {"write_req", (*nodeProto).hDirReq, true},
		KWriteResp:      {"write_resp", (*nodeProto).hWriteResp, false},
		KUpgradeReq:     {"upgrade_req", (*nodeProto).hDirReq, true},
		KWriteGrant:     {"write_grant", (*nodeProto).hWriteGrant, true},
		KPutDataReq:     {"put_data_req", (*nodeProto).hPutDataReq, false},
		KPutDataResp:    {"put_data_resp", (*nodeProto).hPutDataResp, false},
		KInval:          {"inval", (*nodeProto).hInval, true},
		KInvalAck:       {"inval_ack", (*nodeProto).hInvalAck, true},
		KMkWritableReq:  {"mk_writable_req", (*nodeProto).hMkWritableReq, false},
		KMkWritableData: {"mk_writable_data", (*nodeProto).hMkWritableData, true},
		KMkWritableAck:  {"mk_writable_ack", (*nodeProto).hMkWritableAck, true},
		KCCData:         {"cc_data", (*nodeProto).hCC, true},
		KCCFlush:        {"cc_flush", (*nodeProto).hCC, true},
		KCCFlushDir:     {"cc_flush_dir", (*nodeProto).hCCFlushDir, true},
		KCoalesced:      {"coalesced", (*nodeProto).hCoalesced, false},
		KInvalTree:      {"inval_tree", (*nodeProto).hInvalTree, false},
		KInvalFwd:       {"inval_fwd", (*nodeProto).hInvalFwd, false},
		KInvalAckFwd:    {"inval_ack_fwd", (*nodeProto).hInvalAckFwd, false},
		KInvalAckTree:   {"inval_ack_tree", (*nodeProto).hInvalAckTree, false},
	}
	names := make([]string, len(kinds))
	for k := range kinds {
		names[k] = kinds[k].name
	}
	network.NameKinds(names)
}

const ctrlSize = 8 // payload bytes of a control message

// Proto is the coherence protocol instance for one cluster.
type Proto struct {
	C     *tempest.Cluster
	nodes []*nodeProto

	// BlockInfo, when set, renders schedule provenance for a block
	// number (which array it belongs to and which compiler-emitted call
	// last created expectations for it). Invariant-audit failures and
	// the stall watchdog's dump append it to their block addresses. The
	// runtime installs analysis.ProvIndex.Describe here; the hook is a
	// plain function so the protocol does not import the verifier.
	BlockInfo func(b int) string

	// union is the coherence audit's scratch, nil until the first
	// audit: the per-block union of every node's dirty masks, zero
	// between audits.
	union []uint16
}

// nodeProto is the per-node protocol state: the directory for blocks
// homed here, the fill signal of the outstanding blocking miss, the
// per-block flags and the compiler-controlled receive counter.
type nodeProto struct {
	p  *Proto
	n  *tempest.Node
	id int

	// defers counts this node's protocol actions parked on short
	// re-delivery timers (scHold deferrals, busy-directory retries).
	// Nonzero means hidden work is pending even though no message is in
	// flight, so the quiescence predicate refuses to checkpoint. Kept
	// per node — the timers fire on the owning node's Env, so the
	// counter stays single-writer under the PDES window scheduler.
	defers int

	// dir is the directory of the blocks homed here, indexed by their
	// memory.Space.HomeSlot; an entry is made when its block is first
	// asked for (entry). slab backs every entry's node sets, 3*nsWords(N)
	// words per slot; made counts the made entries (makeEntry).
	dir  []dirEntry
	slab nodeset
	made int

	// fill completes the compute process's blocking miss on fillBlock,
	// remote or home-local: nil when none is outstanding, else fillSig,
	// rearmed per miss. The node's one compute process blocks on it.
	fill      *sim.Signal
	fillSig   sim.Signal
	fillBlock int

	// resumes holds the blocks of the scheduled resume events in the
	// order they run (each at the engine's never-decreasing next-free
	// time, ties in issue order); resumeFn, bound at Attach, pops one.
	resumes  []int
	resumeFn func()

	// scatter is hCoalesced's per-segment message view (see there).
	scatter network.Message

	// flags holds one byte of bookkeeping per block of the segment (the
	// flag* bits): it sits on the access-fault and data-install paths.
	flags []uint8

	// Compiler-controlled transfer bookkeeping.
	ccRecv     *sim.Counter // blocks received via KCCData / KCCFlush
	ccExpected int64        // cumulative blocks announced via ExpectBlocks
	mkwCount   *sim.Counter // blocks confirmed for the current mk_writable
	iwDone     []BlockRun   // ranges implicit_writable has processed (first-time-only), by (Start, N)

	// Scratch classification buffers reused across protocol calls, so
	// the per-call per-home grouping in MkWritable / FlushBlocks
	// allocates nothing in steady state.
	encScratch  [][]encRun
	homeScratch [][]BlockRun
	mkwScratch  []encRun

	// Multicast fan-out state (tree topology only; see multicast.go).
	// clusterMask/clusterScratch are the home-side per-round bucketing
	// scratch; relay holds this node's open fan-out rounds in block
	// order; invalRounds counts rounds this home opened (diagnostic).
	clusterMask    []uint64
	clusterScratch []int
	relay          []relayState
	invalRounds    int64
}

// encRun is a run of blocks with one mk_writable disposition.
type encRun struct {
	BlockRun
	needData bool
}

// The bits of nodeProto.flags.
const (
	// flagSCHold marks a block between a sequentially-consistent write
	// grant and the retirement of the blocked store: invalidations and
	// flush requests are deferred briefly so the store always makes
	// progress (otherwise two false-sharing writers can livelock
	// stealing the block from each other).
	flagSCHold    uint8 = 1 << iota
	flagCCFrame         // ever opened by implicit_writable
	flagCCTouched       // ever sent or received via send/flush
	flagStaleFill       // a relayed invalidation overtook the read response in flight (multicast.go)
)

// lookup returns block b's directory entry, nil when b is homed
// elsewhere or has not been asked for.
func (np *nodeProto) lookup(b int) *dirEntry {
	if home, i := np.n.Mem.Space().HomeSlot(b); home == np.id && np.dir[i].made() {
		return &np.dir[i]
	}
	return nil
}

// Attach installs the protocol on every node of the cluster and
// returns it. Must be called before any compute process touches
// shared memory.
func Attach(c *tempest.Cluster) *Proto {
	p := &Proto{C: c}
	for _, n := range c.Nodes {
		homed := c.Space.NumHomed(n.ID)
		np := &nodeProto{
			p: p, n: n, id: n.ID,
			dir:      make([]dirEntry, homed),
			slab:     make(nodeset, 3*nsWords(len(c.Nodes))*homed),
			flags:    make([]uint8, c.Space.NumBlocks()),
			ccRecv:   sim.NewCounter(),
			mkwCount: sim.NewCounter(),
		}
		np.resumeFn = np.resumeNext
		p.nodes = append(p.nodes, np)
		n.Fault = np.fault
		handle := np.dispatch
		for k := range kinds {
			if kinds[k].handle != nil {
				n.On(network.Kind(k), handle)
			}
		}
	}
	return p
}

// EnableAggregation attaches a NIC-level coalescing scheduler to every
// node's network interface: same-destination latency-tolerant protocol
// traffic — tagged data under SendAggregate, flush-directory updates,
// mk_writable data+ack responses, and the eager-release-consistency
// upgrade/invalidation legs — is gathered into vectored carrier
// messages that drain on phase boundaries, synchronization entries,
// ordering chokepoints, and (for protocol-engine traffic) a short
// timer. The network owns the schedulers; every layer reaches a node's
// through Network.CoalescerOf. Call before the simulation starts, and
// only under release consistency — the sequentially consistent model's
// blocking stores gain nothing from buffering and its scHold deferrals
// assume standalone delivery.
func (p *Proto) EnableAggregation(delay sim.Time) {
	if p.C.MC.Consistency != config.ReleaseConsistent {
		panic("protocol: message aggregation requires the release-consistent model")
	}
	for _, np := range p.nodes {
		p.C.Net.AttachCoalescer(np.id, KCoalesced, ctrlSize, delay, np.n.SendFromProto)
	}
}

// hCoalesced scatters a carrier: each contained segment dispatches to
// its original handler with its original per-message state-transition
// cost — only the per-message wire header, receive overhead, and
// dispatch are shared. A synthesized per-segment message view, the
// node's one scatter view, keeps the handler bodies unchanged; it is
// never recycled (only the carrier itself is pool-owned).
//
//simlint:hotpath
func (np *nodeProto) hCoalesced(hc *tempest.HContext, m *network.Message) {
	t := np.n.Trace
	sm := &np.scatter
	//simlint:ignore hotalloc -- ForEachSegment only calls fn, so the closure does not escape and lives on the stack (go build -gcflags=-m: func literal does not escape)
	network.ForEachSegment(m.Data, int(m.Arg), func(kind network.Kind, addr int, arg, arg2 int64, payload []byte) {
		*sm = network.Message{
			Src: m.Src, Dst: m.Dst, Kind: kind, Addr: addr, Arg: arg, Arg2: arg2,
			Data: payload, Size: network.SegHeader + len(payload),
		}
		if t != nil {
			// Scatter fan-out: the carrier's wire flow was already
			// terminated at handler invoke; one instant per contained
			// segment shows every run the transmission carried.
			now := np.n.Env.Now()
			t.Instant(np.id, trace.LaneProto, "seg:"+network.KindName(kind), "seg", now,
				trace.Int("src", m.Src), trace.Int("addr", addr), trace.Int("bytes", sm.Size))
		}
		np.dispatchSeg(hc, sm)
	})
}

// dispatch runs a message's row of the table. Attach binds it once a
// node, for every kind.
func (np *nodeProto) dispatch(hc *tempest.HContext, m *network.Message) {
	kinds[m.Kind].handle(np, hc, m)
}

// dispatchSeg routes one carrier segment to its row. Only kinds the
// table marks as carrier kinds ever ride a carrier; anything else is a
// protocol bug.
func (np *nodeProto) dispatchSeg(hc *tempest.HContext, sm *network.Message) {
	if int(sm.Kind) >= len(kinds) || !kinds[sm.Kind].carrier {
		panic(fmt.Sprintf("protocol: kind %d cannot travel as a carrier segment", sm.Kind))
	}
	np.dispatch(hc, sm)
}

// Node returns the per-node protocol interface for compiler-directed
// calls (used by the runtime).
func (p *Proto) Node(id int) *Ext { return &Ext{np: p.nodes[id]} }

// CoherentRead returns the current value of a shared word after the
// simulation has finished, reconstructing it from the directory: the
// home's memory copy overlaid with any writer's locally dirty word.
// (Race-free programs have at most one dirty copy of a word.)
func (p *Proto) CoherentRead(addr int) float64 {
	sp := p.C.Space
	b := sp.Block(addr)
	home := p.nodes[sp.HomeOfBlock(b)]
	w := uint((addr % sp.BlockSize()) / 8)
	if e := home.lookup(b); e != nil {
		for i := e.writers().next(0); i >= 0; i = e.writers().next(i + 1) {
			if p.nodes[i].n.Mem.Dirty(b)&(1<<w) != 0 {
				return p.nodes[i].n.Mem.ReadF64(addr)
			}
		}
	}
	// No remote dirty copy: the home's own memory is current (its own
	// writes land there directly).
	return home.n.Mem.ReadF64(addr)
}

// occupy charges protocol-engine time on this node.
func (np *nodeProto) occupy(d sim.Time) { np.n.OccupyProto(d) }

// heat returns the tracer's heat accumulator, or nil when tracing is
// off — the per-block miss/invalidation/byte hooks below are all
// guarded on it.
func (np *nodeProto) heat() *trace.Heat {
	if t := np.n.Trace; t != nil {
		return t.Heat
	}
	return nil
}

// heatInval counts one invalidation of block b in the heat map.
func (np *nodeProto) heatInval(b int) {
	if h := np.heat(); h != nil {
		h.AddInval(b)
	}
}

// send sends a message from the protocol engine (charging SendOver; it
// departs when the engine's queued work is done): a control message
// when data is nil, else one carrying a copy of data.
func (np *nodeProto) send(dst int, kind network.Kind, addr int, arg, arg2 int64, data []byte) {
	m := np.n.Net.NewDataMessage(np.id, data)
	m.Dst, m.Kind, m.Addr, m.Arg, m.Arg2 = dst, kind, addr, arg, arg2
	if data == nil {
		m.Size = ctrlSize
	}
	np.n.SendFromProto(m)
}

// post sends one of the legs eager release consistency makes
// latency-tolerant (an invalidation, its acknowledgement, a write
// grant) from the protocol engine, with block b's data when withData is
// set. With the coalescer on it is a segment of the open carrier to
// dst: the engine pays a deposit instead of a send, the data gathers
// straight from memory with no block buffer in between, and the engine
// timer bounds the added delay — a request burst that arrived in one
// carrier answers in one carrier. Otherwise it is a message of its own.
func (np *nodeProto) post(dst int, kind network.Kind, b int, withData bool) {
	var payload []byte
	if withData {
		payload = np.n.Mem.BlockData(b)
	}
	if co := np.n.Net.CoalescerOf(np.id); co != nil {
		np.occupy(np.n.MC.TagChange)
		co.Append(dst, kind, b, 0, 0, payload, true)
		return
	}
	np.send(dst, kind, b, 0, 0, payload)
}

// request sends a control message from the compute process, which has
// already paid for it.
func (np *nodeProto) request(dst int, kind network.Kind, addr int, arg, arg2 int64) {
	rq := np.n.Net.NewMessage(np.id)
	rq.Src, rq.Dst, rq.Kind, rq.Addr, rq.Arg, rq.Arg2, rq.Size = np.id, dst, kind, addr, arg, arg2, ctrlSize
	np.n.Net.Send(rq)
}

// postFromCompute is post's compute-side twin, for what nothing waits
// on before the next synchronization point (a write fault's request, a
// flush's directory update): the compute process sleeps d plus either
// the deposit into the open carrier to dst or the overhead of a send of
// its own. timer opens the coalescer's batch window, so that a request
// stream departs mid-epoch and overlaps the loop body; every
// synchronization entry drains as a backstop either way.
func (np *nodeProto) postFromCompute(p *sim.Proc, d sim.Time, dst int, kind network.Kind, addr int, arg, arg2 int64, timer bool) {
	if co := np.n.Net.CoalescerOf(np.id); co != nil {
		p.Sleep(d + np.n.MC.TagChange)
		co.Append(dst, kind, addr, arg, arg2, nil, timer)
		return
	}
	p.Sleep(d + np.n.MC.SendOver)
	np.request(dst, kind, addr, arg, arg2)
}

// blockingMiss asks block b's home for it, after the fault's cost d, and
// blocks the compute process until the reply has been installed. The
// home's own miss goes straight into its directory, whose finish
// completes it; anyone else's is a request message.
func (np *nodeProto) blockingMiss(p *sim.Proc, d sim.Time, home int, kind network.Kind, b int) {
	if home != np.id {
		d += np.n.MC.SendOver
	}
	p.Sleep(d)
	if np.fill != nil {
		panic(fmt.Sprintf("protocol: node %d has two blocking misses, on blocks %d and %d", np.id, np.fillBlock, b))
	}
	np.fillSig.Reset()
	np.fill, np.fillBlock = &np.fillSig, b
	if home == np.id {
		np.enqueue(dirReq{kind: kind, block: b, src: np.id})
	} else {
		np.request(home, kind, b, 0, 0)
	}
	np.fillSig.Wait(p)
}

// --- Fault path (compute-process context) ----------------------------

// fault resolves an access fault. Read and write misses block the
// compute process; readonly->readwrite upgrades proceed immediately
// with the transaction tracked as pending (release consistency).
//
//simlint:hotpath
func (np *nodeProto) fault(p *sim.Proc, addr int, write bool) {
	n := np.n
	sp := n.Mem.Space()
	mc := n.MC
	b := sp.Block(addr)
	home := sp.HomeOfBlock(b)
	d := mc.FaultCost
	if pg := sp.Page(addr); !n.Mem.Mapped(pg) {
		d += mc.PageMapCost
		n.Mem.SetMapped(pg)
	}

	if write {
		kind := KUpgradeReq
		if n.Mem.Tag(b) == memory.Invalid {
			kind = KWriteReq
		}
		if mc.Consistency == config.SequentiallyConsistent {
			// Conservative model: the store stalls until ownership (and
			// data, on a miss) arrive.
			np.blockingMiss(p, d, home, kind, b)
			// The store retires now (no yield between here and the
			// write); release the hold taken at grant time.
			np.flags[b] &^= flagSCHold
			return
		}
		// Eager release consistency: the writer does not wait for
		// ownership. On an upgrade the data is already here; on a write
		// miss the frame opens immediately (the imminent store marks
		// its word dirty) and the fetched copy merges into the clean
		// words when the response arrives. Grants are collected at the
		// next synchronization point.
		n.Mem.SetTag(b, memory.ReadWrite)
		n.AddPending()
		if home != np.id {
			// Consecutive faults to one home share a carrier when the
			// coalescer is on; WaitPending's drain means a buffered
			// request can never gate its own grant.
			np.postFromCompute(p, d, home, kind, b, 0, 0, true)
			return
		}
		p.Sleep(d)
		np.enqueue(dirReq{kind: kind, block: b, src: np.id})
		return
	}
	np.blockingMiss(p, d, home, KReadReq, b)
}

// --- Requester-side response handlers --------------------------------

// fillDone wakes the compute process blocked on block b, if any.
func (np *nodeProto) fillDone(b int) {
	sig := np.fill
	if sig == nil || np.fillBlock != b {
		// A prefetched block completing (or a duplicate response after
		// a prefetch raced a demand miss): nothing is waiting.
		return
	}
	np.fill = nil
	sig.Fire()
}

// resume lets the processor blocked on block b continue once the
// engine's queued work — the install this handler charged — is done.
//
//simlint:hotpath
func (np *nodeProto) resume(b int) {
	//simlint:ignore hotalloc -- the queue grows to the node's most resumes in flight once; resumeNext pops in place
	np.resumes = append(np.resumes, b)
	np.n.Env.Schedule(np.n.ProtoBusyUntil(), np.resumeFn)
}

// resumeNext is the resume event: it completes the oldest scheduled
// resume.
func (np *nodeProto) resumeNext() {
	b := np.resumes[0]
	np.resumes = np.resumes[:copy(np.resumes, np.resumes[1:])]
	np.fillDone(b)
}

// grantSC completes a sequentially consistent store's stall: the block
// is writable and held until the blocked store has retired.
func (np *nodeProto) grantSC(b int) {
	np.n.Mem.SetTag(b, memory.ReadWrite)
	np.flags[b] |= flagSCHold
	np.resume(b)
}

// doneLocal completes the home's own read, write or upgrade in place,
// with no event in between, as the reply's handler would a remote one
// (a sequentially consistent store's block held until it retires).
func (np *nodeProto) doneLocal(r dirReq) {
	switch {
	case r.kind == KReadReq:
	case np.n.MC.Consistency == config.SequentiallyConsistent:
		np.n.Mem.SetTag(r.block, memory.ReadWrite)
		np.flags[r.block] |= flagSCHold
	default:
		np.n.DonePending()
		return
	}
	np.fillDone(r.block)
}

func (np *nodeProto) hReadResp(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	if h := np.heat(); h != nil {
		h.AddBytes(b, m.Size)
	}
	np.occupy(np.n.MC.BlockCopy + 2*np.n.MC.TagChange)
	if np.flags[b]&flagStaleFill != 0 {
		// Stale on arrival: the load wakes, finds the block invalid and
		// faults again, and the home answers after the invalidation.
		np.flags[b] &^= flagStaleFill
	} else {
		np.n.Mem.InstallBlock(b, m.Data)
		np.n.Mem.SetTag(b, memory.ReadOnly)
		np.n.Mem.ClearDirty(b)
	}
	np.resume(b)
}

// hWriteResp completes a write miss. Under release consistency the
// fetched copy fills the words the processor wrote around (merge), and
// the pending transaction retires; under sequential consistency the
// blocked store resumes.
func (np *nodeProto) hWriteResp(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	if h := np.heat(); h != nil {
		h.AddBytes(b, m.Size)
	}
	np.occupy(np.n.MC.BlockCopy + np.n.MC.TagChange)
	np.n.Mem.InstallClean(b, m.Data)
	if np.n.MC.Consistency == config.SequentiallyConsistent {
		np.grantSC(b)
		return
	}
	// If we were invalidated while the miss was in flight the copy is
	// already stale: leave the tag alone.
	if np.n.Mem.Tag(b) != memory.Invalid {
		np.n.Mem.SetTag(b, memory.ReadWrite)
	}
	np.n.DonePending()
}

func (np *nodeProto) hWriteGrant(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	np.occupy(np.n.MC.HandlerCost)
	if m.Data != nil && np.n.Mem.Tag(b) == memory.Invalid {
		// We were invalidated while the upgrade was in flight; the
		// grant carries fresh data.
		if h := np.heat(); h != nil {
			h.AddBytes(b, m.Size)
		}
		np.occupy(np.n.MC.BlockCopy)
		np.n.Mem.InstallBlock(b, m.Data)
		np.n.Mem.SetTag(b, memory.ReadWrite)
		np.n.Mem.ClearDirty(b)
	}
	if np.n.MC.Consistency == config.SequentiallyConsistent {
		np.grantSC(b)
		return
	}
	np.n.DonePending()
}

// surrender gives up this node's copy of block b on behalf of its home:
// the tag goes invalid (readonly with keep, when the home lets a flushed
// writer stay a sharer) and the dirty mask clears. Dirty words — with
// always, the whole block whatever its mask, which is the reply a
// KPutDataReq demands — go home in a KPutDataResp, whose arrival retires
// this node from the home's collection; shipping charges copyCost. It
// reports whether the copy was clean: nothing was sent, and the caller
// still owes the round its acknowledgement.
func (np *nodeProto) surrender(b, home int, keep, always bool, copyCost sim.Time) (clean bool) {
	mem := np.n.Mem
	np.occupy(np.n.MC.TagChange)
	mask := mem.Dirty(b)
	tag, keeps := memory.Invalid, int64(0)
	if keep {
		tag, keeps = memory.ReadOnly, 1
	}
	mem.SetTag(b, tag)
	if mask == 0 && !always {
		return true
	}
	np.occupy(copyCost)
	np.send(home, KPutDataResp, b, int64(mask), keeps, mem.BlockData(b))
	mem.ClearDirty(b)
	return false
}

// hPutDataReq: the home wants our (possibly dirty) copy of a block.
// Arg==1 additionally invalidates (a writer is taking ownership).
func (np *nodeProto) hPutDataReq(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	if np.flags[b]&flagSCHold != 0 {
		np.deferMsg(m, np.hPutDataReq)
		return
	}
	np.occupy(np.n.MC.HandlerCost)
	if m.Arg == 1 {
		np.heatInval(b)
	}
	np.surrender(b, m.Src, m.Arg != 1 && np.n.Mem.Tag(b) != memory.Invalid, true, np.n.MC.BlockCopy)
}

// hInval: the home invalidates our readonly copy. A copy we upgraded
// concurrently flushes its words instead of acknowledging (and, unlike
// a tree leaf, is not charged the block copy).
func (np *nodeProto) hInval(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	if np.flags[b]&flagSCHold != 0 {
		np.deferMsg(m, np.hInval)
		return
	}
	np.heatInval(b)
	np.occupy(np.n.MC.HandlerCost)
	if np.surrender(b, m.Src, false, false, 0) {
		np.post(m.Src, KInvalAck, b, false)
	}
}

// later runs fn after a short pause. The parked work is counted, so
// that the quiescence predicate refuses to checkpoint around it.
func (np *nodeProto) later(fn func()) {
	np.defers++
	np.n.Env.After(2*sim.Microsecond, func() {
		np.defers--
		fn()
	})
}

// deferMsg re-delivers a message to its own handler shortly, used to
// hold off coherence actions on a block whose granted store has not
// yet retired. The deferral holds its own reference, which it drops
// once the re-delivered handler returns; a handler that defers again
// has taken another.
func (np *nodeProto) deferMsg(m *network.Message, h func(*tempest.HContext, *network.Message)) {
	m.Retain() // the message outlives this delivery
	np.later(func() {
		h(&tempest.HContext{Node: np.n}, m)
		np.n.Net.Recycle(m)
	})
}

// --- Home-side handlers ----------------------------------------------

// hDirReq: a remote read, write or upgrade request for a block homed
// here becomes a directory transaction of the message's kind.
//
//simlint:hotpath
func (np *nodeProto) hDirReq(hc *tempest.HContext, m *network.Message) {
	np.occupy(np.n.MC.HandlerCost)
	np.enqueue(dirReq{kind: m.Kind, block: m.Addr, src: m.Src})
}

func (np *nodeProto) hPutDataResp(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	mc := np.n.MC
	if h := np.heat(); h != nil {
		h.AddBytes(b, m.Size)
	}
	np.occupy(mc.HandlerCost + mc.BlockCopy)
	// Words the home itself has written since the flushed copy was
	// superseded (an eager home-local store racing this collection)
	// take precedence: the responder's copy of those words is older.
	if mask := uint16(m.Arg) &^ np.n.Mem.Dirty(b); mask != 0 {
		np.n.Mem.MergeDirtyWords(b, m.Data, mask)
	}
	np.collectDone(b, m.Src, m.Arg2 == 1)
}

func (np *nodeProto) hInvalAck(hc *tempest.HContext, m *network.Message) {
	np.occupy(np.n.MC.HandlerCost)
	np.collectDone(m.Addr, m.Src, false)
}
