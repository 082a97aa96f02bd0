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
	"hpfdsm/internal/topo"
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

const ctrlSize = 8 // payload bytes of a control message

// MsgKindName renders a message kind as a stable human-readable name
// for traces and diagnostics. It covers the default protocol, the
// compiler-directed extensions, the tempest synchronization kinds, and
// the reliable-delivery acknowledgement.
func MsgKindName(k network.Kind) string {
	switch k {
	case KReadReq:
		return "read_req"
	case KReadResp:
		return "read_resp"
	case KWriteReq:
		return "write_req"
	case KWriteResp:
		return "write_resp"
	case KUpgradeReq:
		return "upgrade_req"
	case KWriteGrant:
		return "write_grant"
	case KPutDataReq:
		return "put_data_req"
	case KPutDataResp:
		return "put_data_resp"
	case KInval:
		return "inval"
	case KInvalAck:
		return "inval_ack"
	case KMkWritableReq:
		return "mk_writable_req"
	case KMkWritableData:
		return "mk_writable_data"
	case KMkWritableAck:
		return "mk_writable_ack"
	case KCCData:
		return "cc_data"
	case KCCFlush:
		return "cc_flush"
	case KCCFlushDir:
		return "cc_flush_dir"
	case KCoalesced:
		return "coalesced"
	case KInvalTree:
		return "inval_tree"
	case KInvalFwd:
		return "inval_fwd"
	case KInvalAckFwd:
		return "inval_ack_fwd"
	case KInvalAckTree:
		return "inval_ack_tree"
	case tempest.KindBarrierArrive:
		return "barrier_arrive"
	case tempest.KindBarrierRelease:
		return "barrier_release"
	case tempest.KindReduceContrib:
		return "reduce_contrib"
	case tempest.KindReduceResult:
		return "reduce_result"
	case tempest.KindTreeBarrierUp:
		return "tree_barrier_up"
	case tempest.KindTreeBarrierDown:
		return "tree_barrier_down"
	case tempest.KindTreeReduceUp:
		return "tree_reduce_up"
	case tempest.KindTreeReduceDown:
		return "tree_reduce_down"
	case network.KindAck:
		return "ack"
	case network.KindProbe:
		return "probe"
	case network.KindProbeAck:
		return "probe_ack"
	}
	return fmt.Sprintf("kind%d", k)
}

// Proto is the coherence protocol instance for one cluster.
type Proto struct {
	C     *tempest.Cluster
	nodes []*nodeProto

	// tree is the cluster's combining-tree shape under the tree
	// topology, nil under the paper's flat topology. When set, the
	// homes route sharer invalidations through per-cluster relays
	// (multicast.go) instead of unicasting every sharer.
	tree *topo.Tree

	// BlockInfo, when set, renders schedule provenance for a block
	// number (which array it belongs to and which compiler-emitted call
	// last created expectations for it). Invariant-audit failures and
	// the stall watchdog's dump append it to their block addresses. The
	// runtime installs analysis.ProvIndex.Describe here; the hook is a
	// plain function so the protocol does not import the verifier.
	BlockInfo func(b int) string
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
	// asked for (entry).
	dir []*dirEntry

	// fill completes the compute process's blocking miss on fillBlock;
	// nil when none is outstanding. The node's one compute process
	// blocks on it, so there is never a second.
	fill      *sim.Signal
	fillBlock int

	// flags holds one byte of bookkeeping per block of the segment (the
	// flag* bits): it sits on the access-fault and data-install paths.
	flags []uint8

	// Compiler-controlled transfer bookkeeping.
	ccRecv     *sim.Counter      // blocks received via KCCData / KCCFlush
	ccExpected int64             // cumulative blocks announced via ExpectBlocks
	mkwCount   *sim.Counter      // blocks confirmed for the current mk_writable
	iwDone     map[BlockRun]bool // ranges implicit_writable has processed (first-time-only)

	// coal is this node's NIC-level coalescing scheduler, nil unless
	// aggregation is enabled (EnableAggregation). When set,
	// latency-tolerant traffic — tagged data under SendAggregate,
	// flush-directory updates, mk_writable data+ack responses, and the
	// eager-release-consistency upgrade/invalidation legs — travels as
	// segments of per-destination carrier messages.
	coal *network.Coalescer

	// Scratch classification buffers reused across protocol calls, so
	// the per-call per-home grouping in MkWritable / FlushBlocks
	// allocates nothing in steady state.
	encScratch  [][]encRun
	homeScratch [][]BlockRun
	mkwScratch  []encRun

	// Multicast fan-out state (tree topology only; see multicast.go).
	// clusterMask/clusterScratch are the home-side per-round bucketing
	// scratch; relay holds this node's open fan-out rounds by block;
	// invalRounds counts rounds this home opened (diagnostic).
	clusterMask    []uint64
	clusterScratch []int
	relay          map[int]*relayState
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
)

// lookup returns block b's directory entry, nil when b is homed
// elsewhere or has not been asked for.
func (np *nodeProto) lookup(b int) *dirEntry {
	if home, i := np.n.Mem.Space().HomeSlot(b); home == np.id {
		return np.dir[i]
	}
	return nil
}

// Attach installs the protocol on every node of the cluster and
// returns it. Must be called before any compute process touches
// shared memory.
func Attach(c *tempest.Cluster) *Proto {
	p := &Proto{C: c}
	if c.MC.Topology == config.TreeTopo {
		t := topo.MustNew(c.MC.Nodes, c.MC.EffectiveRadix())
		p.tree = &t
	}
	for _, n := range c.Nodes {
		np := &nodeProto{
			p: p, n: n, id: n.ID,
			dir:      make([]*dirEntry, c.Space.NumHomed(n.ID)),
			flags:    make([]uint8, c.Space.NumBlocks()),
			ccRecv:   sim.NewCounter(),
			mkwCount: sim.NewCounter(),
			iwDone:   make(map[BlockRun]bool),
		}
		p.nodes = append(p.nodes, np)
		n.Fault = np.fault
		n.On(KReadReq, np.hDirReq)
		n.On(KWriteReq, np.hDirReq)
		n.On(KUpgradeReq, np.hDirReq)
		n.On(KReadResp, np.hReadResp)
		n.On(KWriteResp, np.hWriteResp)
		n.On(KWriteGrant, np.hWriteGrant)
		n.On(KPutDataReq, np.hPutDataReq)
		n.On(KPutDataResp, np.hPutDataResp)
		n.On(KInval, np.hInval)
		n.On(KInvalAck, np.hInvalAck)
		n.On(KMkWritableReq, np.hMkWritableReq)
		n.On(KMkWritableData, np.hMkWritableData)
		n.On(KMkWritableAck, np.hMkWritableAck)
		n.On(KCCData, np.hCC)
		n.On(KCCFlush, np.hCC)
		n.On(KCCFlushDir, np.hCCFlushDir)
		n.On(KCoalesced, np.hCoalesced)
		n.On(KInvalTree, np.hInvalTree)
		n.On(KInvalFwd, np.hInvalFwd)
		n.On(KInvalAckFwd, np.hInvalAckFwd)
		n.On(KInvalAckTree, np.hInvalAckTree)
	}
	return p
}

// EnableAggregation installs the NIC-level coalescing scheduler on
// every node: same-destination latency-tolerant protocol traffic is
// gathered into vectored carrier messages that drain on phase
// boundaries, synchronization entries, ordering chokepoints, and (for
// protocol-engine traffic) a short timer. Call before the simulation
// starts, and only under release consistency — the sequentially
// consistent model's blocking stores gain nothing from buffering and
// its scHold deferrals assume standalone delivery.
func (p *Proto) EnableAggregation(delay sim.Time) {
	if p.C.MC.Consistency != config.ReleaseConsistent {
		panic("protocol: message aggregation requires the release-consistent model")
	}
	for _, np := range p.nodes {
		np.coal = p.C.Net.AttachCoalescer(np.id, KCoalesced, ctrlSize, delay, np.n.SendFromProto)
		np.n.NICDrain = np.coal.FlushAll
		np.n.NICBurst = np.coal.Burst
		np.n.NICFlushTo = np.coal.FlushDst
	}
}

// hCoalesced scatters a carrier: each contained segment dispatches to
// its original handler with its original per-message state-transition
// cost — only the per-message wire header, receive overhead, and
// dispatch are shared. A synthesized per-segment message view keeps
// the handler bodies unchanged; it lives on the stack and is never
// recycled (only the carrier itself is pool-owned).
func (np *nodeProto) hCoalesced(hc *tempest.HContext, m *network.Message) {
	t := np.n.Trace
	var sm network.Message
	network.ForEachSegment(m.Data, int(m.Arg), func(kind network.Kind, addr int, arg, arg2 int64, payload []byte) {
		sm = network.Message{
			Src: m.Src, Dst: m.Dst, Kind: kind, Addr: addr, Arg: arg, Arg2: arg2,
			Data: payload, Size: network.SegHeader + len(payload),
		}
		if t != nil {
			// Scatter fan-out: the carrier's wire flow was already
			// terminated at handler invoke; one instant per contained
			// segment shows every run the transmission carried.
			now := np.n.Env.Now()
			t.Instant(np.id, trace.LaneProto, "seg:"+MsgKindName(kind), "seg", now,
				trace.Int("src", m.Src), trace.Int("addr", addr), trace.Int("bytes", sm.Size))
		}
		np.dispatchSeg(hc, &sm)
	})
}

// dispatchSeg routes one carrier segment to its handler. Only
// latency-tolerant kinds ever ride a carrier; anything else is a
// protocol bug.
func (np *nodeProto) dispatchSeg(hc *tempest.HContext, sm *network.Message) {
	switch sm.Kind {
	case KCCData, KCCFlush:
		np.hCC(hc, sm)
	case KCCFlushDir:
		np.hCCFlushDir(hc, sm)
	case KMkWritableData:
		np.hMkWritableData(hc, sm)
	case KMkWritableAck:
		np.hMkWritableAck(hc, sm)
	case KUpgradeReq, KWriteReq:
		np.hDirReq(hc, sm)
	case KWriteGrant:
		np.hWriteGrant(hc, sm)
	case KInval:
		np.hInval(hc, sm)
	case KInvalAck:
		np.hInvalAck(hc, sm)
	default:
		panic(fmt.Sprintf("protocol: kind %d cannot travel as a carrier segment", sm.Kind))
	}
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
		for i := e.writers.next(0); i >= 0; i = e.writers.next(i + 1) {
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

// ctrl sends a payload-free control message from the protocol engine
// (charging SendOver; it departs when the engine's queued work is done).
func (np *nodeProto) ctrl(dst int, kind network.Kind, addr int, arg, arg2 int64) {
	m := np.n.Net.NewMessage(np.id)
	m.Dst, m.Kind, m.Addr, m.Arg, m.Arg2, m.Size = dst, kind, addr, arg, arg2, ctrlSize
	np.n.SendFromProto(m)
}

// sendBlock ships this node's copy of block b in a message of its own.
func (np *nodeProto) sendBlock(dst int, kind network.Kind, b int, arg, arg2 int64) {
	m := np.n.Net.NewMessage(np.id)
	m.Dst, m.Kind, m.Addr, m.Arg, m.Arg2 = dst, kind, b, arg, arg2
	m.Data, m.DataPooled = np.n.Net.AllocBlock(np.id), true
	copy(m.Data, np.n.Mem.BlockData(b))
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
	switch {
	case np.coal != nil:
		var payload []byte
		if withData {
			payload = np.n.Mem.BlockData(b)
		}
		np.occupy(np.n.MC.TagChange)
		np.coal.Append(dst, kind, b, 0, 0, payload, true)
	case withData:
		np.sendBlock(dst, kind, b, 0, 0)
	default:
		np.ctrl(dst, kind, b, 0, 0)
	}
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
	if np.coal != nil {
		p.Sleep(d + np.n.MC.TagChange)
		np.coal.Append(dst, kind, addr, arg, arg2, nil, timer)
		return
	}
	p.Sleep(d + np.n.MC.SendOver)
	np.request(dst, kind, addr, arg, arg2)
}

// blockingMiss sends the home a request the compute process then waits
// on: sig fires when the reply has been installed.
func (np *nodeProto) blockingMiss(p *sim.Proc, d sim.Time, home int, kind network.Kind, b int, sig *sim.Signal) {
	p.Sleep(d + np.n.MC.SendOver)
	if np.fill != nil {
		panic(fmt.Sprintf("protocol: node %d has two blocking misses, on blocks %d and %d", np.id, np.fillBlock, b))
	}
	np.fill, np.fillBlock = sig, b
	np.request(home, kind, b, 0, 0)
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
			sig := sim.NewSignal()
			if home == np.id {
				p.Sleep(d)
				//simlint:ignore hotalloc -- one transaction descriptor (and completion closure) per SC write miss; its lifetime spans the directory round-trip, and the miss itself costs microseconds of simulated time
				np.enqueue(&dirReq{kind: kind, block: b, src: np.id, local: func() {
					n.Mem.SetTag(b, memory.ReadWrite)
					np.flags[b] |= flagSCHold
					sig.Fire()
				}})
			} else {
				np.blockingMiss(p, d, home, kind, b, sig)
			}
			sig.Wait(p)
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
		//simlint:ignore hotalloc -- one descriptor per home-local write miss; pooled reuse would have to survive crash teardown (PR 6) for no measurable win at the miss rate the bench gates
		np.enqueue(&dirReq{kind: kind, block: b, src: np.id, local: func() {
			n.DonePending()
		}})
		return
	}

	sig := sim.NewSignal()
	if home == np.id {
		p.Sleep(d)
		//simlint:ignore hotalloc -- one descriptor per home-local read miss, same trade as the write-miss descriptors above
		np.enqueue(&dirReq{kind: KReadReq, block: b, src: np.id, local: func() { sig.Fire() }})
	} else {
		np.blockingMiss(p, d, home, KReadReq, b, sig)
	}
	sig.Wait(p)
}

// --- Requester-side response handlers --------------------------------

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
func (np *nodeProto) resume(b int) {
	np.n.Env.Schedule(np.n.ProtoBusyUntil(), func() { np.fillDone(b) })
}

// grantSC completes a sequentially consistent store's stall: the block
// is writable and held until the blocked store has retired.
func (np *nodeProto) grantSC(b int) {
	np.n.Mem.SetTag(b, memory.ReadWrite)
	np.flags[b] |= flagSCHold
	np.resume(b)
}

func (np *nodeProto) hReadResp(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	if h := np.heat(); h != nil {
		h.AddBytes(b, m.Size)
	}
	np.occupy(np.n.MC.BlockCopy + 2*np.n.MC.TagChange)
	np.n.Mem.InstallBlock(b, m.Data)
	np.n.Mem.SetTag(b, memory.ReadOnly)
	np.n.Mem.ClearDirty(b)
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
	np.sendBlock(home, KPutDataResp, b, int64(mask), keeps)
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
// yet retired.
func (np *nodeProto) deferMsg(m *network.Message, h func(*tempest.HContext, *network.Message)) {
	m.Retain() // the message outlives this delivery
	np.later(func() { h(&tempest.HContext{Node: np.n}, m) })
}

// --- Home-side handlers ----------------------------------------------

// hDirReq: a remote read, write or upgrade request for a block homed
// here becomes a directory transaction of the message's kind.
func (np *nodeProto) hDirReq(hc *tempest.HContext, m *network.Message) {
	np.occupy(np.n.MC.HandlerCost)
	np.enqueue(&dirReq{kind: m.Kind, block: m.Addr, src: m.Src})
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
