// Package tempest models the Tempest substrate's node: a compute
// processor running the application, a protocol engine executing
// user-level active-message handlers, fine-grain access faults, and the
// cluster-wide synchronization primitives (barriers and reductions)
// built from low-level messages.
//
// CPU model. Each node has one compute processor. Protocol handlers run
// either on a dedicated second processor (DualCPU) or steal cycles from
// the compute processor (SingleCPU). The compute process accumulates
// simulated work locally (Compute) and synchronizes with the event
// queue only at blocking points — faults, protocol calls, barriers —
// which keeps the event count proportional to communication, not to
// floating-point operations.
package tempest

import (
	"fmt"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/trace"
)

// Message kinds reserved by the tempest layer for synchronization.
// Coherence protocols use kinds below 200.
const (
	KindBarrierArrive network.Kind = 200 + iota
	KindBarrierRelease
	KindReduceContrib
	KindReduceResult
	KindTreeBarrierUp
	KindTreeBarrierDown
	KindTreeReduceUp
	KindTreeReduceDown
)

// HContext is passed to active-message handlers. Handlers perform their
// state transitions immediately and account CPU cost through the
// context; the node's protocol engine stays busy for the total cost.
type HContext struct {
	Node *Node
	cost sim.Time
}

// AddCost charges d of protocol-engine time to this handler execution.
func (c *HContext) AddCost(d sim.Time) { c.cost += d }

// Send transmits a message from this handler, charging SendOver.
func (c *HContext) Send(m *network.Message) {
	c.cost += c.Node.MC.SendOver
	m.Src = c.Node.ID
	c.Node.Net.Send(m)
}

// Handler is a user-level active-message handler.
type Handler func(c *HContext, m *network.Message)

// FaultFn resolves an access fault for the compute process; it must
// block p until the access can be retried successfully. Installed by
// the coherence protocol.
type FaultFn func(p *sim.Proc, addr int, write bool)

// Node is one cluster node.
type Node struct {
	ID  int
	Env *sim.Env
	Net *network.Network
	Mem *memory.NodeMem
	MC  config.Machine
	St  *stats.Node

	// Trace, when non-nil, records handler spans, miss stalls, and
	// barrier regions for this node. Installed by Cluster.SetTracer;
	// every use is nil-guarded so the disabled path costs one branch.
	Trace *trace.Tracer

	Fault FaultFn

	// NICDrain, when non-nil, flushes this node's NIC-level coalescing
	// scheduler (all open gather buffers). Installed by the protocol
	// layer when message aggregation is enabled; invoked on every
	// synchronization entry — the barrier forces a flush, so buffered
	// traffic never outlives its epoch.
	NICDrain func()

	// NICBurst, when non-nil, brackets each protocol-handler run
	// (begin=true before, begin=false after). The coalescing scheduler
	// uses it to drain, at the end of the handler, exactly the buffers
	// the handler appended to: engine-composed reply bursts depart as
	// one carrier without waiting out the drain timer.
	NICBurst func(begin bool)

	// NICFlushTo, when non-nil, flushes this node's open gather buffer
	// for one destination. SendFromProto invokes it before reserving a
	// direct message's departure slot: buffered segments bound for the
	// same destination must take their engine slots first, or a reply
	// composed later could overtake them on the wire (a write grant
	// parked in a gather buffer overtaken by the next transaction's
	// invalidation leaves the grantee a writer the directory already
	// retired).
	NICFlushTo func(dst int)

	// handlers is indexed directly by message kind: a dispatch per
	// message must not pay for hashing.
	handlers [256]Handler

	// hfree recycles handler-invocation records (receive schedules one
	// event per message; the record carries the message, the reserved
	// start time, and the handler context without a per-message closure
	// or context allocation).
	hfree []*hinvoke

	protoFree sim.Time // protocol engine next-free time
	stolen    sim.Time // handler time not yet charged to compute (SingleCPU)
	acc       sim.Time // accumulated un-synced compute time

	pending    int // outstanding non-blocking transactions (e.g. upgrades)
	pendingSig *sim.Signal
	pendSig    sim.Signal // the reusable signal pendingSig points at

	hq int // handler invocations queued on the engine but not yet run

	parked       *sim.Signal // compute process parked at a barrier/reduction
	parkSig      sim.Signal  // the reusable signal parked points at
	reduceResult float64     // result delivered by KindReduceResult

	// Whom this node gathers collectives from and the round it is
	// gathering: every other node at the flat master, its combining-tree
	// children on the tree (whose up-messages go to treeParent). Per-node
	// so the PDES single-writer discipline holds at any depth.
	treeParent int
	children   []int
	round      round

	proc *sim.Proc // the node's compute process, set by SetProc

	// engine is the protocol engine's queue: the handler runs receive
	// has accepted, issued in protoFree order. Last, so its inline ring
	// does not spread the fields above over more cache lines.
	engine sim.Lane
}

// SetProc binds the node's compute process.
func (n *Node) SetProc(p *sim.Proc) { n.proc = p }

// Proc returns the node's compute process.
func (n *Node) Proc() *sim.Proc { return n.proc }

// On registers the handler for a message kind.
func (n *Node) On(k network.Kind, h Handler) {
	if n.handlers[k] != nil {
		panic(fmt.Sprintf("tempest: duplicate handler for kind %d on node %d", k, n.ID))
	}
	n.handlers[k] = h
}

// hinvoke is one queued handler execution. Records are recycled
// through Node.hfree so the steady-state receive path allocates
// nothing.
type hinvoke struct {
	n     *Node
	m     *network.Message
	start sim.Time
	ctx   HContext
}

// hinvokeEvent is the shared event function for handler runs.
var hinvokeEvent = func(a any) { a.(*hinvoke).run() }

// receive is the network endpoint: it queues the message on the
// protocol engine and runs the registered handler with RecvOver plus
// the handler's own cost.
func (n *Node) receive(m *network.Message) {
	start := n.Env.Now()
	if n.protoFree > start {
		start = n.protoFree
	}
	// Reserve a minimal slot now; the real cost is known after the
	// handler body runs at start.
	n.protoFree = start + n.MC.RecvOver
	var hv *hinvoke
	if k := len(n.hfree); k > 0 {
		hv = n.hfree[k-1]
		n.hfree = n.hfree[:k-1]
	} else {
		hv = &hinvoke{n: n}
	}
	hv.m = m
	hv.start = start
	n.hq++
	n.engine.Schedule(start, hinvokeEvent, hv)
}

// HandlersQueued returns the number of handler invocations accepted by
// the endpoint but not yet run (scheduled on the engine). Zero is part
// of the cluster quiescence predicate checkpoints rely on.
func (n *Node) HandlersQueued() int { return n.hq }

func (hv *hinvoke) run() {
	n := hv.n
	m := hv.m
	n.hq--
	if n.Net.Dead(n.ID) {
		// The node crashed between the endpoint accepting the message
		// and the engine slot coming free: the handler never runs.
		n.Net.Recycle(m)
		hv.m = nil
		n.hfree = append(n.hfree, hv)
		return
	}
	h := n.handlers[m.Kind]
	if h == nil {
		panic(fmt.Sprintf("tempest: node %d has no handler for kind %d", n.ID, m.Kind))
	}
	// Capture trace identity before the handler runs: Recycle zeroes
	// the message, and a Retained message may be mutated for reuse.
	var kind network.Kind
	var flow uint64
	var src, addr int
	if n.Trace != nil {
		kind, flow, src, addr = m.Kind, m.Flow(), m.Src, m.Addr
	}
	hv.ctx = HContext{Node: n}
	c := &hv.ctx
	if n.NICBurst != nil {
		n.NICBurst(true)
	}
	h(c, m)
	// The engine stays busy for the receive overhead plus the
	// handler's declared cost (the body may also have extended
	// protoFree directly via OccupyProto).
	base := hv.start + n.MC.RecvOver
	if n.protoFree < base {
		n.protoFree = base
	}
	n.protoFree += c.cost
	if n.MC.CPUMode == config.SingleCPU {
		n.stolen += n.MC.RecvOver + c.cost
		n.St.StolenTime += n.MC.RecvOver + c.cost
	}
	if t := n.Trace; t != nil {
		t.Span(n.ID, trace.LaneProto, "h:"+t.MsgName(uint8(kind)), "handler",
			hv.start, n.protoFree, trace.Int("src", src), trace.Int("addr", addr))
		if flow != 0 {
			t.FlowEnd(n.ID, trace.LaneProto, flow, hv.start)
		}
	}
	if n.NICBurst != nil {
		// Replies the handler deposited in the coalescing buffers depart
		// now, after the engine occupancy they conclude — a burst of
		// same-destination replies leaves as one carrier with no timer
		// latency.
		n.NICBurst(false)
	}
	// The handler is done with the message unless it Retained it.
	n.Net.Recycle(m)
	hv.m = nil
	n.hfree = append(n.hfree, hv)
}

// SendFromCompute transmits a message from the compute processor,
// charging SendOver to compute time.
func (n *Node) SendFromCompute(m *network.Message) {
	m.Src = n.ID
	n.Compute(n.MC.SendOver)
	n.Net.Send(m)
}

// ProtoBusyUntil returns when the protocol engine frees up (used by the
// protocol layer to model occupancy for locally initiated actions).
func (n *Node) ProtoBusyUntil() sim.Time { return n.protoFree }

// SendFromProto transmits a message from the protocol engine: it
// charges SendOver and the message departs when the engine's queued
// work (including this send) completes — replies leave after the
// handler processing they conclude, preserving per-destination order.
func (n *Node) SendFromProto(m *network.Message) {
	m.Src = n.ID
	if n.NICFlushTo != nil && m.Dst != n.ID {
		// Departure slots are taken at compose time: drain segments
		// already buffered for this destination so they keep their
		// earlier slots. Re-entrancy is safe — the flush empties the
		// buffer before injecting, so the nested call is a no-op.
		n.NICFlushTo(m.Dst)
	}
	n.OccupyProto(n.MC.SendOver)
	depart := n.protoFree
	if depart <= n.Env.Now() {
		n.Net.Send(m)
		return
	}
	n.Net.SendAt(depart, m)
}

// OccupyProto keeps the protocol engine busy for d more time.
func (n *Node) OccupyProto(d sim.Time) {
	start := n.Env.Now()
	if n.protoFree > start {
		start = n.protoFree
	}
	n.protoFree = start + d
	if n.MC.CPUMode == config.SingleCPU {
		n.stolen += d
		n.St.StolenTime += d
	}
}

// StealCompute charges d to the compute processor regardless of CPU
// mode (used by runtimes whose receive processing runs on the compute
// processor, like the ported PGI message-passing layer).
func (n *Node) StealCompute(d sim.Time) {
	n.stolen += d
	n.St.StolenTime += d
}

// --- Compute-side time accounting -----------------------------------

// Compute accumulates d of application work on the compute processor.
// Cheap: no event-queue interaction until Sync.
func (n *Node) Compute(d sim.Time) { n.acc += d }

// Sync advances virtual time by all accumulated compute work plus any
// time stolen by handlers. Must be called from the node's compute
// process before any blocking operation.
func (n *Node) Sync(p *sim.Proc) {
	d := n.acc + n.stolen
	n.St.ComputeTime += n.acc
	n.acc = 0
	n.stolen = 0
	if d > 0 {
		p.Sleep(d)
	}
}

// --- Pending-transaction tracking (release consistency) -------------

// AddPending records a non-blocking transaction in flight.
func (n *Node) AddPending() { n.pending++ }

// DonePending completes one in-flight transaction.
func (n *Node) DonePending() {
	n.pending--
	if n.pending < 0 {
		panic("tempest: pending transaction count went negative")
	}
	if n.pending == 0 && n.pendingSig != nil {
		s := n.pendingSig
		n.pendingSig = nil
		s.Fire()
	}
}

// Pending returns the number of in-flight transactions.
func (n *Node) Pending() int { return n.pending }

// WaitPending blocks until all in-flight transactions complete. Called
// at synchronization points per the release-consistency model. Any
// traffic still buffered in the coalescing scheduler drains first:
// buffered upgrade requests are themselves pending transactions, and
// their grants cannot arrive while the requests sit in a gather buffer.
func (n *Node) WaitPending(p *sim.Proc) {
	if n.NICDrain != nil {
		n.NICDrain()
	}
	n.Sync(p)
	if n.pending == 0 {
		return
	}
	if n.pendingSig == nil {
		n.pendSig.Reset()
		n.pendingSig = &n.pendSig
	}
	start := p.Now()
	n.pendingSig.Wait(p)
	n.St.CommTime += p.Now() - start
}

// --- Memory access with fine-grain checks ---------------------------

// LoadF64 performs a checked shared-memory load, invoking the fault
// handler (and charging the stall to communication) on an invalid block.
func (n *Node) LoadF64(p *sim.Proc, addr int) float64 {
	if !n.Mem.CheckLoad(addr) {
		n.St.ReadMisses++
		n.fault(p, addr, false, "read")
	}
	return n.Mem.ReadF64(addr)
}

// StoreF64 performs a checked shared-memory store.
func (n *Node) StoreF64(p *sim.Proc, addr int, v float64) {
	if !n.Mem.CheckStore(addr) {
		kind := "write"
		if n.Mem.Tag(n.Mem.Space().Block(addr)) == memory.ReadOnly {
			n.St.UpgradeMisses++
			kind = "upgrade"
		} else {
			n.St.WriteMisses++
		}
		n.fault(p, addr, true, kind)
	}
	n.Mem.WriteF64(addr, v)
}

func (n *Node) fault(p *sim.Proc, addr int, write bool, kind string) {
	if n.Fault == nil {
		panic(fmt.Sprintf("tempest: node %d access fault at %#x with no protocol installed", n.ID, addr))
	}
	n.Sync(p)
	start := p.Now()
	// Access rights can be snatched between the grant and the retried
	// access (e.g. an invalidation racing a write grant); like real
	// fine-grain systems, the access simply faults again. Bound the
	// retries to catch protocol livelock in tests.
	for try := 0; ; try++ {
		n.Fault(p, addr, write)
		if write && n.Mem.CheckStore(addr) || !write && n.Mem.CheckLoad(addr) {
			break
		}
		if try == 64 {
			panic(fmt.Sprintf("tempest: node %d livelocked faulting on %v of %#x (tag %v)",
				n.ID, accessName(write), addr, n.Mem.Tag(n.Mem.Space().Block(addr))))
		}
	}
	stall := p.Now() - start
	n.St.CommTime += stall
	n.St.RecordMissLatency(stall)
	if n.Trace != nil {
		n.Trace.MissSpan(n.ID, n.Mem.Space().Block(addr), addr, kind, start, p.Now())
	}
}

func accessName(write bool) string {
	if write {
		return "store"
	}
	return "load"
}

// --- Cluster ---------------------------------------------------------

// Cluster assembles the environment, network, and nodes of one
// simulated machine.
type Cluster struct {
	Env   *sim.Env
	MC    config.Machine
	Space *memory.Space
	Net   *network.Network
	Nodes []*Node
	Stats *stats.Cluster

	// TimerStart is the measured region's start (set by the runtime's
	// StartTimer statement; zero if the whole run is measured).
	TimerStart sim.Time

	// BarrierCheck, if non-nil, runs at the instant the last node
	// arrives at each barrier or reduction, before any release is sent —
	// a globally synchronized point where coherence invariants can be
	// audited. The first failure is retained (CheckErr) and does not
	// stop the run.
	BarrierCheck func() error

	// OnEpoch, if non-nil, runs at every all-arrived instant after the
	// epoch counter advances and the coherence audit runs, still before
	// any release departs. The recovery layer hooks it to capture
	// barrier-consistent checkpoints and to fire epoch-triggered
	// crash injections.
	OnEpoch func(epoch int64)

	// ReduceJournal accumulates every completed reduction's combined
	// result in generation order. On recovery the journal from the
	// checkpoint epoch replays results to ghost-forwarded processes
	// without re-running the arithmetic.
	ReduceJournal []float64

	checkErr  error
	checksRun int64
	epoch     int64
	reduceGen int64 // completed reductions
}

// Epoch returns the number of completed synchronization epochs
// (barriers and reductions that reached their all-arrived instant).
func (c *Cluster) Epoch() int64 { return c.epoch }

// ReduceGen returns the number of completed reduction generations.
func (c *Cluster) ReduceGen() int64 { return c.reduceGen }

// RestoreEpoch rebases the epoch counter, reduction generation, and
// reduce journal from a checkpoint (recovery only; the cluster must be
// idle).
func (c *Cluster) RestoreEpoch(epoch, reduceGen int64, journal []float64) {
	c.epoch = epoch
	c.reduceGen = reduceGen
	c.ReduceJournal = append(c.ReduceJournal[:0], journal...)
}

// CheckErr returns the first barrier-check failure, or nil.
func (c *Cluster) CheckErr() error { return c.checkErr }

// BarrierChecks returns how many barrier-instant audits ran.
func (c *Cluster) BarrierChecks() int64 { return c.checksRun }

// runBarrierCheck advances the epoch and audits the cluster at an
// all-arrived instant (all live nodes present, no release sent yet).
func (c *Cluster) runBarrierCheck() {
	c.epoch++
	if c.BarrierCheck != nil {
		c.checksRun++
		if err := c.BarrierCheck(); err != nil && c.checkErr == nil {
			c.checkErr = fmt.Errorf("coherence check at sync point %d (t=%dns): %w", c.checksRun, c.Env.Now(), err)
		}
	}
	if c.OnEpoch != nil {
		c.OnEpoch(c.epoch)
	}
}

// Crash injects a crash-stop failure of node id at the current instant:
// the node's compute process dies wherever it stands, its NIC gather
// buffers are discarded (no posthumous carriers), and the network stops
// carrying traffic to or from it. Survivors learn of the death only
// through the failure detector.
func (c *Cluster) Crash(id int) {
	c.Net.MarkDead(id)
	if co := c.Net.CoalescerOf(id); co != nil {
		co.Teardown()
	}
	if p := c.Nodes[id].proc; p != nil {
		c.Env.CrashProc(p)
	}
}

// NewCluster builds a cluster over an already-laid-out address space.
func NewCluster(env *sim.Env, sp *memory.Space) *Cluster {
	mc := sp.Machine()
	st := stats.New(mc.Nodes)
	net := network.New(env, mc, st)
	c := &Cluster{Env: env, MC: mc, Space: sp, Net: net, Stats: st}
	c.assemble(func(int) *sim.Env { return env })
	return c
}

// NewPartitionedCluster builds a cluster in conservative-PDES mode:
// envs[i] is node i's partition environment and post the network's
// cross-partition mailbox hook (see network.NewPartitioned). Each
// node's handlers, timers, and compute process live entirely on its
// own Env; Cluster.Env is node 0's — the home of the barrier and
// reduction master state, which only node 0's handlers mutate.
func NewPartitionedCluster(envs []*sim.Env, sp *memory.Space, post network.PostFn) *Cluster {
	mc := sp.Machine()
	st := stats.New(mc.Nodes)
	net := network.NewPartitioned(envs, post, mc, st)
	c := &Cluster{Env: envs[0], MC: mc, Space: sp, Net: net, Stats: st}
	c.assemble(func(i int) *sim.Env { return envs[i] })
	return c
}

// NewShardedCluster builds a partitioned cluster together with the
// window scheduler that runs it: parts partition environments with
// their clocks at startAt, the nodes split among them in contiguous
// runs (node i in partition i*parts/N), cross-partition sends routed
// through the scheduler's mailbox. The lookahead is the machine's
// minimum message latency: header serialization plus the wire latency,
// the floor of any cross-node delivery delay.
func NewShardedCluster(sp *memory.Space, parts int, startAt sim.Time) (*Cluster, *sim.Shards) {
	mc := sp.Machine()
	penvs := make([]*sim.Env, parts)
	for i := range penvs {
		penvs[i] = sim.NewEnvAt(startAt)
	}
	part := make([]int, mc.Nodes)
	nodeEnvs := make([]*sim.Env, mc.Nodes)
	for i := range part {
		part[i] = i * parts / mc.Nodes
		nodeEnvs[i] = penvs[part[i]]
	}
	shards := sim.NewShards(penvs, mc.MsgTime(0))
	post := func(src, dst int, sent, arrival sim.Time, seq uint32, fn func(any), arg any) {
		shards.Post(part[src], part[dst], arrival, sent, src, seq, fn, arg)
	}
	return NewPartitionedCluster(nodeEnvs, sp, post), shards
}

// assemble builds and binds the per-node state; envOf maps a node id
// to the Env its events run on.
func (c *Cluster) assemble(envOf func(int) *sim.Env) {
	for i := 0; i < c.MC.Nodes; i++ {
		n := &Node{
			ID:  i,
			Env: envOf(i),
			Net: c.Net,
			Mem: memory.NewNodeMem(c.Space, i),
			MC:  c.MC,
			St:  &c.Stats.Nodes[i],
		}
		n.engine.Bind(n.Env)
		c.Net.Bind(i, n.receive)
		c.Nodes = append(c.Nodes, n)
	}
	c.installSync()
}

// SetTracer installs the causal event tracer on the cluster: the
// network records wire spans and flow links, every node records handler
// and miss spans. Must be called before the simulation starts; nil
// disables tracing (the default).
func (c *Cluster) SetTracer(t *trace.Tracer) {
	c.Net.SetTracer(t)
	for _, n := range c.Nodes {
		n.Trace = t
	}
}
