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
	"slices"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/topo"
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

func init() {
	network.NameKinds([]string{
		KindBarrierArrive:   "barrier_arrive",
		KindBarrierRelease:  "barrier_release",
		KindReduceContrib:   "reduce_contrib",
		KindReduceResult:    "reduce_result",
		KindTreeBarrierUp:   "tree_barrier_up",
		KindTreeBarrierDown: "tree_barrier_down",
		KindTreeReduceUp:    "tree_reduce_up",
		KindTreeReduceDown:  "tree_reduce_down",
	})
}

// HContext is passed to active-message handlers. Handlers perform their
// state transitions immediately and account CPU cost through the
// context; the node's protocol engine stays busy for the total cost.
// The context is the node's, reset for each handler run: a handler must
// not keep it past its return.
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

	// handlers is indexed directly by message kind: a dispatch per
	// message must not pay for hashing.
	handlers [256]Handler

	// handleFn is handle bound to this node, made once with the cluster:
	// receive schedules the message itself with it, so a handler run
	// allocates nothing. hc is the context of the run in progress.
	handleFn func(any)
	hc       HContext

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

// receive is the network endpoint: it queues the message on the
// protocol engine, where handle runs the registered handler with
// RecvOver plus the handler's own cost.
//
//simlint:hotpath
func (n *Node) receive(m *network.Message) {
	start := max(n.Env.Now(), n.protoFree)
	// Reserve a minimal slot now; the real cost is known after the
	// handler body runs at start.
	n.protoFree = start + n.MC.RecvOver
	n.hq++
	n.engine.Schedule(start, n.handleFn, m)
}

// HandlersQueued returns the number of handler invocations accepted by
// the endpoint but not yet run (scheduled on the engine). Zero is part
// of the cluster quiescence predicate checkpoints rely on.
func (n *Node) HandlersQueued() int { return n.hq }

// handle runs one message's handler at the engine slot receive
// reserved for it, which is the current instant.
//
//simlint:hotpath
func (n *Node) handle(a any) {
	m := a.(*network.Message)
	start := n.Env.Now()
	n.hq--
	if n.Net.Dead(n.ID) {
		// The node crashed between the endpoint accepting the message
		// and the engine slot coming free: the handler never runs.
		n.Net.Recycle(m)
		return
	}
	h := n.handlers[m.Kind]
	if h == nil {
		panic(fmt.Sprintf("tempest: node %d has no handler for kind %d", n.ID, m.Kind))
	}
	// Capture trace identity before the handler runs: a recycled
	// message may be handed out again, and a Retained one mutated for
	// reuse.
	var kind network.Kind
	var flow uint64
	var src, addr int
	if n.Trace != nil {
		kind, flow, src, addr = m.Kind, m.Flow(), m.Src, m.Addr
	}
	n.hc = HContext{Node: n}
	c := &n.hc
	// With aggregation on, the node's coalescer brackets the handler
	// run: at its end it drains exactly the buffers the handler
	// appended to, so engine-composed reply bursts depart as one
	// carrier without waiting out the drain timer.
	co := n.Net.CoalescerOf(n.ID)
	if co != nil {
		co.Burst(true)
	}
	h(c, m)
	// The engine stays busy for the receive overhead plus the
	// handler's declared cost (the body may also have extended
	// protoFree directly via OccupyProto).
	base := start + n.MC.RecvOver
	if n.protoFree < base {
		n.protoFree = base
	}
	n.protoFree += c.cost
	if n.MC.CPUMode == config.SingleCPU {
		n.stolen += n.MC.RecvOver + c.cost
		n.St.StolenTime += n.MC.RecvOver + c.cost
	}
	if t := n.Trace; t != nil {
		t.Span(n.ID, trace.LaneProto, "h:"+network.KindName(kind), "handler",
			start, n.protoFree, trace.Int("src", src), trace.Int("addr", addr))
		if flow != 0 {
			t.FlowEnd(n.ID, trace.LaneProto, flow, start)
		}
	}
	if co != nil {
		// Replies the handler deposited in the coalescing buffers depart
		// now, after the engine occupancy they conclude — a burst of
		// same-destination replies leaves as one carrier with no timer
		// latency.
		co.Burst(false)
	}
	// The handler is done with the message; a holder that Retained it
	// keeps its own reference.
	n.Net.Recycle(m)
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
	if co := n.Net.CoalescerOf(n.ID); co != nil && m.Dst != n.ID {
		// Departure slots are taken at compose time: drain segments
		// already buffered for this destination so they keep their
		// earlier slots, or a reply composed later could overtake them
		// on the wire (a write grant parked in a gather buffer
		// overtaken by the next transaction's invalidation leaves the
		// grantee a writer the directory already retired). Re-entrancy
		// is safe — the flush empties the buffer before injecting, so
		// the nested call is a no-op.
		co.FlushDst(m.Dst)
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

// Unsynced returns the compute work and stolen time the next Sync will
// charge. An observer reads them instead of syncing early: a split Sync
// charges time stolen during its sleep later, and so moves the run.
func (n *Node) Unsynced() (work, stolen sim.Time) { return n.acc, n.stolen }

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
// traffic still buffered in the node's coalescer drains first, so
// buffered traffic never outlives its epoch: buffered upgrade requests
// are themselves pending transactions, and their grants cannot arrive
// while the requests sit in a gather buffer.
func (n *Node) WaitPending(p *sim.Proc) {
	if co := n.Net.CoalescerOf(n.ID); co != nil {
		co.FlushAll()
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

	// Tree is the combining tree under the tree topology, nil under the
	// paper's flat one. The collectives gather along it, and the
	// coherence protocol routes sharer invalidations through its
	// clusters.
	Tree *topo.Tree

	// TimerStart is the measured region's start (set by the runtime's
	// StartTimer statement; zero if the whole run is measured).
	TimerStart sim.Time

	// AtBarrier runs, in order, at every all-arrived instant: every live
	// node has entered the barrier or reduction, the epoch counter has
	// advanced to the epoch each hook is handed, a reduction's result is
	// already in ReduceJournal, and no release has departed. It is the
	// one point where the whole machine's state is consistent, so the
	// coherence audit, checkpoint capture and epoch-triggered crash
	// injection all join it here.
	AtBarrier []func(epoch int64)

	// ReduceJournal accumulates every completed reduction's combined
	// result in generation order. On recovery the journal from the
	// checkpoint epoch replays results to ghost-forwarded processes
	// without re-running the arithmetic.
	ReduceJournal []float64

	epoch     int64
	reduceGen int64 // completed reductions

	engine runner // Env, or the window scheduler over the partitions
}

// runner is what drives a cluster's events: a *sim.Env or a
// *sim.Shards.
type runner interface {
	Run() error
	Shutdown()
	Now() sim.Time
	SetWatchdog(horizon sim.Time, dump func() string)
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

// Run drives the cluster to completion on the engine it was built with
// — its one Env, or the window scheduler over its partitions — and
// shuts that engine down before returning, whatever the outcome: no
// compute process is left parked. The network's free lists then go to
// the next network made (network.ReleasePools), so a cluster runs
// once. The error is the engine's: an Abort value, a deadlock, or the
// stall watchdog's diagnostic.
func (c *Cluster) Run() error {
	err := c.engine.Run()
	c.engine.Shutdown()
	c.Net.ReleasePools()
	return err
}

// Now returns the cluster's clock: after Run, the instant the last
// event of the whole machine ran.
func (c *Cluster) Now() sim.Time { return c.engine.Now() }

// SetWatchdog arms the engine's stall watchdog with horizon (0 leaves
// it disarmed) and hands it dump, every node's state, for its stall and
// deadlock errors: a deadlock carries every node's state on any engine.
func (c *Cluster) SetWatchdog(horizon sim.Time, dump func() string) {
	c.engine.SetWatchdog(horizon, dump)
}

// PDESCensus returns, after Run, the window scheduler's window
// executions summed over partitions and the barrier releases it paid;
// both are zero on one Env.
func (c *Cluster) PDESCensus() (windows, handoffs uint64) {
	if s, ok := c.engine.(*sim.Shards); ok {
		return s.Windows(), s.Handoffs()
	}
	return 0, 0
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

// Release gives every node's memory image back at once (NodeMem.Release)
// instead of when the cluster becomes unreachable. The cluster's memory
// must not be read again: the recovery layer calls it on an attempt it
// has aborted and torn down.
func (c *Cluster) Release() {
	for _, n := range c.Nodes {
		n.Mem.Release()
	}
}

// NewCluster builds a cluster over an already-laid-out address space,
// every node on env.
func NewCluster(env *sim.Env, sp *memory.Space) *Cluster {
	return newCluster(slices.Repeat([]*sim.Env{env}, sp.Machine().Nodes), sp, nil, env)
}

// newCluster builds a cluster whose node i runs on envs[i], all of them
// driven by engine; post is the network's cross-partition mailbox hook
// (see network.NewPartitioned). Each node's handlers, timers, and
// compute process live entirely on its own Env; Cluster.Env is node
// 0's — the home of the barrier and reduction master state, which only
// node 0's handlers mutate.
func newCluster(envs []*sim.Env, sp *memory.Space, post network.PostFn, engine runner) *Cluster {
	mc := sp.Machine()
	st := stats.New(mc.Nodes)
	net := network.NewPartitioned(envs, post, mc, st)
	c := &Cluster{Env: envs[0], MC: mc, Space: sp, Net: net, Stats: st, engine: engine}
	if mc.Topology == config.TreeTopo {
		t := topo.MustNew(mc.Nodes, mc.EffectiveRadix())
		c.Tree = &t
	}
	for i, env := range envs {
		n := &Node{
			ID:  i,
			Env: env,
			Net: net,
			Mem: memory.NewNodeMem(sp, i),
			MC:  mc,
			St:  &st.Nodes[i],
		}
		n.handleFn = n.handle
		n.engine.Bind(env)
		net.Bind(i, n.receive)
		c.Nodes = append(c.Nodes, n)
	}
	c.installSync()
	return c
}

// NewShardedCluster builds a cluster on parts, clamped to [1, N],
// partition environments with their clocks at startAt. With more than
// one, the nodes split among them in contiguous runs (node i in
// partition i*parts/N), cross-partition sends route through the window
// scheduler's mailbox, and Run drives that scheduler; its lookahead is
// the machine's minimum message latency: header serialization plus the
// wire latency, the floor of any cross-node delivery delay.
func NewShardedCluster(sp *memory.Space, parts int, startAt sim.Time) *Cluster {
	mc := sp.Machine()
	parts = min(max(parts, 1), mc.Nodes)
	penvs := make([]*sim.Env, parts)
	for i := range penvs {
		penvs[i] = sim.NewEnvAt(startAt)
	}
	if parts == 1 {
		return NewCluster(penvs[0], sp)
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
	return newCluster(nodeEnvs, sp, post, shards)
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
