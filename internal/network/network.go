// Package network simulates the cluster interconnect (Myrinet in the
// paper): point-to-point messages with a fixed one-way wire latency plus
// per-byte serialization time on the sender's link. Messages between the
// same pair of nodes are delivered in order; serialization occupancy on
// the sending link naturally pipelines back-to-back sends.
package network

import (
	"fmt"

	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/trace"
)

// Kind distinguishes message types; values are defined by the protocol
// layer. The network treats them opaquely.
type Kind uint8

// Message is one network message. Addr/Arg fields carry protocol
// metadata; Data carries block payloads. Size is the payload size in
// bytes used for timing and byte accounting (header accounted
// separately); Data may be nil for control messages.
//
// Messages obtained from Network.NewMessage are recycled automatically
// after their delivery handler returns; a handler that keeps a
// reference past its own return must call Retain. Messages built
// directly with a literal are never recycled.
type Message struct {
	Src, Dst int
	Kind     Kind
	Addr     int   // address or range start
	Arg      int64 // protocol-defined
	Arg2     int64 // protocol-defined
	Data     []byte
	Size     int
	Seq      int64 // reliable-delivery sequence number (0 = unsequenced)

	// DataPooled marks Data as borrowed from the network's block-buffer
	// pool (AllocBlock); the buffer is reclaimed when the delivered
	// message is recycled.
	DataPooled bool

	net      *Network // owning network, set at creation or first Send
	pooled   bool     // recycle after the delivery handler returns
	retained bool     // handler kept the message; skip recycling
	flow     uint64   // trace flow id of the latest transmission (0 = untraced)
}

// Flow returns the message's trace flow identifier: the id of the
// physical transmission that carried it, linking the sender's wire span
// to the receiving handler. Zero when tracing is off.
func (m *Message) Flow() uint64 { return m.flow }

// Retain marks a delivered message (and its Data) as kept by the
// handler beyond its return, exempting both from recycling. Required
// whenever a handler queues or defers the message.
func (m *Message) Retain() { m.retained = true }

func (m *Message) String() string {
	return fmt.Sprintf("msg{%d->%d kind=%d addr=%#x arg=%d arg2=%d seq=%d size=%d}",
		m.Src, m.Dst, m.Kind, m.Addr, m.Arg, m.Arg2, m.Seq, m.Size)
}

// Endpoint receives delivered messages; the protocol layer installs one
// per node. The handler runs in scheduler context at the arrival time;
// it is responsible for modeling receive-side CPU occupancy.
type Endpoint func(m *Message)

// Network connects n endpoints through the simulated wire. When the
// machine's fault configuration is active, every inter-node message
// travels through the fault-injection layer and the reliable-delivery
// protocol (see reliable.go); otherwise the wire is the paper's
// lossless, ordered Myrinet and behavior is bit-identical to the
// original model.
type Network struct {
	env      *sim.Env
	mc       config.Machine
	eps      []Endpoint
	linkFree []sim.Time // sender-link next-free time
	mseq     []uint32   // per-source delivery sequence (sim.ScheduleDelivery key)
	departs  []sim.Lane // per-source delayed departures (SendAt), on the source's Env
	st       *stats.Cluster
	rel      *reliable // nil unless fault injection is active

	// Conservative-PDES mode (NewPartitioned): envs[i] is node i's
	// partition Env and post is the cross-partition mailbox hook. A
	// send whose source and destination share an Env schedules locally;
	// anything else is posted for injection at the next window
	// boundary. nil envs (New) is the sequential single-Env mode.
	envs []*sim.Env
	post PostFn

	// Freelists for zero-steady-state-allocation messaging: one msgPool
	// per partition Env (a single pool in sequential mode), so every
	// list stays single-threaded and plain slices beat sync.Pool (no
	// locking, no per-P shards). Allocation draws from the sending
	// node's partition pool; Recycle returns to the *destination*'s
	// pool, because delivery — the only place pool-owned messages are
	// recycled — runs on the destination's thread. Pooling is disabled
	// when the reliable layer is active: duplication and retransmission
	// keep references past delivery.
	pool   bool
	pools  []msgPool
	partOf []int // node -> pools index; nil in sequential mode (all 0)

	// coals holds each source node's coalescing scheduler (nil slice or
	// nil entries when aggregation is off). Send consults it: any
	// non-carrier message from src to dst first drains dst's buffer, so
	// coalescing only ever delays traffic relative to the uncoalesced
	// wire, never reorders it past a message that departs.
	coals []*Coalescer

	// Crash-stop failure support. dead masks crashed nodes: a dead node
	// sends nothing, and every transmission to or from it vanishes at
	// delivery time — including traffic already in flight when it died.
	// inflight counts scheduled future wire actions (deliveries and
	// delayed departures); zero is one leg of the cluster-quiescence
	// predicate the checkpoint layer requires.
	dead     []bool
	inflight int
	detected map[int]bool // peers already declared dead (idempotence)

	// OnDeath, when non-nil, is invoked from scheduler context the
	// moment the failure detector declares a peer dead (retransmit
	// exhaustion with unanswered probes, or barrier-timeout probing).
	OnDeath func(node int, reason string)

	// tr, when non-nil, records wire spans and send→deliver flow links.
	// Every use is nil-guarded: a disabled tracer costs one predictable
	// branch per send and allocates nothing.
	tr *trace.Tracer
}

// msgPool is one partition's message and payload-buffer freelists.
// Each pool is written only by its partition's worker: allocation on
// the sending node's thread, recycling on the destination node's
// thread, with the epoch barrier ordering the hand-off of the message
// itself. The trailing pad keeps two partitions' list headers off one
// cache line. poolSoftCap bounds each list so asymmetric traffic (one
// partition receiving far more than it sends) cannot grow a receive-
// heavy pool without bound; beyond the cap, recycled values go back to
// the GC.
type msgPool struct {
	free    []*Message
	bufFree [][]byte     // BlockSize-sized payload buffers
	varFree [32][][]byte // variable-size gather buffers, power-of-two buckets
	_pad    [64]byte
}

const poolSoftCap = 1 << 14

// SetTracer installs the causal event tracer (nil disables tracing).
func (n *Network) SetTracer(t *trace.Tracer) { n.tr = t }

// New creates a network for mc.Nodes endpoints. Endpoints must be bound
// with Bind before any Send.
func New(env *sim.Env, mc config.Machine, st *stats.Cluster) *Network {
	return newNetwork(env, nil, mc, st)
}

// newNetwork builds the network over the single env, or over one
// partition Env per node when envs is non-nil.
func newNetwork(env *sim.Env, envs []*sim.Env, mc config.Machine, st *stats.Cluster) *Network {
	n := &Network{
		env:      env,
		envs:     envs,
		mc:       mc,
		eps:      make([]Endpoint, mc.Nodes),
		linkFree: make([]sim.Time, mc.Nodes),
		mseq:     make([]uint32, mc.Nodes),
		departs:  make([]sim.Lane, mc.Nodes),
		st:       st,
		pool:     !mc.Faults.Active(),
		pools:    make([]msgPool, 1),
		dead:     make([]bool, mc.Nodes),
	}
	for i := range n.departs {
		n.departs[i].Bind(n.envOf(i))
	}
	if mc.Faults.Active() {
		n.rel = newReliable(n, mc.Faults)
	}
	return n
}

// PostFn queues a cross-partition event: fn(arg) must run on dst's
// partition Env at virtual time arrival. sent is the virtual time the
// source executed the send and seq the per-source delivery sequence —
// together with the source node id they form the schedule-independent
// delivery key the destination heap orders by.
type PostFn func(src, dst int, sent, arrival sim.Time, seq uint32, fn func(any), arg any)

// NewPartitioned creates a network in conservative-PDES mode: envs[i]
// is node i's partition environment and post the cross-partition
// mailbox hook. Pooling stays on, with one msgPool per partition:
// allocation draws from the sending node's partition pool and Recycle
// returns to the destination's, so every freelist is touched by
// exactly one partition worker (delivery runs on the destination's
// thread; a message that crossed partitions changed owners through the
// epoch barrier, which orders the hand-off). Fault injection is
// rejected: the reliable-delivery layer's retransmission timers are
// per-channel state that the window scheduler does not partition.
func NewPartitioned(envs []*sim.Env, post PostFn, mc config.Machine, st *stats.Cluster) *Network {
	if mc.Faults.Active() {
		panic("network: fault injection is not supported in partitioned (PDES) mode")
	}
	if len(envs) != mc.Nodes {
		panic(fmt.Sprintf("network: NewPartitioned needs one env per node: %d != %d", len(envs), mc.Nodes))
	}
	n := newNetwork(envs[0], envs, mc, st)
	n.post = post
	// Index the distinct partition Envs in first-appearance order; node
	// contiguity is not assumed.
	n.partOf = make([]int, len(envs))
	index := map[*sim.Env]int{}
	for i, e := range envs {
		idx, ok := index[e]
		if !ok {
			idx = len(index)
			index[e] = idx
		}
		n.partOf[i] = idx
	}
	n.pools = make([]msgPool, len(index))
	return n
}

// envOf returns the Env that owns node's events: its partition Env in
// PDES mode, the single shared Env otherwise.
//
//simlint:hotpath
func (n *Network) envOf(node int) *sim.Env {
	if n.envs != nil {
		return n.envs[node]
	}
	return n.env
}

// poolOf returns the freelist pool node's partition owns: its
// partition's pool in PDES mode, the single shared pool otherwise.
//
//simlint:hotpath
func (n *Network) poolOf(node int) *msgPool {
	if n.partOf != nil {
		return &n.pools[n.partOf[node]]
	}
	return &n.pools[0]
}

// NewMessage returns a zeroed message owned by this network, reusing a
// recycled one from src's partition pool when the pool is active. src
// must be the node on whose Env the caller is executing (the sender).
// Callers fill the fields and Send it; after the delivery handler
// returns, the message goes back to the destination's pool unless the
// handler Retained it.
//
//simlint:hotpath
func (n *Network) NewMessage(src int) *Message {
	if n.pool {
		p := n.poolOf(src)
		if k := len(p.free); k > 0 {
			m := p.free[k-1]
			p.free = p.free[:k-1]
			m.pooled = true
			return m
		}
		//simlint:ignore hotalloc -- pool miss: the message population grows to its high-water mark once, then every call is a freelist hit (bench gate holds allocs/op)
		return &Message{net: n, pooled: true}
	}
	//simlint:ignore hotalloc -- pooling is off under fault injection (retransmission keeps references past delivery); the faults path trades allocs for correctness by design
	return &Message{}
}

// AllocBlock returns a coherence-block-sized payload buffer from src's
// partition pool, reusing a recycled one when possible. src must be
// the node on whose Env the caller is executing. Senders attach it to
// a message with DataPooled set so delivery can reclaim it.
//
//simlint:hotpath
func (n *Network) AllocBlock(src int) []byte {
	p := n.poolOf(src)
	if k := len(p.bufFree); k > 0 {
		b := p.bufFree[k-1]
		p.bufFree = p.bufFree[:k-1]
		return b
	}
	return make([]byte, n.mc.BlockSize)
}

// AllocVar returns a payload buffer with len == cap >= size from src's
// partition pool's power-of-two-bucketed variable-size freelists
// (gather buffers for coalesced carriers and multi-block bulk
// payloads). src must be the node on whose Env the caller is
// executing. Attach it to a message with DataPooled set so delivery
// reclaims it.
//
//simlint:hotpath
func (n *Network) AllocVar(src, size int) []byte {
	idx := varBucket(size)
	p := n.poolOf(src)
	if l := p.varFree[idx]; len(l) > 0 {
		b := l[len(l)-1]
		p.varFree[idx] = l[:len(l)-1]
		return b
	}
	return make([]byte, 1<<idx)
}

// varBucket maps a size to its power-of-two bucket (min 64 bytes).
func varBucket(size int) int {
	idx := 6
	for 1<<idx < size {
		idx++
	}
	return idx
}

// recycleVar returns a variable-size buffer to node's partition pool.
// node must be the node on whose Env the caller is executing.
func (n *Network) recycleVar(node int, b []byte) {
	c := cap(b)
	if c < 64 || c&(c-1) != 0 {
		return // not one of ours; let the GC have it
	}
	idx := varBucket(c)
	p := n.poolOf(node)
	if len(p.varFree[idx]) < poolSoftCap {
		p.varFree[idx] = append(p.varFree[idx], b[:c])
	}
}

// Recycle returns a delivered pool-owned message (and its pooled
// payload buffer) to the destination's partition pool — delivery runs
// on the destination's thread, so that is the only pool this call may
// touch. Called by the delivery layer after the handler returns; a
// no-op for literal-built or Retained messages.
//
//simlint:hotpath
func (n *Network) Recycle(m *Message) {
	if !m.pooled || m.retained {
		return
	}
	p := n.poolOf(m.Dst)
	if m.DataPooled {
		if len(m.Data) == n.mc.BlockSize && len(p.bufFree) < poolSoftCap {
			//simlint:ignore hotalloc -- returning a buffer to the freelist: the slice reuses capacity freed by the matching AllocBlock pop; net growth is bounded by the in-flight high-water mark and the pool soft cap
			p.bufFree = append(p.bufFree, m.Data)
		} else if len(m.Data) != n.mc.BlockSize {
			n.recycleVar(m.Dst, m.Data)
		}
	}
	*m = Message{net: n}
	if len(p.free) < poolSoftCap {
		//simlint:ignore hotalloc -- returning a message to the freelist: capacity was freed by the matching NewMessage pop; net growth is bounded by the in-flight high-water mark and the pool soft cap
		p.free = append(p.free, m)
	}
}

// Bind installs the delivery endpoint for node id.
func (n *Network) Bind(id int, ep Endpoint) { n.eps[id] = ep }

// Send injects m into the network at the current virtual time. The
// caller is responsible for the sender's CPU occupancy (SendOver); Send
// models only link serialization and wire latency. Sending to self is a
// local loopback with no wire cost.
//
//simlint:hotpath
func (n *Network) Send(m *Message) {
	if m.Src < 0 || m.Src >= len(n.eps) || m.Dst < 0 || m.Dst >= len(n.eps) {
		panic(fmt.Sprintf("network: bad endpoints in %v", m))
	}
	if n.dead[m.Src] {
		return // a crashed node sends nothing
	}
	if n.coals != nil && m.Src != m.Dst {
		// Drain trigger: a non-carrier departure to dst flushes the
		// sender's open gather buffer for dst first, preserving
		// per-pair order between buffered segments and everything the
		// protocol sends around them.
		if c := n.coals[m.Src]; c != nil && m.Kind != c.kind {
			c.FlushDst(m.Dst)
		}
	}
	m.net = n
	if m.Data != nil && m.Size == 0 {
		m.Size = len(m.Data)
	}
	if m.Src == m.Dst {
		// Loopback: deliver after local copy time only. Loopback never
		// touches the wire, so it bypasses fault injection — and never
		// crosses a partition.
		env := n.envOf(m.Src)
		n.accountSend(m)
		sent := env.Now()
		at := sent + sim.Time(m.Size)*n.mc.NsPerByte/4 + 1
		sq := n.mseq[m.Src]
		n.mseq[m.Src]++
		if n.envs == nil {
			n.accountRecv(m)
			if n.tr != nil {
				n.traceTx(m, sent, at, false)
			}
			n.inflight++
			env.ScheduleDelivery(at, sent, m.Src, sq, deliverEvent, m)
			return
		}
		env.ScheduleDelivery(at, sent, m.Src, sq, deliverEventP, m)
		return
	}
	if n.rel != nil {
		n.rel.send(m)
		return
	}
	n.accountSend(m)
	arrival := n.wireArrival(m)
	sq := n.mseq[m.Src]
	n.mseq[m.Src]++
	if n.envs == nil {
		n.accountRecv(m)
		if n.tr != nil {
			ser := sim.Time(n.mc.MsgHeader+m.Size) * n.mc.NsPerByte
			depart := arrival - n.mc.WireLatency - ser
			n.traceTx(m, depart, depart+ser, false)
		}
		n.inflight++
		n.env.ScheduleDelivery(arrival, n.env.Now(), m.Src, sq, deliverEvent, m)
		return
	}
	// PDES mode: receive-side accounting happens at delivery (on the
	// destination's thread); the inflight counter — one leg of the
	// checkpoint quiescence predicate, which PDES rejects — is not
	// maintained. The lossless wire makes send-time vs delivery-time
	// receive accounting equivalent: every send is delivered.
	srcEnv, dstEnv := n.envOf(m.Src), n.envOf(m.Dst)
	if srcEnv == dstEnv {
		srcEnv.ScheduleDelivery(arrival, srcEnv.Now(), m.Src, sq, deliverEventP, m)
		return
	}
	// Cross-partition: arrival >= send time + MsgTime(0) (serialization
	// of at least the header plus the wire latency), which is exactly
	// the window scheduler's lookahead — the mail always lands at or
	// past the current window's edge.
	n.post(m.Src, m.Dst, srcEnv.Now(), arrival, sq, deliverEventP, m)
}

// traceTx records one physical transmission: a serialization span on
// the sender's NIC lane and the start of the flow arrow that the
// receiving handler's span will terminate. Retransmissions get a fresh
// flow id with the superseded id as an argument, so every wire attempt
// is its own span but the causal chain stays connected. Only called
// with the tracer installed.
func (n *Network) traceTx(m *Message, start, end sim.Time, retx bool) {
	t := n.tr
	name := t.MsgName(uint8(m.Kind))
	args := []trace.Arg{trace.Int("dst", m.Dst), trace.Int("bytes", n.mc.MsgHeader+m.Size)}
	if m.Seq != 0 {
		args = append(args, trace.I64("seq", m.Seq))
	}
	if retx {
		name = name + " (retx)"
		args = append(args, trace.I64("supersedes_flow", int64(m.flow)))
	}
	if m.Kind != KindAck {
		m.flow = t.FlowID()
		t.FlowStart(m.Src, trace.LaneNIC, m.flow, start)
	}
	t.Span(m.Src, trace.LaneNIC, name, "tx", start, end, args...)
}

// deliverEvent and sendEvent are the shared event functions for
// ScheduleArg: one package-level func value each, so scheduling a
// delivery or a delayed departure allocates nothing. The P variants
// are their PDES-mode twins: they skip the inflight counter, which is
// only maintained single-threaded (checkpoint quiescence is rejected
// in PDES mode anyway).
var (
	deliverEvent  = func(a any) { m := a.(*Message); m.net.inflight--; m.net.deliver(m) }
	sendEvent     = func(a any) { m := a.(*Message); m.net.inflight--; m.net.Send(m) }
	deliverEventP = func(a any) { m := a.(*Message); m.net.deliver(m) }
	sendEventP    = func(a any) { m := a.(*Message); m.net.Send(m) }
)

// SendAt injects m at absolute virtual time t (a delayed departure,
// e.g. a reply leaving when the protocol engine's queued work
// completes). The departure event runs on the sender's Env; Send then
// routes the transmission. A source's departures follow its engine's
// clock, which only grows, so they queue in the source's lane.
func (n *Network) SendAt(t sim.Time, m *Message) {
	m.net = n
	if n.envs != nil {
		n.departs[m.Src].Schedule(t, sendEventP, m)
		return
	}
	n.inflight++
	n.departs[m.Src].Schedule(t, sendEvent, m)
}

// accountSend records one wire transmission in the sender's counters.
func (n *Network) accountSend(m *Message) {
	bytes := int64(n.mc.MsgHeader + m.Size)
	n.st.Nodes[m.Src].MsgsSent++
	n.st.Nodes[m.Src].BytesSent += bytes
}

// accountRecv records one wire arrival in the receiver's counters. On
// the lossless network it is charged at send time (delivery is
// certain); the fault-injection layer charges it when a transmission
// actually reaches the destination.
func (n *Network) accountRecv(m *Message) {
	bytes := int64(n.mc.MsgHeader + m.Size)
	n.st.Nodes[m.Dst].MsgsRecv++
	n.st.Nodes[m.Dst].BytesRecv += bytes
}

// wireArrival reserves the sender's link for one transmission and
// returns its arrival time at the destination: serialization behind any
// queued transmissions plus the wire latency. linkFree[src] is only
// touched from src's own Env, so the reservation is single-threaded in
// PDES mode too.
func (n *Network) wireArrival(m *Message) sim.Time {
	depart := n.envOf(m.Src).Now()
	if n.linkFree[m.Src] > depart {
		depart = n.linkFree[m.Src]
	}
	ser := sim.Time(n.mc.MsgHeader+m.Size) * n.mc.NsPerByte
	n.linkFree[m.Src] = depart + ser
	return depart + ser + n.mc.WireLatency
}

func (n *Network) deliver(m *Message) {
	if n.dead[m.Dst] || n.dead[m.Src] {
		return // crash-stop: traffic touching a dead node vanishes
	}
	ep := n.eps[m.Dst]
	if ep == nil {
		panic(fmt.Sprintf("network: no endpoint bound for node %d", m.Dst))
	}
	if n.envs != nil {
		// PDES mode charges receive counters at delivery: the write
		// lands on the destination's thread. Loopback keeps send-time
		// accounting semantics but routes through here too, so the
		// charge is unconditional.
		n.accountRecv(m)
	}
	// A delivery is forward progress for the stall watchdog even while
	// every compute process is blocked at a sync point: a long
	// transaction drain must not be mistaken for a stall. (Duplicates
	// discarded by the reliable layer never reach this point.)
	n.envOf(m.Dst).Progress()
	ep(m)
}

// MarkDead injects a crash-stop failure: from this instant node id
// sends nothing and every transmission to or from it — including
// traffic already in flight — vanishes at delivery time. The node's
// reliable-delivery and coalescer state is left in place; survivors'
// retransmissions to the dead node are exactly what drives detection.
func (n *Network) MarkDead(id int) { n.dead[id] = true }

// Dead reports whether node id has been marked crashed.
func (n *Network) Dead(id int) bool { return n.dead[id] }

// Inflight returns the number of scheduled future wire actions
// (pending deliveries and delayed departures). Zero means the wire is
// silent — one leg of the checkpoint layer's quiescence predicate.
func (n *Network) Inflight() int { return n.inflight }

// declareDead reports a failure-detector verdict to the layer above.
// Idempotent per node: only the first detection fires the callback.
func (n *Network) declareDead(node int, reason string) {
	if n.detected == nil {
		n.detected = make(map[int]bool)
	}
	if n.detected[node] {
		return
	}
	n.detected[node] = true
	if n.OnDeath != nil {
		n.OnDeath(node, reason)
	}
}

// RetransQueueDepth returns the number of unacknowledged messages node
// src is holding for retransmission across all its channels (the
// stall-watchdog dump includes it per node).
func (n *Network) RetransQueueDepth(src int) int {
	if n.rel == nil {
		return 0
	}
	depth := 0
	// Summing queue lengths is order-independent, and the count feeds
	// only the human-facing watchdog dump.
	//simlint:commutative
	for k, c := range n.rel.chans {
		if k[0] == src {
			depth += len(c.out)
		}
	}
	return depth
}

// CoalescerOf returns node src's coalescing scheduler, or nil when
// aggregation is off.
func (n *Network) CoalescerOf(src int) *Coalescer {
	if n.coals == nil {
		return nil
	}
	return n.coals[src]
}
