// Package network simulates the cluster interconnect (Myrinet in the
// paper): point-to-point messages with a fixed one-way wire latency plus
// per-byte serialization time on the sender's link. Messages between the
// same pair of nodes are delivered in order; serialization occupancy on
// the sending link naturally pipelines back-to-back sends.
package network

import (
	"fmt"
	"slices"
	"sync"

	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/trace"
)

// Kind distinguishes message types; values are defined by the protocol
// layer. The network treats them opaquely.
type Kind uint8

// kindNames holds each kind's span name, filled at package
// initialisation by the packages that declare kinds (NameKinds).
var kindNames [256]string

// NameKinds records the names of the kinds one package declares:
// names[k] names kind k, and an empty entry leaves k unnamed. Each
// package calls it once at initialisation, beside its const block; a
// kind named twice panics.
func NameKinds(names []string) {
	for k, name := range names {
		if name == "" {
			continue
		}
		if kindNames[k] != "" {
			panic(fmt.Sprintf("network: kind %d named twice: %q and %q", k, kindNames[k], name))
		}
		kindNames[k] = name
	}
}

// KindName renders a message kind for trace span names: the name its
// package gave it, or kind<k> when none did.
func KindName(k Kind) string {
	if name := kindNames[k]; name != "" {
		return name
	}
	return fmt.Sprintf("kind%d", k)
}

// Message is one network message. Addr/Arg fields carry protocol
// metadata; Data carries block payloads. Size is the payload size in
// bytes used for timing and byte accounting (header accounted
// separately); Data may be nil for control messages.
//
// A message obtained from Network.NewMessage carries a holder count:
// NewMessage hands the caller one reference, Retain takes one more, and
// every Recycle drops one. The message and its pooled payload go back
// to the pool only when the last reference is dropped. Send takes over
// the caller's reference; the delivery layer releases the one it hands
// the handler after the handler returns, so a handler that keeps the
// message past its own return must Retain it and Recycle it when done.
// Under fault injection the reliable layer holds further references
// (see reliable.go). Messages built directly with a literal are never
// recycled.
type Message struct {
	Src, Dst int
	Kind     Kind
	Addr     int   // address or range start
	Arg      int64 // protocol-defined
	Arg2     int64 // protocol-defined
	Data     []byte
	Size     int
	Seq      int64 // reliable-delivery sequence number (0 = unsequenced)

	// DataPooled marks Data as borrowed from the network's payload
	// list (NewDataMessage, AllocVar, AllocBlock); the buffer is
	// reclaimed when the delivered message is recycled.
	DataPooled bool

	net  *Network // owning network, set at creation or first Send; nil while free
	refs int32    // holders of a pooled message; 0 for a literal (never recycled)
	flow uint64   // trace flow id of the latest transmission (0 = untraced)
}

// Flow returns the message's trace flow identifier: the id of the
// physical transmission that carried it, linking the sender's wire span
// to the receiving handler. Zero when tracing is off.
func (m *Message) Flow() uint64 { return m.flow }

// Retain takes one more reference to a delivered message (and its
// Data) for a holder that keeps it beyond the handler's return: a
// handler that queues or defers the message. That holder drops it with
// Recycle when it is done. A no-op on a literal, which is never
// recycled.
func (m *Message) Retain() {
	if m.refs > 0 {
		m.refs++
	}
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%d->%d kind=%s addr=%#x arg=%d arg2=%d seq=%d size=%d}",
		m.Src, m.Dst, KindName(m.Kind), m.Addr, m.Arg, m.Arg2, m.Seq, m.Size)
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
	mc       config.Machine
	eps      []Endpoint
	linkFree []sim.Time // sender-link next-free time
	mseq     []uint32   // per-source delivery sequence (sim.ScheduleDelivery key)
	departs  []sim.Lane // per-source delayed departures (SendAt), on the source's Env
	st       *stats.Cluster
	rel      *reliable // nil unless fault injection is active

	// envs[i] is the Env node i's events run on: the same Env for every
	// node in a sequential run, its partition's Env under the parallel
	// engine. A message between two nodes of one Env is scheduled on it;
	// any other is handed to post, the cross-partition mailbox hook,
	// for injection at the next window boundary (nil when every node
	// shares one Env).
	envs []*sim.Env
	post PostFn

	// Freelists for zero-steady-state-allocation messaging: one msgPool
	// per distinct Env, so every list stays single-threaded and plain
	// slices beat sync.Pool (no locking, no per-P shards). Allocation
	// draws from the sending node's pool; the last Recycle of a message
	// returns it to the *destination*'s pool. On the lossless wire
	// delivery holds the only reference, and delivery runs on the
	// destination's thread. Under fault injection the reliable layer's
	// unacked window, every scheduled arrival and every reorder slot
	// hold one reference each, so the last release may happen at the
	// sender (the cumulative ACK); fault injection runs on one Env with
	// one pool, so that is safe.
	pools  []msgPool
	partOf []int // node -> pools index

	// quarantine, set only by tests (export_test.go), takes every
	// reclaimed message in place of the freelists.
	quarantine func(*Message)

	// coals holds each source node's coalescing scheduler (nil slice or
	// nil entries when aggregation is off). Send consults it: any
	// non-carrier message from src to dst first drains dst's buffer, so
	// coalescing only ever delays traffic relative to the uncoalesced
	// wire, never reorders it past a message that departs.
	coals []*Coalescer

	// Crash-stop failure support. dead masks crashed nodes: a dead node
	// sends nothing, and every transmission to or from it vanishes at
	// delivery time — including traffic already in flight when it died.
	dead []bool

	// OnDeath, when non-nil, is invoked from scheduler context the
	// moment the failure detector declares a peer dead (retransmit
	// exhaustion with unanswered probes, or barrier-timeout probing).
	OnDeath func(node int, reason string)

	// tr, when non-nil, records wire spans and send→deliver flow links.
	// Every use is nil-guarded: a disabled tracer costs one predictable
	// branch per send and allocates nothing.
	tr *trace.Tracer
}

// msgPool is one Env's message freelist, its one payload-buffer list
// and its share of the in-flight count. Each pool is written only by
// its Env's worker: allocation and the in-flight increment on the
// sending node's thread, recycling and the decrement on the destination
// node's thread, with the epoch barrier ordering the hand-off of the
// message itself. A pool's count alone may go negative; their sum is
// the wire's in-flight total. The trailing pad keeps two partitions'
// list headers off one cache line.
//
// The lists outlive their network: Cluster.Run hands them to the keep
// (ReleasePools) once its engine has stopped, and the next network
// takes them from there, so a process that runs many simulations grows
// them once. A free message holds no reference into the machine that
// used it (Recycle clears its pointers), and a pop clears the slot it
// leaves, so a kept list pins nothing of a finished run.
//
// poolSoftCap bounds each list so asymmetric traffic between PDES
// partitions (one receiving far more than it sends) cannot grow a
// receive-heavy pool without bound; beyond the cap, recycled values go
// back to the GC. It sits above every workload's in-flight high-water
// mark (about 32 000 messages), so a burst's own messages are never
// dropped only to be allocated again by the next.
type msgPool struct {
	free     []*Message
	varFree  [32][][]byte // every payload buffer, filed by capacity in power-of-two buckets
	inflight int          // scheduled wire actions sent minus delivered here
	_pad     [64]byte
}

const poolSoftCap = 1 << 16

// The keep holds the pools of networks whose runs have ended; a new
// network takes its pools from it before making any. A pool is made
// only when the keep is empty, so it never holds more pools than were
// live at one time.
//
//simlint:concurrent -- paperbench -j runs simulations on concurrent goroutines, and their networks take and release pools at setup and teardown; this mutex orders every hand-off, and no one touches a pool between its release and the next take
var takePools, releasePools = func() (take func(k int) []msgPool, release func([]msgPool)) {
	var mu sync.Mutex
	var kept []msgPool
	take = func(k int) []msgPool {
		pools := make([]msgPool, k)
		mu.Lock()
		rest := max(len(kept)-k, 0)
		copy(pools, kept[rest:])
		clear(kept[rest:])
		kept = kept[:rest]
		mu.Unlock()
		return pools
	}
	release = func(pools []msgPool) {
		mu.Lock()
		kept = append(kept, pools...)
		mu.Unlock()
	}
	return take, release
}()

// SetTracer installs the causal event tracer (nil disables tracing).
func (n *Network) SetTracer(t *trace.Tracer) { n.tr = t }

// New creates a network for mc.Nodes endpoints, every node on env.
// Endpoints must be bound with Bind before any Send.
func New(env *sim.Env, mc config.Machine, st *stats.Cluster) *Network {
	return NewPartitioned(slices.Repeat([]*sim.Env{env}, mc.Nodes), nil, mc, st)
}

// PostFn queues a cross-partition event: fn(arg) must run on dst's
// partition Env at virtual time arrival. sent is the virtual time the
// source executed the send and seq the per-source delivery sequence —
// together with the source node id they form the schedule-independent
// delivery key the destination heap orders by.
type PostFn func(src, dst int, sent, arrival sim.Time, seq uint32, fn func(any), arg any)

// NewPartitioned creates a network whose node i runs on envs[i]; post
// carries messages between nodes on different Envs. There is one
// msgPool per distinct Env: allocation draws from the sending node's
// pool and Recycle returns to the destination's, so every freelist is
// touched by exactly one partition worker (delivery runs on the
// destination's thread; a message that crossed partitions changed
// owners through the epoch barrier, which orders the hand-off). Fault
// injection is rejected over more than one Env: the reliable-delivery
// layer's retransmission timers are per-channel state that the window
// scheduler does not partition.
func NewPartitioned(envs []*sim.Env, post PostFn, mc config.Machine, st *stats.Cluster) *Network {
	if len(envs) != mc.Nodes {
		panic(fmt.Sprintf("network: NewPartitioned needs one env per node: %d != %d", len(envs), mc.Nodes))
	}
	n := &Network{
		envs:     envs,
		post:     post,
		mc:       mc,
		eps:      make([]Endpoint, mc.Nodes),
		linkFree: make([]sim.Time, mc.Nodes),
		mseq:     make([]uint32, mc.Nodes),
		departs:  make([]sim.Lane, mc.Nodes),
		st:       st,
		partOf:   make([]int, mc.Nodes),
		dead:     make([]bool, mc.Nodes),
	}
	// Index the distinct Envs in first-appearance order; node
	// contiguity is not assumed.
	var distinct []*sim.Env
	for i, e := range envs {
		idx := slices.Index(distinct, e)
		if idx < 0 {
			idx = len(distinct)
			distinct = append(distinct, e)
		}
		n.partOf[i] = idx
		n.departs[i].Bind(e)
	}
	n.pools = takePools(len(distinct))
	for i := range n.pools {
		// An aborted run leaves its count wherever the abort found it.
		n.pools[i].inflight = 0
	}
	if mc.Faults.Active() {
		if len(distinct) > 1 {
			panic("network: fault injection is not supported in partitioned (PDES) mode")
		}
		n.rel = newReliable(n, distinct[0], mc.Faults)
	}
	if newHook != nil {
		newHook(n)
	}
	return n
}

// newHook, set only by tests (export_test.go), sees every network made.
var newHook func(*Network)

// ReleasePools hands the network's free lists to the keep for the next
// network to take. The network must send and recycle nothing after it:
// Cluster.Run calls it once its engine has shut down, when nothing runs
// on the network's Envs any more.
func (n *Network) ReleasePools() {
	releasePools(n.pools)
	n.pools = nil
}

// envOf returns the Env that owns node's events.
//
//simlint:hotpath
func (n *Network) envOf(node int) *sim.Env { return n.envs[node] }

// poolOf returns the freelist pool of node's Env.
//
//simlint:hotpath
func (n *Network) poolOf(node int) *msgPool { return &n.pools[n.partOf[node]] }

// NewMessage returns a zeroed message owned by this network, reusing a
// recycled one from src's partition pool, and hands the caller its one
// reference. src must be the node on whose Env the caller is executing
// (the sender). Callers fill the fields and Send it; once the delivery
// handler has returned and every other holder, a Retain included, has
// let go, the message goes back to the destination's pool.
//
//simlint:hotpath
func (n *Network) NewMessage(src int) *Message {
	p := n.poolOf(src)
	if k := len(p.free); k > 0 {
		m := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		*m = Message{net: n, refs: 1}
		return m
	}
	//simlint:ignore hotalloc -- pool miss: the pools outlive a Run (ReleasePools), so the message population grows to the process's in-flight high-water mark once and every later call is a freelist hit
	return &Message{net: n, refs: 1}
}

// AllocBlock returns a coherence-block-sized payload buffer: AllocVar's
// buffer for BlockSize bytes, sliced to one block.
//
//simlint:hotpath
func (n *Network) AllocBlock(src int) []byte {
	return n.AllocVar(src, n.mc.BlockSize)[:n.mc.BlockSize]
}

// AllocVar returns a payload buffer with len == cap >= size from src's
// partition pool: the one list every wire payload is drawn from, in
// power-of-two buckets. src must be the node on whose Env the caller is
// executing. Attach it to a message with DataPooled set so delivery
// reclaims it.
//
//simlint:hotpath
func (n *Network) AllocVar(src, size int) []byte {
	idx := varBucket(size)
	p := n.poolOf(src)
	if l := p.varFree[idx]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.varFree[idx] = l[:len(l)-1]
		return b
	}
	return make([]byte, 1<<idx)
}

// NewDataMessage returns NewMessage(src) carrying a pooled copy of data
// as its payload, DataPooled set: the one place a payload is copied
// into its message. An empty data leaves the message without one.
//
//simlint:hotpath
func (n *Network) NewDataMessage(src int, data []byte) *Message {
	m := n.NewMessage(src)
	if len(data) > 0 {
		m.Data = n.AllocVar(src, len(data))[:len(data)]
		copy(m.Data, data)
		m.DataPooled = true
	}
	return m
}

// varBucket maps a size to its power-of-two bucket (min 64 bytes).
func varBucket(size int) int {
	idx := 6
	for 1<<idx < size {
		idx++
	}
	return idx
}

// recycleVar returns a payload buffer to node's partition pool, filed
// by its capacity whatever its length (nil is ignored). node must be
// the node on whose Env the caller is executing.
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

// Recycle drops one reference to a pool-owned message. The last one
// returns the message (and its pooled payload buffer) to the
// destination's partition pool — on the lossless wire the last holder
// is delivery, which runs on the destination's thread, so that is the
// only pool this call may touch. Called by the delivery layer after the
// handler returns, by the reliable layer as its holders let go and by
// whoever Retained it; a no-op for literal-built messages. The message
// keeps its other fields until NewMessage hands it out again, zeroed;
// its pointers go now, so a free message pins nothing.
//
//simlint:hotpath
func (n *Network) Recycle(m *Message) {
	if m.refs == 0 {
		return
	}
	if m.refs--; m.refs > 0 {
		return
	}
	if n.quarantine != nil {
		n.quarantine(m)
		return
	}
	p := n.poolOf(m.Dst)
	if m.DataPooled {
		n.recycleVar(m.Dst, m.Data)
	}
	m.Data, m.net = nil, nil
	if len(p.free) < poolSoftCap {
		//simlint:ignore hotalloc -- returning a message to the freelist: capacity was freed by the matching NewMessage pop; the list outlives the Run, so it grows to the process's in-flight high-water mark once, under the soft cap
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
	if m.Src != m.Dst && n.rel != nil {
		n.rel.send(m)
		return
	}
	n.accountSend(m)
	src, dst := n.envOf(m.Src), n.envOf(m.Dst)
	var arrival sim.Time
	if m.Src == m.Dst {
		// Loopback: deliver after local copy time only. Loopback never
		// touches the wire, so it bypasses fault injection — and never
		// crosses a partition.
		arrival = src.Now() + sim.Time(m.Size)*n.mc.NsPerByte/4 + 1
		if n.tr != nil {
			n.traceTx(m, src.Now(), arrival, false)
		}
	} else {
		arrival = n.wireArrival(m)
		if n.tr != nil {
			ser := sim.Time(n.mc.MsgHeader+m.Size) * n.mc.NsPerByte
			depart := arrival - n.mc.WireLatency - ser
			n.traceTx(m, depart, depart+ser, false)
		}
	}
	sq := n.mseq[m.Src]
	n.mseq[m.Src]++
	n.poolOf(m.Src).inflight++
	if src == dst {
		src.ScheduleDelivery(arrival, src.Now(), m.Src, sq, deliverEvent, m)
		return
	}
	// Cross-partition: arrival >= send time + MsgTime(0) (serialization
	// of at least the header plus the wire latency), which is exactly
	// the window scheduler's lookahead — the mail always lands at or
	// past the current window's edge.
	n.post(m.Src, m.Dst, src.Now(), arrival, sq, deliverEvent, m)
}

// traceTx records one physical transmission: a serialization span on
// the sender's NIC lane and the start of the flow arrow that the
// receiving handler's span will terminate. Retransmissions get a fresh
// flow id with the superseded id as an argument, so every wire attempt
// is its own span but the causal chain stays connected. Only called
// with the tracer installed.
func (n *Network) traceTx(m *Message, start, end sim.Time, retx bool) {
	t := n.tr
	name := KindName(m.Kind)
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
// delivery or a delayed departure allocates nothing. Each runs on the
// Env of the node it acts for, so it settles the in-flight count in
// that node's pool; a delivery also charges the receive counters, on
// the destination's thread.
var (
	deliverEvent = func(a any) {
		m := a.(*Message)
		n := m.net
		n.poolOf(m.Dst).inflight--
		n.accountRecv(m)
		n.deliver(m)
	}
	sendEvent = func(a any) { m := a.(*Message); m.net.poolOf(m.Src).inflight--; m.net.Send(m) }
)

// SendAt injects m at absolute virtual time t (a delayed departure,
// e.g. a reply leaving when the protocol engine's queued work
// completes). The departure event runs on the sender's Env; Send then
// routes the transmission. A source's departures follow its engine's
// clock, which only grows, so they queue in the source's lane.
func (n *Network) SendAt(t sim.Time, m *Message) {
	m.net = n
	n.poolOf(m.Src).inflight++
	n.departs[m.Src].Schedule(t, sendEvent, m)
}

// accountSend records one wire transmission in the sender's counters.
func (n *Network) accountSend(m *Message) {
	bytes := int64(n.mc.MsgHeader + m.Size)
	n.st.Nodes[m.Src].MsgsSent++
	n.st.Nodes[m.Src].BytesSent += bytes
}

// accountRecv records one wire arrival in the receiver's counters. The
// lossless wire charges it when its delivery event runs; the
// fault-injection layer, when a transmission reaches the destination
// NIC.
func (n *Network) accountRecv(m *Message) {
	bytes := int64(n.mc.MsgHeader + m.Size)
	n.st.Nodes[m.Dst].MsgsRecv++
	n.st.Nodes[m.Dst].BytesRecv += bytes
}

// wireArrival reserves the sender's link for one transmission and
// returns its arrival time at the destination: serialization behind any
// queued transmissions plus the wire latency. linkFree[src] is only
// touched from src's own Env, so the reservation is single-threaded
// under the parallel engine too.
func (n *Network) wireArrival(m *Message) sim.Time {
	depart := n.envOf(m.Src).Now()
	if n.linkFree[m.Src] > depart {
		depart = n.linkFree[m.Src]
	}
	ser := sim.Time(n.mc.MsgHeader+m.Size) * n.mc.NsPerByte
	n.linkFree[m.Src] = depart + ser
	return depart + ser + n.mc.WireLatency
}

// deliver hands m, and the reference the caller held, to the
// destination's endpoint.
func (n *Network) deliver(m *Message) {
	if n.dead[m.Dst] || n.dead[m.Src] {
		n.Recycle(m) // crash-stop: traffic touching a dead node vanishes
		return
	}
	ep := n.eps[m.Dst]
	if ep == nil {
		panic(fmt.Sprintf("network: no endpoint bound for node %d", m.Dst))
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
// (pending deliveries and delayed departures), summed over the pools.
// Zero means the wire is silent — one leg of the checkpoint layer's
// quiescence predicate.
func (n *Network) Inflight() int {
	total := 0
	for i := range n.pools {
		total += n.pools[i].inflight
	}
	return total
}

// CoalescerOf returns node src's coalescing scheduler, or nil when
// aggregation is off.
func (n *Network) CoalescerOf(src int) *Coalescer {
	if n.coals == nil {
		return nil
	}
	return n.coals[src]
}
