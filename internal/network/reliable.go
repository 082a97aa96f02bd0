// Fault injection and reliable delivery.
//
// The paper's Myrinet never drops, duplicates, or reorders messages,
// and the coherence protocol above leans on that: every request expects
// exactly one response, and per-(src,dst) ordering is load-bearing.
// This file lets the simulated wire misbehave — seeded-PRNG drop,
// duplication, delay jitter, and cross-pair reordering — and rebuilds
// the lossless, ordered abstraction underneath the protocol stack:
//
//   - every inter-node message carries a per-(src,dst) sequence number;
//   - the receiver delivers in sequence order, buffering out-of-order
//     arrivals and discarding duplicates (idempotent receive);
//   - the receiver acknowledges cumulatively, coalescing ACKs that
//     arrive within an ACK delay window (config.DefaultAckDelay);
//   - the sender retransmits unacknowledged messages on a per-message
//     timer with exponential backoff (clamped at config.DefaultMaxBackoff).
//
// The layer is modeled as NIC firmware: ACKs and retransmissions
// occupy the wire (link serialization and latency, counted in the
// message/byte totals) but cost no host CPU, so the protocol engine's
// occupancy model is untouched. All randomness comes from one
// splitmix64 PRNG drawn in scheduler context, so a given seed always
// produces the same schedule. With fault injection inactive none of
// this code runs and the network is bit-identical to the seed model.
//
// Messages stay pooled under faults; every holder of a message owns one
// reference (Message.refs) and drops it with Recycle:
//
//   - the unacked window holds the sender's reference until the
//     cumulative ACK retires the entry;
//   - every scheduled arrival, the duplicate's included, holds one. An
//     out-of-order arrival's reference moves into its reorder slot, an
//     in-order arrival's into deliver; a stale or already-buffered
//     duplicate, an arrival touching a dead node and a handled ACK or
//     probe drop theirs;
//   - ACKs and probes come from the pool (sendCtrl), and their sender
//     drops its reference right after transmit;
//   - retransmit timers find their entry by (channel, seq) and hold
//     none.
//
// Arrivals and retransmit timers stay func() events (the event census
// counts them as such), but each is a reusable object whose closure is
// bound once, when the object is made, and which goes back on the
// layer's free list the moment it fires.
package network

import (
	"fmt"
	"slices"
	"strings"

	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
)

// KindAck is the reliable-delivery acknowledgement. It is consumed by
// the network layer itself and never reaches a node's handlers.
// Protocol layers must not use this kind.
const KindAck Kind = 255

// KindProbe and KindProbeAck are the failure detector's liveness
// probes. Both are NIC-level: a live destination's firmware answers a
// probe immediately, with no host CPU and no sequencing, so only a
// genuinely dead peer leaves probes unanswered. Protocol layers must
// not use these kinds.
const (
	KindProbe    Kind = 254
	KindProbeAck Kind = 253
)

func init() {
	NameKinds([]string{KindAck: "ack", KindProbe: "probe", KindProbeAck: "probe_ack"})
}

// ackSize is the payload size of an acknowledgement (the cumulative
// sequence number); probeSize that of a liveness probe.
const (
	ackSize   = 8
	probeSize = 4
)

// ctrlKind reports whether k rides the NIC's priority control lane
// (cutting ahead of the data queue's serialization backlog).
func ctrlKind(k Kind) bool { return k == KindAck || k == KindProbe || k == KindProbeAck }

// rng is a splitmix64 PRNG: tiny, fast, and fully deterministic for a
// given seed (unlike math/rand, its sequence is pinned by this file).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 returns a uniform float64 in [0, 1).
func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// timeIn returns a uniform virtual duration in [0, max).
func (r *rng) timeIn(max sim.Time) sim.Time {
	if max <= 0 {
		return 0
	}
	return sim.Time(r.next() % uint64(max))
}

// outstanding is one sent-but-unacknowledged message.
type outstanding struct {
	m         *Message
	rto       sim.Time // current retransmit timeout
	retries   int
	suspended bool // retransmit chain parked pending a probe verdict
}

// relChan is the reliable-delivery state of one directed (src,dst)
// pair: sender-side outstanding window and receiver-side reassembly.
// Sequence numbers are dense, so both sides are slices addressed by
// sequence offset and every walk over them is in sequence order.
type relChan struct {
	src, dst  int
	blackhole bool // every transmission src->dst vanishes (Blackhole)

	// Sender side (lives conceptually at src). out is the unacked
	// window, oldest first: cumulative ACKs retire a prefix, so it always
	// holds exactly the sequence numbers (nextSeq-len(out), nextSeq].
	nextSeq int64
	out     []outstanding

	// Receiver side (lives conceptually at dst). buf[i] holds the
	// out-of-order arrival with sequence number expect+1+i, nil for a
	// gap; nbuf counts the arrivals held.
	expect     int64 // next sequence number to deliver (first is 1)
	buf        []*Message
	nbuf       int
	ackPending bool
	ack        func() // the coalesced-ACK timer's event, made with the channel

	// Failure-detector state (sender side): after a message exhausts its
	// retransmit budget the channel stops retransmitting and sends
	// exponential-backoff probes instead; a probe acknowledgement
	// resumes the suspended retransmit chains, while DefaultMaxProbes
	// unanswered probes declare dst dead.
	probing  bool
	probes   int      // probes sent in the current round
	probeRTO sim.Time // next probe's timeout
	probeGen int64    // invalidates stale probe-timer events
}

// unacked returns the window entry of sequence number seq, nil once a
// cumulative ACK has retired it.
func (c *relChan) unacked(seq int64) *outstanding {
	i := seq - c.nextSeq + int64(len(c.out)) - 1
	if i < 0 {
		return nil
	}
	return &c.out[i]
}

// busy reports whether c still owes its receiver something: an
// undelivered message in its window (unacked messages below expect
// await only their cumulative ACK, which carries no protocol state), an
// out-of-order arrival, or an open probe round.
func (c *relChan) busy() bool {
	return len(c.out) > 0 && c.nextSeq >= c.expect || c.nbuf > 0 || c.probing
}

// reliable is the fault-injection + reliable-delivery layer of one
// network. chans[src][dst] is the channel src->dst; a source's row is
// made on its first send or arrival, each channel on first use.
type reliable struct {
	n        *Network
	env      *sim.Env // the one Env of every node: faults are not partitioned
	f        config.Faults
	rng      rng
	chans    [][]*relChan
	detected []bool // peers already declared dead (idempotence)

	// Free lists of fired arrival and retransmit-timer events.
	arrivals []*arrival
	timers   []*rtimer
}

// arrival is one scheduled transmission reaching its destination NIC.
// It holds one reference to m until it fires.
type arrival struct {
	m    *Message
	fire func()
}

// rtimer is one armed retransmit timer of sequence number seq on c.
type rtimer struct {
	c    *relChan
	seq  int64
	fire func()
}

// newArrival returns a free arrival event for m, taking a reference.
func (r *reliable) newArrival(m *Message) *arrival {
	var a *arrival
	if k := len(r.arrivals); k > 0 {
		a = r.arrivals[k-1]
		r.arrivals = r.arrivals[:k-1]
	} else {
		a = &arrival{}
		a.fire = func() {
			m := a.m
			a.m = nil
			r.arrivals = append(r.arrivals, a)
			r.arrive(m)
		}
	}
	m.Retain()
	a.m = m
	return a
}

// newTimer returns a free retransmit-timer event for (c, seq).
func (r *reliable) newTimer(c *relChan, seq int64) *rtimer {
	var t *rtimer
	if k := len(r.timers); k > 0 {
		t = r.timers[k-1]
		r.timers = r.timers[:k-1]
	} else {
		t = &rtimer{}
		t.fire = func() {
			c, seq := t.c, t.seq
			t.c = nil
			r.timers = append(r.timers, t)
			r.timeout(c, seq)
		}
	}
	t.c, t.seq = c, seq
	return t
}

func newReliable(n *Network, env *sim.Env, f config.Faults) *reliable {
	return &reliable{n: n, env: env, f: f, rng: rng{s: f.Seed},
		chans: make([][]*relChan, n.mc.Nodes), detected: make([]bool, n.mc.Nodes)}
}

func (r *reliable) channel(src, dst int) *relChan {
	row := r.chans[src]
	if row == nil {
		row = make([]*relChan, len(r.chans))
		r.chans[src] = row
	}
	c := row[dst]
	if c == nil {
		c = &relChan{src: src, dst: dst, expect: 1}
		c.ack = func() { r.sendAck(c) }
		row[dst] = c
	}
	return c
}

// send assigns the message its sequence number, records it in the
// outstanding window, and launches the first transmission attempt. The
// caller's reference moves into the window.
func (r *reliable) send(m *Message) {
	c := r.channel(m.Src, m.Dst)
	c.nextSeq++
	m.Seq = c.nextSeq
	c.out = append(c.out, outstanding{m: m, rto: config.DefaultRetransmitTimeout})
	arrive := r.transmit(m, false)
	r.armTimer(c, m.Seq, arrive)
}

// transmit puts one attempt (original, retransmission, or ACK) on the
// wire through the fault model and returns its nominal (fault-free)
// arrival time. Data transmissions serialize behind the sender's queued
// traffic; acknowledgements ride a priority lane — 8-byte control
// packets cut through ahead of the data queue, as on a real NIC.
// Without the priority lane a backlogged link delays its own ACKs
// behind minutes of queued data, every RTO fires spuriously, and the
// retransmissions amplify the backlog into congestion collapse.
func (r *reliable) transmit(m *Message, retx bool) sim.Time {
	r.n.accountSend(m)
	ser := sim.Time(r.n.mc.MsgHeader+m.Size) * r.n.mc.NsPerByte
	var arrive sim.Time
	if ctrlKind(m.Kind) {
		arrive = r.env.Now() + ser + r.n.mc.WireLatency
	} else {
		arrive = r.n.wireArrival(m)
	}
	if r.n.tr != nil {
		depart := arrive - r.n.mc.WireLatency - ser
		r.n.traceTx(m, depart, depart+ser, retx)
	}
	r.inject(m, arrive)
	return arrive
}

// inject applies the fault model to one transmission whose nominal
// arrival time is arrive. The PRNG draw order (drop, dup, delay, and a
// second delay for the duplicate) is fixed so a seed fully determines
// the schedule. The sender's link was already occupied by wireArrival:
// dropped transmissions still burned serialization time, as on a real
// wire.
func (r *reliable) inject(m *Message, arrive sim.Time) {
	sst := &r.n.st.Nodes[m.Src]
	if r.channel(m.Src, m.Dst).blackhole {
		sst.WireDrops++
		return
	}
	dropped := r.f.Drop > 0 && r.rng.f64() < r.f.Drop
	duped := r.f.Dup > 0 && r.rng.f64() < r.f.Dup
	if dropped {
		sst.WireDrops++
	} else {
		at := arrive + r.delay()
		r.n.poolOf(m.Src).inflight++
		r.env.Schedule(at, r.newArrival(m).fire)
	}
	if duped {
		sst.WireDups++
		// The duplicate takes its own (independently jittered) path and
		// never lands at the exact same instant as the original.
		at := arrive + r.delay() + 1
		r.n.poolOf(m.Src).inflight++
		r.env.Schedule(at, r.newArrival(m).fire)
	}
}

// delay draws the extra in-flight delay of one transmission: uniform
// jitter, plus (with probability Reorder) a pause long enough to slip
// behind tens of subsequently sent messages — cross-pair reordering.
func (r *reliable) delay() sim.Time {
	var d sim.Time
	if r.f.Jitter > 0 {
		d += r.rng.timeIn(r.f.Jitter)
	}
	if r.f.Reorder > 0 && r.rng.f64() < r.f.Reorder {
		d += 20*sim.Microsecond + r.rng.timeIn(200*sim.Microsecond)
	}
	return d
}

// arrive is a transmission reaching the destination NIC, with the
// reference its arrival event held.
func (r *reliable) arrive(m *Message) {
	r.n.poolOf(m.Dst).inflight--
	if r.n.dead[m.Dst] || r.n.dead[m.Src] {
		r.n.Recycle(m) // crash-stop: traffic touching a dead node vanishes
		return
	}
	r.n.accountRecv(m)
	if ctrlKind(m.Kind) {
		switch m.Kind {
		case KindAck:
			r.handleAck(m)
		case KindProbe:
			r.handleProbe(m)
		default:
			r.handleProbeAck(m)
		}
		r.n.Recycle(m)
		return
	}
	c := r.channel(m.Src, m.Dst)
	dst := &r.n.st.Nodes[m.Dst]
	// Acknowledge everything in-order so far, even for duplicates: the
	// retransmission we are seeing means an earlier ACK was lost.
	r.scheduleAck(c)
	switch {
	case m.Seq < c.expect:
		// Stale duplicate of an already-delivered message.
		dst.DupsDropped++
		r.n.Recycle(m)
	case m.Seq == c.expect:
		c.expect++
		r.n.deliver(m)
		// buf[0] now holds seq expect: drain the run of buffered
		// successors, then drop the delivered slots and the new expect's.
		k := 0
		for ; k < len(c.buf) && c.buf[k] != nil; k++ {
			c.nbuf--
			c.expect++
			r.n.deliver(c.buf[k])
		}
		k = min(k+1, len(c.buf))
		rest := copy(c.buf, c.buf[k:])
		clear(c.buf[rest:])
		c.buf = c.buf[:rest]
	default:
		// Out of order: hold until the gap fills.
		i := int(m.Seq - c.expect - 1)
		if i >= len(c.buf) {
			// The gap is shorter than the sender's window (m is in it and
			// expect-1 is not), so growing to the window's capacity reaches
			// the high-water mark at once. Slots past len are nil.
			c.buf = slices.Grow(c.buf, max(i+1, cap(c.out))-len(c.buf))[:i+1]
		}
		if c.buf[i] != nil {
			dst.DupsDropped++
			r.n.Recycle(m)
		} else {
			c.buf[i] = m
			c.nbuf++
		}
	}
}

// scheduleAck coalesces acknowledgements: the first arrival in a window
// schedules one cumulative ACK config.DefaultAckDelay later; arrivals
// inside the window ride along for free.
func (r *reliable) scheduleAck(c *relChan) {
	if c.ackPending {
		return
	}
	c.ackPending = true
	r.env.After(config.DefaultAckDelay, c.ack)
}

// sendAck closes c's ACK window: one cumulative acknowledgement of
// everything delivered in order so far.
func (r *reliable) sendAck(c *relChan) {
	c.ackPending = false
	r.n.st.Nodes[c.dst].AcksSent++
	// The ACK travels the reverse direction, unsequenced, and takes its
	// own chances with the fault model; a lost ACK is repaired by the
	// sender's retransmission provoking a fresh one.
	r.sendCtrl(c.dst, c.src, KindAck, c.expect-1, ackSize)
}

// sendCtrl transmits one unsequenced NIC control message (ACK, probe or
// probe ack) drawn from the pool. The sender lets go of it at once: from
// then on, its scheduled arrivals hold the only references.
func (r *reliable) sendCtrl(src, dst int, kind Kind, arg int64, size int) {
	m := r.n.NewMessage(src)
	m.Src, m.Dst, m.Kind, m.Arg, m.Size = src, dst, kind, arg, size
	r.transmit(m, false)
	r.n.Recycle(m)
}

// handleAck retires the prefix of the window the cumulative ACK covers,
// releasing the window's references. The ACK from dst about channel
// (src→dst) arrives at src; a stale one covers nothing still held.
func (r *reliable) handleAck(m *Message) {
	c := r.channel(m.Dst, m.Src)
	if k := m.Arg - c.nextSeq + int64(len(c.out)); k > 0 {
		for _, o := range c.out[:k] {
			r.n.Recycle(o.m)
		}
		rest := copy(c.out, c.out[k:])
		clear(c.out[rest:])
		c.out = c.out[:rest]
	}
}

// armTimer starts the (single) retransmit timer for one outstanding
// sequence number, anchored at the transmission's nominal arrival time:
// a message queued behind the sender's own link backlog is not timed
// until it actually gets onto the wire (retransmitting a message that
// has not left yet only deepens the backlog). Exactly one timer chain
// exists per outstanding message: armed at send, re-armed at each
// timeout, dissolved when the ACK removes the window entry.
func (r *reliable) armTimer(c *relChan, seq int64, arrive sim.Time) {
	o := c.unacked(seq)
	if o == nil {
		return
	}
	r.env.Schedule(arrive+o.rto, r.newTimer(c, seq).fire)
}

// timeout fires when an outstanding message went unacknowledged for its
// full RTO past its transmission: retransmit, double the backoff,
// re-arm.
func (r *reliable) timeout(c *relChan, seq int64) {
	o := c.unacked(seq)
	if o == nil {
		return // acknowledged while the timer was in flight
	}
	sst := &r.n.st.Nodes[c.src]
	if mr := r.f.EffectiveMaxRetries(); mr > 0 && o.retries >= mr {
		// Retransmit exhaustion. Instead of discarding the message (the
		// pre-crash-layer give-up, which could only end in a watchdog
		// hang), park its retransmit chain and escalate to liveness
		// probing: cheap control packets with their own backoff decide
		// whether dst is dead or the wire is just vicious. A probe ack
		// resumes the parked chains; unanswered probes declare dst dead.
		sst.GiveUps++
		o.suspended = true
		r.escalate(c)
		return
	}
	o.retries++
	sst.Retransmits++
	o.rto = min(2*o.rto, config.DefaultMaxBackoff)
	arrive := r.transmit(o.m, true)
	r.armTimer(c, seq, arrive)
}

// escalate opens a probe round on c unless one is already running.
func (r *reliable) escalate(c *relChan) {
	if c.probing {
		return
	}
	c.probing = true
	c.probes = 0
	c.probeRTO = config.DefaultProbeTimeout
	c.probeGen++
	r.probe(c, c.probeGen)
}

// probe sends one liveness probe and arms its timeout; the round ends
// when a probe ack clears the probing flag (handleProbeAck) or when
// DefaultMaxProbes probes go unanswered and dst is declared dead.
func (r *reliable) probe(c *relChan, gen int64) {
	if !c.probing || c.probeGen != gen {
		return // answered (or superseded) while the timer was in flight
	}
	if c.probes >= config.DefaultMaxProbes {
		c.probing = false
		c.probeGen++
		r.declareDead(c.dst, fmt.Sprintf("%d liveness probes from node %d unanswered after retransmit exhaustion", c.probes, c.src))
		return
	}
	c.probes++
	r.n.st.Nodes[c.src].ProbesSent++
	r.sendCtrl(c.src, c.dst, KindProbe, 0, probeSize)
	rto := c.probeRTO
	c.probeRTO = min(2*c.probeRTO, config.DefaultMaxBackoff)
	r.env.After(rto, func() { r.probe(c, gen) })
}

// handleProbe answers a liveness probe: NIC firmware replies
// immediately on the control lane. Reaching this point at all means
// the destination is alive (dead nodes' arrivals are dropped earlier).
func (r *reliable) handleProbe(m *Message) {
	r.env.Progress()
	r.n.st.Nodes[m.Dst].ProbeAcks++
	r.sendCtrl(m.Dst, m.Src, KindProbeAck, 0, probeSize)
}

// handleProbeAck ends the probe round on the prober's channel and
// revives every parked retransmit chain: the peer is alive, the
// exhausted messages just met an unlucky wire.
func (r *reliable) handleProbeAck(m *Message) {
	r.env.Progress()
	c := r.channel(m.Dst, m.Src) // the probed channel runs m.Dst -> m.Src
	if !c.probing {
		return // stale ack from an earlier round
	}
	c.probing = false
	c.probeGen++
	sst := &r.n.st.Nodes[c.src]
	for i := range c.out {
		o := &c.out[i]
		if !o.suspended {
			continue
		}
		o.suspended = false
		o.retries = 0
		o.rto = config.DefaultRetransmitTimeout
		sst.Retransmits++
		arrive := r.transmit(o.m, true)
		r.armTimer(c, o.m.Seq, arrive)
	}
}

// Blackhole makes every transmission from src to dst vanish on the wire
// (a permanently failed unidirectional link; the reverse direction is
// unaffected). It is a fault-injection hook for exercising the stall
// watchdog and panics unless fault injection is active.
func (n *Network) Blackhole(src, dst int) {
	if n.rel == nil {
		panic("network: Blackhole requires active fault injection (config.Faults)")
	}
	n.rel.channel(src, dst).blackhole = true
}

// Unreliable reports whether fault injection (and therefore the
// reliable-delivery layer) is active.
func (n *Network) Unreliable() bool { return n.rel != nil }

// Probe opens a liveness-probe round from src to dst — the
// barrier-timeout membership check uses it to interrogate nodes that
// owe no traffic (so retransmit exhaustion would never notice them
// missing). Probing a crashed node is the very point: the unanswered
// round is what turns a silent peer into a detected death. No-op when
// a round is already running or fault injection is off.
func (n *Network) Probe(src, dst int) {
	if n.rel == nil || n.dead[src] || src == dst {
		return
	}
	n.rel.escalate(n.rel.channel(src, dst))
}

// ChannelsQuiescent reports whether every reliable-delivery channel
// has delivered everything it was given (none is busy). Trivially true
// when fault injection is off. One leg of the checkpoint layer's
// quiescence predicate.
func (n *Network) ChannelsQuiescent() bool {
	if n.rel == nil {
		return true
	}
	for _, row := range n.rel.chans {
		for _, c := range row {
			if c != nil && c.busy() {
				return false
			}
		}
	}
	return true
}

// RetransQueueDepth returns the number of unacknowledged messages node
// src is holding for retransmission across all its channels (the
// stall-watchdog dump includes it per node).
func (n *Network) RetransQueueDepth(src int) int {
	if n.rel == nil {
		return 0
	}
	depth := 0
	for _, c := range n.rel.chans[src] {
		if c != nil {
			depth += len(c.out)
		}
	}
	return depth
}

// DumpChannels renders every channel with in-flight work, by source
// then destination: its unacknowledged messages in sequence order with
// their retry counts, and how many out-of-order arrivals its receiver
// buffers. Used by the stall watchdog's diagnostic dump. Returns "" when
// idle or when fault injection is off.
func (n *Network) DumpChannels() string {
	if n.rel == nil {
		return ""
	}
	var b strings.Builder
	for _, row := range n.rel.chans {
		for _, c := range row {
			if c == nil || len(c.out) == 0 && c.nbuf == 0 && !c.probing {
				continue
			}
			probing := ""
			if c.probing {
				probing = fmt.Sprintf(" PROBING(%d sent)", c.probes)
			}
			fmt.Fprintf(&b, "  channel %d->%d: nextSeq=%d expect=%d unacked=%d buffered=%d%s\n",
				c.src, c.dst, c.nextSeq, c.expect, len(c.out), c.nbuf, probing)
			for _, o := range c.out {
				fmt.Fprintf(&b, "    unacked %v retries=%d rto=%dus\n", o.m, o.retries, o.rto/1000)
			}
		}
	}
	return b.String()
}

// declareDead reports a failure-detector verdict to the layer above.
// Idempotent per node: only the first detection fires the callback.
func (r *reliable) declareDead(node int, reason string) {
	if r.detected[node] {
		return
	}
	r.detected[node] = true
	if r.n.OnDeath != nil {
		r.n.OnDeath(node, reason)
	}
}
