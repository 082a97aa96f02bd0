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
//     arrive within an AckDelay window;
//   - the sender retransmits unacknowledged messages on a per-message
//     timer with exponential backoff (clamped at MaxBackoff).
//
// The layer is modeled as NIC firmware: ACKs and retransmissions
// occupy the wire (link serialization and latency, counted in the
// message/byte totals) but cost no host CPU, so the protocol engine's
// occupancy model is untouched. All randomness comes from one
// splitmix64 PRNG drawn in scheduler context, so a given seed always
// produces the same schedule. With fault injection inactive none of
// this code runs and the network is bit-identical to the seed model.
package network

import (
	"fmt"
	"sort"
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
type relChan struct {
	src, dst int

	// Sender side (lives conceptually at src).
	nextSeq int64
	out     map[int64]*outstanding

	// Receiver side (lives conceptually at dst).
	expect     int64 // next sequence number to deliver (first is 1)
	buf        map[int64]*Message
	ackPending bool

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

// reliable is the fault-injection + reliable-delivery layer of one
// network.
type reliable struct {
	n         *Network
	f         config.Faults
	rng       rng
	chans     map[[2]int]*relChan
	blackhole map[[2]int]bool
}

func newReliable(n *Network, f config.Faults) *reliable {
	return &reliable{
		n:         n,
		f:         f,
		rng:       rng{s: f.Seed},
		chans:     make(map[[2]int]*relChan),
		blackhole: make(map[[2]int]bool),
	}
}

func (r *reliable) channel(src, dst int) *relChan {
	key := [2]int{src, dst}
	c, ok := r.chans[key]
	if !ok {
		c = &relChan{src: src, dst: dst, expect: 1, out: make(map[int64]*outstanding), buf: make(map[int64]*Message)}
		r.chans[key] = c
	}
	return c
}

// send assigns the message its sequence number, records it in the
// outstanding window, and launches the first transmission attempt.
func (r *reliable) send(m *Message) {
	c := r.channel(m.Src, m.Dst)
	c.nextSeq++
	m.Seq = c.nextSeq
	c.out[m.Seq] = &outstanding{m: m, rto: r.f.EffectiveRetransmitTimeout()}
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
		arrive = r.n.env.Now() + ser + r.n.mc.WireLatency
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
	if r.blackhole[[2]int{m.Src, m.Dst}] {
		sst.WireDrops++
		return
	}
	dropped := r.f.Drop > 0 && r.rng.f64() < r.f.Drop
	duped := r.f.Dup > 0 && r.rng.f64() < r.f.Dup
	if dropped {
		sst.WireDrops++
	} else {
		at := arrive + r.delay()
		r.n.inflight++
		r.n.env.Schedule(at, func() { r.arrive(m) })
	}
	if duped {
		sst.WireDups++
		// The duplicate takes its own (independently jittered) path and
		// never lands at the exact same instant as the original.
		at := arrive + r.delay() + 1
		r.n.inflight++
		r.n.env.Schedule(at, func() { r.arrive(m) })
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

// arrive is a transmission reaching the destination NIC.
func (r *reliable) arrive(m *Message) {
	r.n.inflight--
	if r.n.dead[m.Dst] || r.n.dead[m.Src] {
		return // crash-stop: traffic touching a dead node vanishes
	}
	r.n.accountRecv(m)
	switch m.Kind {
	case KindAck:
		r.handleAck(m)
		return
	case KindProbe:
		r.handleProbe(m)
		return
	case KindProbeAck:
		r.handleProbeAck(m)
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
	case m.Seq == c.expect:
		c.expect++
		r.n.deliver(m)
		// Drain any buffered successors now in order.
		for {
			nxt, ok := c.buf[c.expect]
			if !ok {
				break
			}
			delete(c.buf, c.expect)
			c.expect++
			r.n.deliver(nxt)
		}
	default:
		// Out of order: hold until the gap fills.
		if _, dup := c.buf[m.Seq]; dup {
			dst.DupsDropped++
		} else {
			c.buf[m.Seq] = m
		}
	}
}

// scheduleAck coalesces acknowledgements: the first arrival in a window
// schedules one cumulative ACK AckDelay later; arrivals inside the
// window ride along for free.
func (r *reliable) scheduleAck(c *relChan) {
	if c.ackPending {
		return
	}
	c.ackPending = true
	r.n.env.After(r.f.EffectiveAckDelay(), func() {
		c.ackPending = false
		r.n.st.Nodes[c.dst].AcksSent++
		// The ACK travels the reverse direction, unsequenced, and takes
		// its own chances with the fault model; a lost ACK is repaired
		// by the sender's retransmission provoking a fresh one.
		r.transmit(&Message{Src: c.dst, Dst: c.src, Kind: KindAck, Arg: c.expect - 1, Size: ackSize}, false)
	})
}

// handleAck retires every outstanding message the cumulative ACK
// covers. The ACK from dst about channel (src→dst) arrives at src.
func (r *reliable) handleAck(m *Message) {
	c := r.channel(m.Dst, m.Src)
	// Deleting every sequence number <= the cumulative ACK is a pure
	// set subtraction: no retired entry is observed again, so the
	// visit order cannot leak into simulated state.
	//simlint:commutative
	for seq := range c.out {
		if seq <= m.Arg {
			delete(c.out, seq)
		}
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
	o, ok := c.out[seq]
	if !ok {
		return
	}
	r.n.env.Schedule(arrive+o.rto, func() { r.timeout(c, seq) })
}

// timeout fires when an outstanding message went unacknowledged for its
// full RTO past its transmission: retransmit, double the backoff,
// re-arm.
func (r *reliable) timeout(c *relChan, seq int64) {
	o, ok := c.out[seq]
	if !ok {
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
	o.rto *= 2
	if mb := r.f.EffectiveMaxBackoff(); o.rto > mb {
		o.rto = mb
	}
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
		r.n.declareDead(c.dst, fmt.Sprintf("%d liveness probes from node %d unanswered after retransmit exhaustion", c.probes, c.src))
		return
	}
	c.probes++
	r.n.st.Nodes[c.src].ProbesSent++
	r.transmit(&Message{Src: c.src, Dst: c.dst, Kind: KindProbe, Size: probeSize}, false)
	rto := c.probeRTO
	c.probeRTO *= 2
	if mb := r.f.EffectiveMaxBackoff(); c.probeRTO > mb {
		c.probeRTO = mb
	}
	r.n.env.After(rto, func() { r.probe(c, gen) })
}

// handleProbe answers a liveness probe: NIC firmware replies
// immediately on the control lane. Reaching this point at all means
// the destination is alive (dead nodes' arrivals are dropped earlier).
func (r *reliable) handleProbe(m *Message) {
	r.n.env.Progress()
	r.n.st.Nodes[m.Dst].ProbeAcks++
	r.transmit(&Message{Src: m.Dst, Dst: m.Src, Kind: KindProbeAck, Size: probeSize}, false)
}

// handleProbeAck ends the probe round on the prober's channel and
// revives every parked retransmit chain: the peer is alive, the
// exhausted messages just met an unlucky wire.
func (r *reliable) handleProbeAck(m *Message) {
	r.n.env.Progress()
	c := r.channel(m.Dst, m.Src) // the probed channel runs m.Dst -> m.Src
	if !c.probing {
		return // stale ack from an earlier round
	}
	c.probing = false
	c.probeGen++
	var seqs []int64
	for s, o := range c.out {
		if o.suspended {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	sst := &r.n.st.Nodes[c.src]
	for _, s := range seqs {
		o := c.out[s]
		o.suspended = false
		o.retries = 0
		o.rto = r.f.EffectiveRetransmitTimeout()
		sst.Retransmits++
		arrive := r.transmit(o.m, true)
		r.armTimer(c, s, arrive)
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
	n.rel.blackhole[[2]int{src, dst}] = true
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
// has delivered everything it was given: no out-of-order arrivals
// buffered, no probe round open, and every unacknowledged message
// already delivered (seq below the receiver's expect — such messages
// await only their cumulative ACK, which carries no protocol state).
// Trivially true when fault injection is off. One leg of the
// checkpoint layer's quiescence predicate.
func (n *Network) ChannelsQuiescent() bool {
	if n.rel == nil {
		return true
	}
	// Both loops are pure universally-quantified checks: the answer is
	// the conjunction over all channels/sequence numbers, independent
	// of visit order, and nothing is mutated.
	//simlint:commutative
	for _, c := range n.rel.chans {
		if len(c.buf) > 0 || c.probing {
			return false
		}
		//simlint:commutative
		for s := range c.out {
			if s >= c.expect {
				return false
			}
		}
	}
	return true
}

// DumpChannels renders the reliable-delivery state of every channel
// with in-flight work: outstanding (unacknowledged) messages with their
// retry counts, and out-of-order arrivals buffered at the receiver.
// Used by the stall watchdog's diagnostic dump. Returns "" when idle or
// when fault injection is off.
func (n *Network) DumpChannels() string {
	if n.rel == nil {
		return ""
	}
	var keys [][2]int
	for k, c := range n.rel.chans {
		if len(c.out) > 0 || len(c.buf) > 0 || c.probing {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var b strings.Builder
	for _, k := range keys {
		c := n.rel.chans[k]
		probing := ""
		if c.probing {
			probing = fmt.Sprintf(" PROBING(%d sent)", c.probes)
		}
		fmt.Fprintf(&b, "  channel %d->%d: nextSeq=%d expect=%d unacked=%d buffered=%d%s\n",
			k[0], k[1], c.nextSeq, c.expect, len(c.out), len(c.buf), probing)
		var seqs []int64
		for s := range c.out {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, s := range seqs {
			o := c.out[s]
			fmt.Fprintf(&b, "    unacked %v retries=%d rto=%dus\n", o.m, o.retries, o.rto/1000)
		}
	}
	return b.String()
}
