// Barrier-epoch message aggregation: a per-node NIC-level coalescing
// scheduler. Latency-tolerant protocol traffic — compiler-directed
// tagged data across different Transfers and arrays, flush-directory
// updates, mk_writable acknowledgements, and the eager-release-
// consistency upgrade/invalidation legs — is appended to a
// per-destination gather buffer instead of departing as a standalone
// message. Each buffer drains as ONE vectored wire message (a carrier)
// with one header and one handler dispatch at the receiver, which then
// scatters the contained segments to their original handlers.
//
// Drain discipline. Buffers only ever *delay* traffic, never reorder
// it against messages that matter: any non-carrier send from the same
// source to the same destination first drains that destination's
// buffer (the choke point lives in Network.Send), explicit drains run
// at the end of every compiler emission phase and at every
// synchronization entry (the barrier forces a flush), and segments
// appended from the protocol engine additionally arm a short timer so
// engine-generated bursts depart within the batch window even if the
// compute process never reaches a drain point. Carriers are injected through
// the protocol engine (the NIC composes them), so serialization
// overlaps compute and carriers never overtake engine replies composed
// earlier.
//
// Determinism: per-destination buffers are dense slices indexed by
// node id, FlushAll and the end of a handler burst drain in ascending
// destination order (a burst sorts the short list of destinations it
// touched instead of scanning every buffer), and no map is touched
// anywhere on the wire path.
package network

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
)

// SegHeader is the physical per-segment header inside a carrier:
// kind (1) + addr (4) + arg (4) + arg2 (4) + payload length (4).
// Message.Size of a carrier is the exact sum of its encoded segments,
// so byte accounting matches the wire format.
const SegHeader = 1 + 4 + 4 + 4 + 4

// dstBuf is one destination's open gather buffer.
type dstBuf struct {
	data     []byte   // encoded segments (pooled variable-size buffer)
	segs     int      // segments appended since the last drain
	deadline sim.Time // current timer deadline (engine appends only)
	burst    bool     // appended to during the current handler burst
}

// timerArg is the reusable ScheduleArg payload for drain timers; one
// per (coalescer, destination), so arming allocates nothing.
type timerArg struct {
	c   *Coalescer
	dst int
}

func timerEvent(a any) {
	ta := a.(*timerArg)
	ta.c.timerFire(ta.dst)
}

// Coalescer is one node's NIC-level coalescing scheduler.
type Coalescer struct {
	net     *Network
	env     *sim.Env // the Env node src's events run on (partition Env in PDES mode)
	src     int
	kind    Kind           // carrier message kind (protocol-defined)
	ctrl    int            // Size of a payload-free standalone message
	delay   sim.Time       // engine drain timer
	send    func(*Message) // carrier injection (the node's protocol engine)
	bufs    []dstBuf
	timers  []timerArg
	st      *stats.Node
	inBurst bool // inside a protocol-handler run (see Burst)
	// touched lists the destinations appended to during the current
	// burst, in append order; a destination drained at the choke point
	// and appended to again is listed twice.
	touched []int32
	dead    bool // torn down after a crash; appends and drains are inert
}

// AttachCoalescer creates and registers the coalescing scheduler for
// source node src. kind is the carrier message kind (the network
// treats it opaquely but must recognize it to avoid recursive drain
// triggers); ctrl is the protocol's control-message Size, so a
// single-segment drain reproduces the standalone message it replaces
// byte-for-byte; send injects a composed carrier — the protocol layer
// passes the node's engine-context send, so every carrier pays one
// SendOver and departs when the engine's queued work completes.
func (n *Network) AttachCoalescer(src int, kind Kind, ctrl int, delay sim.Time, send func(*Message)) *Coalescer {
	if n.coals == nil {
		n.coals = make([]*Coalescer, len(n.eps))
	}
	if n.coals[src] != nil {
		panic(fmt.Sprintf("network: node %d already has a coalescer", src))
	}
	c := &Coalescer{
		net: n, env: n.envOf(src), src: src, kind: kind, ctrl: ctrl, delay: delay, send: send,
		bufs:   make([]dstBuf, len(n.eps)),
		timers: make([]timerArg, len(n.eps)),
		st:     &n.st.Nodes[src],
	}
	for d := range c.timers {
		c.timers[d] = timerArg{c: c, dst: d}
	}
	n.coals[src] = c
	return c
}

// Append adds one segment bound for dst to the open gather buffer.
// payload may be nil for control segments. With timer set (engine-
// context appends), an empty buffer arms the drain timer: the segment
// departs at most c.delay later. Compute-context appends leave the
// timer off — the emission phase ends with an explicit drain, and
// every synchronization entry drains as a backstop.
func (c *Coalescer) Append(dst int, kind Kind, addr int, arg, arg2 int64, payload []byte, timer bool) {
	if dst == c.src {
		panic("network: coalescer append to self")
	}
	if c.dead {
		return // torn down: a crashed node buffers nothing
	}
	b := &c.bufs[dst]
	need := SegHeader + len(payload)
	if b.data == nil {
		b.data = c.net.AllocVar(c.src, need)[:0]
	}
	off := len(b.data)
	if off+need > cap(b.data) {
		grown := c.net.AllocVar(c.src, off+need)[:off]
		copy(grown, b.data)
		c.net.recycleVar(c.src, b.data)
		b.data = grown
	}
	b.data = b.data[:off+need]
	seg := b.data[off:]
	seg[0] = byte(kind)
	binary.LittleEndian.PutUint32(seg[1:], uint32(addr))
	binary.LittleEndian.PutUint32(seg[5:], uint32(arg))
	binary.LittleEndian.PutUint32(seg[9:], uint32(arg2))
	binary.LittleEndian.PutUint32(seg[13:], uint32(len(payload)))
	copy(seg[SegHeader:], payload)
	b.segs++
	c.st.SegsCoalesced++
	if c.inBurst && !b.burst {
		b.burst = true
		c.touched = append(c.touched, int32(dst))
	}
	if timer && b.segs == 1 {
		// Batch window: the first append opens a window of c.delay and
		// the buffer drains when it closes, no matter how many later
		// appends joined. (A refreshing debounce would hold a steady
		// request stream back until the next synchronization point.)
		b.deadline = c.env.Now() + c.delay
		c.env.ScheduleArg(b.deadline, timerEvent, &c.timers[dst])
	}
}

// Pending returns the number of segments buffered for dst.
func (c *Coalescer) Pending(dst int) int { return c.bufs[dst].segs }

// Burst brackets one protocol-handler run. begin marks the start; the
// matching end drains, in ascending destination order, exactly the
// buffers the handler appended to — the handler's scatter IS the burst,
// so its composed replies depart together with no timer latency. The
// drain timer remains as a backstop for engine appends made outside
// handler runs (deferred directory work).
func (c *Coalescer) Burst(begin bool) {
	if begin {
		c.inBurst = true
		return
	}
	c.inBurst = false
	slices.Sort(c.touched)
	for _, d := range c.touched {
		if c.bufs[d].burst {
			c.FlushDst(int(d))
		}
	}
	c.touched = c.touched[:0]
}

// PendingAny reports whether any destination has buffered segments.
func (c *Coalescer) PendingAny() bool {
	for d := range c.bufs {
		if c.bufs[d].segs > 0 {
			return true
		}
	}
	return false
}

// Occupancy returns the total buffered segments and encoded bytes
// across all destinations (stall-watchdog diagnostics).
func (c *Coalescer) Occupancy() (segs, bytes int) {
	for d := range c.bufs {
		segs += c.bufs[d].segs
		bytes += len(c.bufs[d].data)
	}
	return segs, bytes
}

// Teardown is the crash-stop drain path: it discards every buffered
// segment and permanently disables the scheduler, so a node that dies
// inside an open batch window can neither compose a posthumous carrier
// when the armed drain timer fires nor strand segments in a buffer
// that looks live. (A graceful quiesce — barrier entry or NICDrain —
// flushes instead; see FlushAll.)
func (c *Coalescer) Teardown() {
	for d := range c.bufs {
		b := &c.bufs[d]
		if b.data != nil {
			c.net.recycleVar(c.src, b.data)
		}
		b.data, b.segs, b.burst, b.deadline = nil, 0, false, 0
	}
	c.touched = c.touched[:0]
	c.dead = true
}

// timerFire is the drain-timer event: a buffer that has reached its
// deadline drains. An earlier (stale) timer for a buffer whose
// deadline moved forward does nothing — the arming append scheduled a
// fresh event at the new deadline only when the buffer was empty, and
// a later append's deadline is always covered by a pending event at or
// before it plus this guard re-checking on every fire.
func (c *Coalescer) timerFire(dst int) {
	b := &c.bufs[dst]
	if c.dead || b.segs == 0 {
		return // a dead node's armed window must not compose a carrier
	}
	if now := c.env.Now(); now < b.deadline {
		// Deadline moved (flush + refill since this event was armed):
		// re-check at the current deadline.
		c.env.ScheduleArg(b.deadline, timerEvent, &c.timers[dst])
		return
	}
	c.FlushDst(dst)
}

// FlushDst composes and injects dst's buffered segments as one carrier
// message. A buffer holding a single segment bypasses the carrier
// framing: it departs as a standalone message of its original kind —
// same bytes, no scatter dispatch at the receiver — so destinations
// that never accumulate a batch pay nothing for the machinery. No-op
// on an empty buffer.
func (c *Coalescer) FlushDst(dst int) {
	b := &c.bufs[dst]
	if c.dead || b.segs == 0 {
		return
	}
	data, segs := b.data, b.segs
	b.data = nil
	b.segs = 0
	b.burst = false
	if segs == 1 {
		var m *Message
		ForEachSegment(data, 1, func(kind Kind, addr int, arg, arg2 int64, payload []byte) {
			m = c.net.NewMessage(c.src)
			m.Src, m.Dst, m.Kind, m.Addr, m.Arg, m.Arg2 = c.src, dst, kind, addr, arg, arg2
			if m.Size = len(payload); m.Size < c.ctrl {
				m.Size = c.ctrl
			}
			if len(payload) > 0 {
				if len(payload) == c.net.mc.BlockSize {
					m.Data = c.net.AllocBlock(c.src)
				} else {
					m.Data = c.net.AllocVar(c.src, len(payload))[:len(payload)]
				}
				copy(m.Data, payload)
				m.DataPooled = true
			}
		})
		c.net.recycleVar(c.src, data)
		c.st.SegsCoalesced-- // never traveled coalesced
		c.send(m)
		return
	}
	m := c.net.NewMessage(c.src)
	m.Src, m.Dst, m.Kind = c.src, dst, c.kind
	m.Arg = int64(segs)
	m.Data, m.DataPooled = data, true
	m.Size = len(data)
	c.st.CarriersSent++
	c.send(m)
}

// FlushAll drains every destination's buffer, in ascending
// destination order (deterministic).
func (c *Coalescer) FlushAll() {
	for d := range c.bufs {
		c.FlushDst(d)
	}
}

// ForEachSegment decodes a carrier payload, invoking fn for each of
// the n contained segments in append order. The payload slice passed
// to fn aliases data and is only valid during the call.
func ForEachSegment(data []byte, n int, fn func(kind Kind, addr int, arg, arg2 int64, payload []byte)) {
	off := 0
	for i := 0; i < n; i++ {
		if off+SegHeader > len(data) {
			panic(fmt.Sprintf("network: carrier truncated at segment %d/%d (offset %d of %d)", i, n, off, len(data)))
		}
		kind := Kind(data[off])
		addr := int(binary.LittleEndian.Uint32(data[off+1:]))
		arg := int64(binary.LittleEndian.Uint32(data[off+5:]))
		arg2 := int64(binary.LittleEndian.Uint32(data[off+9:]))
		plen := int(binary.LittleEndian.Uint32(data[off+13:]))
		off += SegHeader
		if off+plen > len(data) {
			panic(fmt.Sprintf("network: carrier payload truncated at segment %d/%d", i, n))
		}
		var payload []byte
		if plen > 0 {
			payload = data[off : off+plen]
		}
		off += plen
		fn(kind, addr, arg, arg2, payload)
	}
}
