package runtime

import (
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/network"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// Backend selects the execution substrate.
type Backend int

// Backends.
const (
	// SharedMemory runs on the coherent fine-grain DSM (the paper's
	// main system).
	SharedMemory Backend = iota
	// MessagePassing runs the PGI-style baseline: private memories,
	// exact-section sends derived from the same analysis, and blocking
	// receives instead of coherence. No barriers are needed around
	// loops — message arrival is the synchronization.
	MessagePassing
)

func (b Backend) String() string {
	if b == MessagePassing {
		return "message-passing"
	}
	return "shared-memory"
}

// KMPData carries one contiguous run of a section in the
// message-passing backend.
const KMPData network.Kind = 100

// mpState is the per-node message-passing runtime state. Communication
// proceeds in phases (one per loop's pre- and post-communication, in
// program order, identically numbered on every node); messages carry
// their phase so a sender running ahead cannot clobber a ghost region
// the receiver is still reading — the moral equivalent of MPI message
// tags.
type mpState struct {
	phase  int64
	recv   *sim.Counter // bytes received for the current phase
	queued map[int64][]*network.Message
}

// installMP registers the message-passing data handler on every node.
func installMP(execs []*exec) {
	for _, e := range execs {
		e.mp = &mpState{recv: sim.NewCounter(), queued: map[int64][]*network.Message{}}
		ee := e
		e.n.On(KMPData, func(hc *tempest.HContext, m *network.Message) {
			if m.Arg2 != ee.mp.phase {
				// Early arrival from a sender already in a later
				// phase: hold it until this node catches up.
				m.Retain()
				ee.mp.queued[m.Arg2] = append(ee.mp.queued[m.Arg2], m)
				return
			}
			ee.mpInstall(m)
		})
	}
}

// mpInstall unpacks one data message on the compute processor (the
// paper suspects PGI's port did not exploit the dual-CPU communication
// facilities well).
func (e *exec) mpInstall(m *network.Message) {
	mc := e.n.MC
	e.n.StealCompute(mc.MPRecvOver + sim.Time(len(m.Data))*mc.MPPackPerByte)
	e.n.Mem.InstallRange(m.Addr, m.Data)
	e.mp.recv.Add(int64(len(m.Data)))
}

// mpSend ships one transfer's exact section (no block alignment) to
// node to, one message per contiguous run, split at MaxPayload.
func (e *exec) mpSend(p *sim.Proc, t *compiler.Transfer, to int) {
	mc := e.n.MC
	lay := e.layouts[t.Array]
	for _, run := range sections.CoalesceRuns(lay.Runs(t.Sec)) {
		for off := 0; off < run.Bytes; off += mc.MaxPayload {
			nb := run.Bytes - off
			if nb > mc.MaxPayload {
				nb = mc.MaxPayload
			}
			addr := run.Addr + off
			data := make([]byte, nb)
			copy(data, e.n.Mem.Bytes(addr, nb))
			e.n.Compute(mc.MPSendOver + sim.Time(nb)*mc.MPPackPerByte)
			e.n.Sync(p)
			m := e.n.Net.NewMessage(e.n.ID)
			m.Src, m.Dst, m.Kind = e.n.ID, to, KMPData
			m.Addr, m.Arg2, m.Data = addr, e.mp.phase, data
			e.n.Net.Send(m)
		}
	}
}

// mpBytes sums the exact section bytes of the transfers ts[i], i in idx.
func mpBytes(ts []compiler.Transfer, idx []int32) int64 {
	var n int64
	for _, i := range idx {
		n += int64(ts[i].Sec.Count() * 8)
	}
	return n
}

// mpPhase closes one communication phase, after this node's sends:
// wait for the expected incoming bytes, then advance to the next phase
// and drain any early arrivals for it.
func (e *exec) mpPhase(p *sim.Proc, expected int64) {
	e.n.Sync(p)
	start := p.Now()
	e.mp.recv.WaitFor(p, expected)
	e.n.St.CommTime += p.Now() - start

	e.mp.phase++
	e.mp.recv.Reset()
	for _, m := range e.mp.queued[e.mp.phase] {
		e.mpInstall(m)
	}
	delete(e.mp.queued, e.mp.phase)
}

// mpPreLoop exchanges the loop's read sections, plus the current
// contents of non-owner-write sections (owner -> writer): the writer's
// post-loop flush ships the whole section back, so any elements it
// does not overwrite (e.g. off-lattice columns of a strided loop) must
// be current in its buffer first — the message-passing analogue of the
// shared-memory contract's "the owner has to send the block to the
// writer, just as in the non-owner read case".
func (e *exec) mpPreLoop(p *sim.Proc, sched *compiler.Schedule) {
	v := sched.SectionView(e.n.ID)
	for _, i := range v.ReadSend {
		t := &sched.Reads[i]
		e.mpSend(p, t, t.Receiver)
	}
	for _, i := range v.WriteRecv {
		t := &sched.Writes[i]
		e.mpSend(p, t, t.Sender)
	}
	e.mpPhase(p, mpBytes(sched.Reads, v.ReadRecv)+mpBytes(sched.Writes, v.WriteSend))
}

// mpPostLoop flushes non-owner writes to the owners, who wait for them.
func (e *exec) mpPostLoop(p *sim.Proc, sched *compiler.Schedule) {
	v := sched.SectionView(e.n.ID)
	for _, i := range v.WriteSend {
		t := &sched.Writes[i]
		e.mpSend(p, t, t.Receiver)
	}
	e.mpPhase(p, mpBytes(sched.Writes, v.WriteRecv))
}
