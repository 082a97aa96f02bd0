package compiler

import "hpfdsm/internal/protocol"

// Calls receives the run-time calls of the paper's Figure 2 / Section
// 4.2 sequence, one method per call, in the order one node makes them.
// Everything that needs the sequence is a sink of it: the executor
// forwards to the protocol, crash recovery's ghost replay counts the
// barriers, the static verifier records, hpfc -calls prints. A block
// list is only valid during the call (it is the emitter's scratch).
type Calls interface {
	MkWritable(blocks []protocol.BlockRun)
	ImplicitWritable(blocks []protocol.BlockRun)
	Expect(blocks int) // blocks the next ReadyToRecv waits for
	Send(t *Transfer)
	ReadyToRecv()
	Flush(t *Transfer)
	ImplicitInvalidate(blocks []protocol.BlockRun)
	Barrier()
	// Drain closes an emission phase (the sends before a loop, the
	// flushes after it) so that aggregated carriers depart even when
	// this node receives nothing.
	Drain()
}

// Emitter is the one definition of that sequence: Pre, the caller's loop
// body, Post. What run-time elimination and PRE drop is decided here
// and nowhere else. The zero value is ready; it keeps the block-list
// scratch, so a walk in steady state allocates nothing.
type Emitter struct {
	buf []protocol.BlockRun
}

// blocks gathers the block runs of ts[i], i in idx, leaving out the
// reads skip skips (nil for write transfers: PRE never skips one).
func (em *Emitter) blocks(ts []Transfer, idx []int32, skip *Plan) []protocol.BlockRun {
	em.buf = em.buf[:0]
	for _, i := range idx {
		if skip == nil || !skip.Skips(i) {
			em.buf = append(em.buf, ts[i].Blocks...)
		}
	}
	return em.buf
}

// Pre emits what node does before the body of the loop instance planned
// as pl. A nil plan is a loop below OptBase: the default protocol moves
// its data and there is nothing to set up.
func (em *Emitter) Pre(pl *Plan, node int, level Level, c Calls) {
	if pl == nil || pl.LiveReads+pl.LiveWrites == 0 {
		// No compiler-controlled communication this time (possibly all
		// of it skipped by PRE).
		return
	}
	s, v := pl.Sched, pl.Sched.View(node)
	rtElim := level >= OptRTElim

	// Step 1: senders and non-owner writers take their blocks writable.
	// The read side is skippable under run-time elimination (the owner
	// already holds them from the default protocol's effect); the write
	// side is not — "the owner has to send the block to the writer, just
	// as in the non-owner read case", and the paper's whole-program
	// assumptions exclude non-owner writes, so where they exist the
	// calls stay. The barrier orders step 1 before step 2 (a reader may
	// be a block's home).
	if !rtElim {
		if b := em.blocks(s.Reads, v.ReadSend, pl); len(b) > 0 {
			c.MkWritable(b)
		}
	}
	if b := em.blocks(s.Writes, v.WriteSend, nil); len(b) > 0 {
		c.MkWritable(b)
	}
	if !rtElim || pl.LiveWrites > 0 {
		c.Barrier()
	}

	// Step 2: receivers open readwrite frames for the incoming data, and
	// owners for what is flushed back after the loop.
	expect := 0
	for _, i := range v.ReadRecv {
		if !pl.Skips(i) {
			expect += s.Reads[i].NumBlocks
		}
	}
	if expect > 0 {
		c.ImplicitWritable(em.blocks(s.Reads, v.ReadRecv, pl))
	}
	if b := em.blocks(s.Writes, v.WriteRecv, nil); len(b) > 0 {
		c.ImplicitWritable(b)
	}
	if expect > 0 {
		c.Expect(expect)
	}
	// Both sides ready before the transfer. Under run-time elimination
	// the frames persist, so a repeat of the identical schedule — the
	// paper's "same range of blocks" test — skips this barrier; a
	// changed one (lu's per-step pivot column) cannot: receivers must
	// open the new frames first.
	if !rtElim || !pl.Repeat {
		c.Barrier()
	}

	// The transfer: owners push, readers hold a counting semaphore.
	sent := false
	for _, i := range v.ReadSend {
		if !pl.Skips(i) {
			c.Send(&s.Reads[i])
			sent = true
		}
	}
	if sent {
		c.Drain()
	}
	if expect > 0 {
		c.ReadyToRecv()
	}
}

// Post emits what node does after the body. A reduction's combine has
// already synchronized the nodes, so it takes no closing barrier.
func (em *Emitter) Post(pl *Plan, node int, level Level, reduce bool, c Calls) {
	var s *Schedule
	var v View
	if pl != nil {
		s, v = pl.Sched, pl.Sched.View(node)
	}
	// Non-owner writes flush back to the owner, who waits for them.
	for _, i := range v.WriteSend {
		c.Flush(&s.Writes[i])
	}
	if len(v.WriteSend) > 0 {
		c.Drain()
	}
	if !reduce {
		c.Barrier() // the loop's closing barrier
	}
	flushed := 0
	for _, i := range v.WriteRecv {
		flushed += s.Writes[i].NumBlocks
	}
	if flushed > 0 {
		c.Expect(flushed)
		c.ReadyToRecv()
	}
	// Readers re-invalidate their frames so the directory's belief (the
	// sender holds the only copy) is true again; eliminated under the
	// whole-program assumptions (the frames are refilled next time). The
	// condition is on the whole schedule, so every node agrees on
	// whether the extra barrier happens.
	rtElim := level >= OptRTElim
	if pl != nil && !rtElim && len(s.Reads) > 0 {
		if b := em.blocks(s.Reads, v.ReadRecv, nil); len(b) > 0 {
			c.ImplicitInvalidate(b)
		}
		c.Barrier()
	}
}
