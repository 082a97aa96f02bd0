package analysis

import (
	"fmt"
	"slices"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
)

// missingFrom returns the blocks of runs not present in have, rendered
// compactly ("" when fully covered).
func missingFrom(runs, have []protocol.BlockRun) string {
	miss := sections.Minus(runs, have)
	if len(miss) == 0 {
		return ""
	}
	return fmt.Sprint(sections.Blocks(miss))
}

// CheckLoopCalls verifies one modeled loop instance against the Section
// 4.2 contract and advances the model's happens-before state (frame
// open phases, global barrier phase). Diagnostics go to the model's
// report; duplicates of already-reported findings are dropped there.
func (m *Model) CheckLoopCalls(lc *LoopCalls) {
	np := m.an.NP
	site := lc.Site
	f := lc.f
	f.canonical()

	// diag reports a finding about the transfer t, or about the loop
	// instance when t is nil; a transfer's site is built only here.
	found := 0
	diag := func(sev Severity, rule string, t *compiler.Transfer, format string, args ...any) {
		found++
		s := site
		if t != nil {
			s = transferSite(site, t)
		}
		m.addDiag(Diag{Severity: sev, Rule: rule, Site: s, Msg: fmt.Sprintf(format, args...)})
		if sev == Error {
			m.report.markBroken(s.Loop, rule)
		}
	}

	// ---- Barrier parity: mismatched counts deadlock the machine. ----
	m.report.markChecked(site.Loop, RuleBarrier)
	for n := 1; n < np; n++ {
		if f.barriers[n] != f.barriers[0] {
			diag(Error, RuleBarrier, nil,
				"node %d reaches %d barrier(s) where node 0 reaches %d — the loop deadlocks",
				n, f.barriers[n], f.barriers[0])
		}
	}

	// ---- Happens-before: frames must open strictly before arrival. ----
	// Process frame events and arrivals in barrier-phase order, each in
	// the order made; within a phase, opens first (an open at the
	// arrival's own phase is still unordered with it and is flagged). An
	// instance spans only the few phases its barriers make, so one pass
	// over the events per phase does.
	if lc.Sched != nil {
		m.report.markChecked(site.Loop, RuleFrameOrder)
	}
	for ph := f.phase; ph <= f.phase+slices.Max(f.barriers); ph++ {
		for _, e := range f.frames {
			if e.phase == ph {
				m.frameCall(e)
			}
		}
		for _, a := range f.arrivals {
			if a.phase != ph {
				continue
			}
			if m.onEvent != nil {
				m.onEvent(a)
			}
			// The blocks no frame opened in an earlier phase covers, and of
			// those the ones no frame covers at all; a clean schedule leaves
			// none, and then no block is looked at singly.
			late := m.frames.late(a.dst, a.phase, a.blocks)
			if len(late) == 0 {
				continue
			}
			unopened := m.frames.unopened(a.dst, late)
			for _, b := range sections.Blocks(late) {
				if sections.ContainsBlock(unopened, b) {
					diag(Error, RuleFrameOrder, nil,
						"%v from node %d delivers block %d but node %d has no implicit_writable frame open for it — the payload would land on an invalid copy",
						a.kind, a.node, b, a.dst)
				} else {
					diag(Error, RuleFrameOrder, nil,
						"%v from node %d delivers block %d in the same barrier phase node %d opens its frame — no barrier orders implicit_writable before the transfer",
						a.kind, a.node, b, a.dst)
				}
			}
		}
	}

	// ---- Send extents: emitted sends vs the schedule's transfers. ----
	if len(lc.Reads) > 0 {
		m.report.markChecked(site.Loop, RuleSendExtent)
		m.report.markChecked(site.Loop, RuleRecvMatch)
		m.report.markChecked(site.Loop, RuleSendOwner)
	}
	schedTo := m.schedTo
	for n := range schedTo {
		schedTo[n] = schedTo[n][:0]
	}
	for i := range lc.Reads {
		t := &lc.Reads[i]
		schedTo[t.Receiver] = append(schedTo[t.Receiver], t.Blocks...)
		if miss := missingFrom(t.Blocks, f.sentSet[t.Receiver]); miss != "" {
			diag(Error, RuleSendExtent, t,
				"scheduled transfer node %d -> node %d is not fully emitted: blocks %s are never sent",
				t.Sender, t.Receiver, miss)
		}
		// Sender must own every column of the section: at rtelim+ the
		// read-side mk_writable is elided on the assumption that the
		// sender's copy is its owned (authoritative) data.
		d := m.an.Dist(t.Array)
		cols := t.Sec.Dims[len(t.Sec.Dims)-1]
		for col := cols.Lo; col <= cols.Hi; col++ {
			if o := d.Owner(col); o != t.Sender {
				diag(Error, RuleSendOwner, t,
					"send originates at node %d but column %d is owned by node %d — the sender's copy is not authoritative",
					t.Sender, col, o)
				break
			}
		}
	}
	for n := 0; n < np; n++ {
		if extra := sections.Minus(f.sentSet[n], schedTo[n]); len(extra) > 0 {
			diag(Error, RuleSendExtent, nil,
				"node %d receives unscheduled blocks %v — no transfer in the schedule covers them",
				n, sections.Blocks(extra))
		}
	}

	// ---- Receive matching: every send needs a counted ready_to_recv. ----
	sentPre, flushIn := f.sentPre, f.flushIn
	expectPre, expectPost := f.expect[0], f.expect[1]
	readyPre, readyPost := f.ready[0], f.ready[1]
	for r := 0; r < np; r++ {
		if sentPre[r] > 0 {
			if !readyPre[r] {
				diag(Error, RuleRecvMatch, nil,
					"%d block(s) are sent to node %d but it never calls ready_to_recv before the loop body — the transfer is unacknowledged and the sender's next barrier can pass stale data",
					sentPre[r], r)
			} else if expectPre[r] != sentPre[r] {
				diag(Error, RuleRecvMatch, nil,
					"node %d expects %d block(s) before the body but %d are sent — ready_to_recv would %s",
					r, expectPre[r], sentPre[r], stallOrRace(expectPre[r], sentPre[r]))
			}
		} else if expectPre[r] > 0 {
			diag(Error, RuleRecvMatch, nil,
				"node %d expects %d block(s) before the body but nothing is sent to it — ready_to_recv stalls forever",
				r, expectPre[r])
		}
		if flushIn[r] > 0 {
			if !readyPost[r] {
				diag(Error, RuleRecvMatch, nil,
					"%d flushed block(s) reach node %d but it never calls ready_to_recv after the loop — flushed updates are unacknowledged",
					flushIn[r], r)
			} else if expectPost[r] != flushIn[r] {
				diag(Error, RuleRecvMatch, nil,
					"node %d expects %d flushed block(s) but %d are flushed — ready_to_recv would %s",
					r, expectPost[r], flushIn[r], stallOrRace(expectPost[r], flushIn[r]))
			}
		} else if expectPost[r] > 0 {
			diag(Error, RuleRecvMatch, nil,
				"node %d expects %d flushed block(s) but nothing is flushed to it — ready_to_recv stalls forever",
				r, expectPost[r])
		}
	}

	// ---- Write coverage: mk_writable taken, flush delivered, home right. ----
	if len(lc.Writes) > 0 {
		m.report.markChecked(site.Loop, RuleWriteFlush)
		m.report.markChecked(site.Loop, RuleFlushOwner)
	}
	for i := range lc.Writes {
		t := &lc.Writes[i]
		if miss := missingFrom(t.Blocks, f.mkw[t.Sender]); miss != "" {
			diag(Error, RuleWriteFlush, t,
				"non-owner write on node %d: blocks %s are written without a pre-loop mk_writable — the writes land on an invalid copy",
				t.Sender, miss)
		}
		if miss := missingFrom(t.Blocks, f.flushedTo(t.Sender, t.Receiver)); miss != "" {
			diag(Error, RuleWriteFlush, t,
				"mk_writable is taken on node %d but blocks %s are never flushed to home node %d — the updates would be lost past the closing barrier",
				t.Sender, miss, t.Receiver)
		}
		d := m.an.Dist(t.Array)
		cols := t.Sec.Dims[len(t.Sec.Dims)-1]
		for col := cols.Lo; col <= cols.Hi; col++ {
			if o := d.Owner(col); o != t.Receiver {
				diag(Error, RuleFlushOwner, t,
					"flush targets node %d but column %d is owned by node %d — the owner keeps a stale copy",
					t.Receiver, col, o)
				break
			}
		}
	}

	// ---- shmem_limits: blocks are the aligned interior, in bounds. ----
	if lc.Sched != nil && len(lc.Reads)+len(lc.Writes) > 0 {
		m.report.markChecked(site.Loop, RuleAlignment)
	}
	// A schedule whose every transfer passed is not checked again.
	if before := found; !m.aligned[lc.Sched] {
		for _, ts := range [...][]compiler.Transfer{lc.Reads, lc.Writes} {
			for i := range ts {
				m.checkAlignment(&ts[i], diag)
			}
		}
		m.aligned[lc.Sched] = found == before && len(lc.Skipped) == 0 // every live read passed
	}

	// ---- PRE elisions: every skip re-validated independently. ----
	if len(lc.Skipped) > 0 {
		m.report.markChecked(site.Loop, RuleElision)
	}
	for _, sk := range lc.Skipped {
		if !sk.Live {
			diag(Error, RuleElision, &sk.T,
				"OptPRE drops the transfer node %d -> node %d, but the previously delivered copy was invalidated by an intervening write to %s (or never delivered) — a lower level proves the transfer necessary",
				sk.T.Sender, sk.T.Receiver, sk.T.Array.Name)
		}
	}

	m.phase += f.barriers[0]
	m.report.Instances++
}

func stallOrRace(expect, sent int) string {
	if expect > sent {
		return "stall forever"
	}
	return "return before all data arrived"
}

func transferSite(base Site, t *compiler.Transfer) Site {
	base.Array = t.Array.Name
	base.Sec = secString(t.Sec)
	return base
}

// checkAlignment recomputes shmem_limits for a transfer's section and
// compares: the transfer's blocks must be exactly the block-aligned
// interior of the section, within the array's allocation, with the edge
// byte count accounting for the remainder.
func (m *Model) checkAlignment(t *compiler.Transfer, diag func(Severity, string, *compiler.Transfer, string, ...any)) {
	lay := m.an.Layouts[t.Array]
	bs := m.an.BlockSize
	want, edges, total := lay.Cover(t.Sec, bs, m.interior, m.edges)
	m.interior, m.edges = want, edges
	alignedBytes := sections.CountBlocks(want) * bs
	got := sections.Normalize(t.Blocks)
	if !slices.Equal(got, want) {
		diag(Error, RuleAlignment, t,
			"transfer carries %d block(s) but the block-aligned interior of the section has %d — shmem_limits shrink is wrong",
			sections.CountBlocks(got), sections.CountBlocks(want))
	} else if n := sections.CountBlocks(t.Blocks); n != t.NumBlocks {
		// The count the receivers expect and the transport policy sums.
		diag(Error, RuleAlignment, t,
			"transfer claims %d aligned block(s) but its runs cover %d",
			t.NumBlocks, n)
	}
	if t.EdgeBytes != total-alignedBytes {
		diag(Error, RuleAlignment, t,
			"edge accounting: section is %dB with a %dB aligned interior, but the transfer claims %dB of edges",
			total, alignedBytes, t.EdgeBytes)
	}
	alloc := lay.Blocks(bs)
	for _, r := range t.Blocks {
		if r.Start < alloc.Start || r.End() > alloc.End() {
			diag(Error, RuleAlignment, t,
				"blocks [%d,%d) fall outside the array's allocation (blocks [%d,%d))",
				r.Start, r.End(), alloc.Start, alloc.End())
		}
	}
}
