package analysis

import (
	"fmt"
	"slices"
	"sort"

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

// phased is a call with the barrier phase its node makes it in.
type phased struct {
	phase int
	Call
}

// CheckLoopCalls verifies one modeled loop instance against the Section
// 4.2 contract and advances the model's happens-before state (frame
// open phases, global barrier phase). Diagnostics go to the model's
// report; duplicates of already-reported findings are dropped there.
func (m *Model) CheckLoopCalls(lc *LoopCalls) {
	np := m.an.NP
	site := lc.Site

	diag := func(sev Severity, rule string, s Site, format string, args ...any) {
		m.addDiag(Diag{Severity: sev, Rule: rule, Site: s, Msg: fmt.Sprintf(format, args...)})
		if sev == Error {
			m.report.markBroken(s.Loop, rule)
		}
	}
	// ---- Pass 1: scan each node's call list positionally. ----
	var frameEvs []phased // implicit_writable and implicit_invalidate
	var arrivals []phased // send and flush: data landing on Dst's memory
	barrierCount := make([]int, np)
	expectPre := make([]int, np)
	expectPost := make([]int, np)
	readyPre := make([]bool, np)
	readyPost := make([]bool, np)
	mkw := make([][]protocol.BlockRun, np) // blocks node makes writable (pre-body)
	sentPre := make([]int, np)             // blocks sent to node (pre-body)
	flushIn := make([]int, np)             // blocks flushed to node
	sentSet := make([][]protocol.BlockRun, np)
	flushSet := make([]map[int][]protocol.BlockRun, np) // sender -> dst -> blocks
	for n := 0; n < np; n++ {
		bc := 0
		pre := true
		for _, c := range lc.Nodes[n] {
			c.Node = n
			phase := m.phase + bc
			switch c.Op {
			case OpBarrier:
				bc++
			case OpBody:
				pre = false
			case OpImplicitWritable, OpImplicitInvalidate:
				frameEvs = append(frameEvs, phased{phase, c})
			case OpMkWritable:
				if pre {
					mkw[n] = sections.Union(mkw[n], c.Blocks)
				}
			case OpExpect:
				if pre {
					expectPre[n] += c.N
				} else {
					expectPost[n] += c.N
				}
			case OpReadyToRecv:
				if pre {
					readyPre[n] = true
				} else {
					readyPost[n] = true
				}
			case OpSend:
				arrivals = append(arrivals, phased{phase, c})
				if pre {
					sentPre[c.Dst] += sections.CountBlocks(c.Blocks)
				}
				sentSet[c.Dst] = sections.Union(sentSet[c.Dst], c.Blocks)
			case OpFlush:
				arrivals = append(arrivals, phased{phase, c})
				flushIn[c.Dst] += sections.CountBlocks(c.Blocks)
				if flushSet[n] == nil {
					flushSet[n] = map[int][]protocol.BlockRun{}
				}
				flushSet[n][c.Dst] = sections.Union(flushSet[n][c.Dst], c.Blocks)
			}
		}
		barrierCount[n] = bc
	}

	// ---- Barrier parity: mismatched counts deadlock the machine. ----
	m.report.markChecked(site.Loop, RuleBarrier)
	for n := 1; n < np; n++ {
		if barrierCount[n] != barrierCount[0] {
			diag(Error, RuleBarrier, site,
				"node %d reaches %d barrier(s) where node 0 reaches %d — the loop deadlocks",
				n, barrierCount[n], barrierCount[0])
		}
	}

	// ---- Happens-before: frames must open strictly before arrival. ----
	// Process frame events and arrivals in barrier-phase order; within a
	// phase, opens first (an open at the arrival's own phase is still
	// unordered with it and is flagged).
	if lc.Sched != nil {
		m.report.markChecked(site.Loop, RuleFrameOrder)
	}
	sort.SliceStable(frameEvs, func(i, j int) bool { return frameEvs[i].phase < frameEvs[j].phase })
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].phase < arrivals[j].phase })
	fi := 0
	for _, a := range arrivals {
		for ; fi < len(frameEvs) && frameEvs[fi].phase <= a.phase; fi++ {
			m.frameCall(frameEvs[fi])
		}
		// The blocks no frame opened in an earlier phase covers, and of
		// those the ones no frame covers at all; a clean schedule leaves
		// none, and then no block is looked at singly.
		late := a.Blocks
		for _, f := range m.frames[a.Dst] {
			if f.phase < a.phase {
				late = sections.Minus(late, f.blocks)
			}
		}
		if len(late) == 0 {
			continue
		}
		unopened := late
		for _, f := range m.frames[a.Dst] {
			unopened = sections.Minus(unopened, f.blocks)
		}
		for _, b := range sections.Blocks(late) {
			if sections.ContainsBlock(unopened, b) {
				diag(Error, RuleFrameOrder, site,
					"%v from node %d delivers block %d but node %d has no implicit_writable frame open for it — the payload would land on an invalid copy",
					a.Op, a.Node, b, a.Dst)
			} else {
				diag(Error, RuleFrameOrder, site,
					"%v from node %d delivers block %d in the same barrier phase node %d opens its frame — no barrier orders implicit_writable before the transfer",
					a.Op, a.Node, b, a.Dst)
			}
		}
	}
	for ; fi < len(frameEvs); fi++ {
		m.frameCall(frameEvs[fi])
	}

	// ---- Send extents: emitted sends vs the schedule's transfers. ----
	if len(lc.Reads) > 0 {
		m.report.markChecked(site.Loop, RuleSendExtent)
		m.report.markChecked(site.Loop, RuleRecvMatch)
		m.report.markChecked(site.Loop, RuleSendOwner)
	}
	schedTo := make([][]protocol.BlockRun, np)
	for _, t := range lc.Reads {
		schedTo[t.Receiver] = sections.Union(schedTo[t.Receiver], t.Blocks)
		ts := transferSite(site, t)
		if miss := missingFrom(t.Blocks, sentSet[t.Receiver]); miss != "" {
			diag(Error, RuleSendExtent, ts,
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
				diag(Error, RuleSendOwner, ts,
					"send originates at node %d but column %d is owned by node %d — the sender's copy is not authoritative",
					t.Sender, col, o)
				break
			}
		}
	}
	for n := 0; n < np; n++ {
		if extra := sections.Minus(sentSet[n], schedTo[n]); len(extra) > 0 {
			diag(Error, RuleSendExtent, site,
				"node %d receives unscheduled blocks %v — no transfer in the schedule covers them",
				n, sections.Blocks(extra))
		}
	}

	// ---- Receive matching: every send needs a counted ready_to_recv. ----
	for r := 0; r < np; r++ {
		if sentPre[r] > 0 {
			if !readyPre[r] {
				diag(Error, RuleRecvMatch, site,
					"%d block(s) are sent to node %d but it never calls ready_to_recv before the loop body — the transfer is unacknowledged and the sender's next barrier can pass stale data",
					sentPre[r], r)
			} else if expectPre[r] != sentPre[r] {
				diag(Error, RuleRecvMatch, site,
					"node %d expects %d block(s) before the body but %d are sent — ready_to_recv would %s",
					r, expectPre[r], sentPre[r], stallOrRace(expectPre[r], sentPre[r]))
			}
		} else if expectPre[r] > 0 {
			diag(Error, RuleRecvMatch, site,
				"node %d expects %d block(s) before the body but nothing is sent to it — ready_to_recv stalls forever",
				r, expectPre[r])
		}
		if flushIn[r] > 0 {
			if !readyPost[r] {
				diag(Error, RuleRecvMatch, site,
					"%d flushed block(s) reach node %d but it never calls ready_to_recv after the loop — flushed updates are unacknowledged",
					flushIn[r], r)
			} else if expectPost[r] != flushIn[r] {
				diag(Error, RuleRecvMatch, site,
					"node %d expects %d flushed block(s) but %d are flushed — ready_to_recv would %s",
					r, expectPost[r], flushIn[r], stallOrRace(expectPost[r], flushIn[r]))
			}
		} else if expectPost[r] > 0 {
			diag(Error, RuleRecvMatch, site,
				"node %d expects %d flushed block(s) but nothing is flushed to it — ready_to_recv stalls forever",
				r, expectPost[r])
		}
	}

	// ---- Write coverage: mk_writable taken, flush delivered, home right. ----
	if len(lc.Writes) > 0 {
		m.report.markChecked(site.Loop, RuleWriteFlush)
		m.report.markChecked(site.Loop, RuleFlushOwner)
	}
	for _, t := range lc.Writes {
		ts := transferSite(site, t)
		if miss := missingFrom(t.Blocks, mkw[t.Sender]); miss != "" {
			diag(Error, RuleWriteFlush, ts,
				"non-owner write on node %d: blocks %s are written without a pre-loop mk_writable — the writes land on an invalid copy",
				t.Sender, miss)
		}
		if miss := missingFrom(t.Blocks, flushSet[t.Sender][t.Receiver]); miss != "" {
			diag(Error, RuleWriteFlush, ts,
				"mk_writable is taken on node %d but blocks %s are never flushed to home node %d — the updates would be lost past the closing barrier",
				t.Sender, miss, t.Receiver)
		}
		d := m.an.Dist(t.Array)
		cols := t.Sec.Dims[len(t.Sec.Dims)-1]
		for col := cols.Lo; col <= cols.Hi; col++ {
			if o := d.Owner(col); o != t.Receiver {
				diag(Error, RuleFlushOwner, ts,
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
	for _, t := range append(append([]compiler.Transfer{}, lc.Reads...), lc.Writes...) {
		m.checkAlignment(lc, t, diag)
	}

	// ---- Aggregation policy: traffic matrices vs the transfers. ----
	// The runtime picks each pair's transport (eager / bulk / epoch
	// aggregation) from the schedule's [sender][receiver] byte and
	// message-count matrices. Recompute both independently from the
	// transfers the emission was checked against: drift would steer
	// traffic through a wire path the contract never examined.
	if lc.Sched != nil {
		m.report.markChecked(site.Loop, RuleAggMatrix)
		checkMatrices := func(ts []compiler.Transfer, bmat, mmat [][]int64, phase string) {
			bytes := make([]int64, np*np)
			msgs := make([]int64, np*np)
			for _, t := range ts {
				blocks := sections.CountBlocks(t.Blocks)
				if blocks != t.NumBlocks {
					diag(Error, RuleAggMatrix, transferSite(site, t),
						"transfer claims %d aligned block(s) but its runs cover %d",
						t.NumBlocks, blocks)
				}
				bytes[t.Sender*np+t.Receiver] += int64(blocks) * int64(m.an.BlockSize)
				msgs[t.Sender*np+t.Receiver] += int64(len(t.Blocks))
			}
			for s := 0; s < np; s++ {
				for r := 0; r < np; r++ {
					var gb, gm int64
					if s < len(bmat) && r < len(bmat[s]) {
						gb, gm = bmat[s][r], mmat[s][r]
					}
					if gb != bytes[s*np+r] || gm != msgs[s*np+r] {
						diag(Error, RuleAggMatrix, site,
							"%s matrix cell %d->%d records %dB over %d message(s) but the transfers sum to %dB over %d — the adaptive transport policy would be steered by traffic the schedule does not emit",
							phase, s, r, gb, gm, bytes[s*np+r], msgs[s*np+r])
					}
				}
			}
		}
		checkMatrices(lc.Sched.Reads, lc.Sched.ReadBytes, lc.Sched.ReadMsgs, "read")
		checkMatrices(lc.Sched.Writes, lc.Sched.WriteBytes, lc.Sched.WriteMsgs, "write")
	}

	// ---- PRE elisions: every skip re-validated independently. ----
	if len(lc.Skipped) > 0 {
		m.report.markChecked(site.Loop, RuleElision)
	}
	for _, sk := range lc.Skipped {
		if !sk.Live {
			diag(Error, RuleElision, transferSite(site, sk.T),
				"OptPRE drops the transfer node %d -> node %d, but the previously delivered copy was invalidated by an intervening write to %s (or never delivered) — a lower level proves the transfer necessary",
				sk.T.Sender, sk.T.Receiver, sk.T.Array.Name)
		}
	}

	m.phase += barrierCount[0]
	m.report.Instances++
}

func stallOrRace(expect, sent int) string {
	if expect > sent {
		return "stall forever"
	}
	return "return before all data arrived"
}

func transferSite(base Site, t compiler.Transfer) Site {
	base.Array = t.Array.Name
	base.Sec = secString(t.Sec)
	return base
}

// checkAlignment recomputes shmem_limits for a transfer's section and
// compares: the transfer's blocks must be exactly the block-aligned
// interior of the section, within the array's allocation, with the edge
// byte count accounting for the remainder.
func (m *Model) checkAlignment(lc *LoopCalls, t compiler.Transfer, diag func(Severity, string, Site, string, ...any)) {
	ts := transferSite(lc.Site, t)
	lay := m.an.Layouts[t.Array]
	bs := m.an.BlockSize
	runs := sections.CoalesceRuns(lay.Runs(t.Sec))
	total := 0
	for _, r := range runs {
		total += r.Bytes
	}
	want := sections.RunsToBlocks(sections.BlockAlign(runs, bs), bs)
	alignedBytes := sections.CountBlocks(want) * bs
	got := sections.Normalize(t.Blocks)
	if !slices.Equal(got, want) {
		diag(Error, RuleAlignment, ts,
			"transfer carries %d block(s) but the block-aligned interior of the section has %d — shmem_limits shrink is wrong",
			sections.CountBlocks(got), sections.CountBlocks(want))
	}
	if t.EdgeBytes != total-alignedBytes {
		diag(Error, RuleAlignment, ts,
			"edge accounting: section is %dB with a %dB aligned interior, but the transfer claims %dB of edges",
			total, alignedBytes, t.EdgeBytes)
	}
	alloc := lay.Blocks(bs)
	for _, r := range t.Blocks {
		if r.Start < alloc.Start || r.End() > alloc.End() {
			diag(Error, RuleAlignment, ts,
				"blocks [%d,%d) fall outside the array's allocation (blocks [%d,%d))",
				r.Start, r.End(), alloc.Start, alloc.End())
		}
	}
}
