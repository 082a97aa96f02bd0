package analysis

import (
	"fmt"
	"sort"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
)

// blockSet is a set of coherence-block numbers.
type blockSet map[int]bool

func addRuns(s blockSet, runs []protocol.BlockRun) {
	for _, r := range runs {
		for b := r.Start; b < r.Start+r.N; b++ {
			s[b] = true
		}
	}
}

func countBlocks(runs []protocol.BlockRun) int {
	n := 0
	for _, r := range runs {
		n += r.N
	}
	return n
}

// missingFrom returns the blocks of runs not present in have, rendered
// compactly ("" when fully covered).
func missingFrom(runs []protocol.BlockRun, have blockSet) string {
	var miss []int
	for _, r := range runs {
		for b := r.Start; b < r.Start+r.N; b++ {
			if !have[b] {
				miss = append(miss, b)
			}
		}
	}
	if len(miss) == 0 {
		return ""
	}
	sort.Ints(miss)
	return fmt.Sprint(miss)
}

// arrival is a send or flush event: data landing on Dst's memory at a
// barrier phase.
type arrival struct {
	src, dst int
	phase    int
	runs     []protocol.BlockRun
	flush    bool
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
	type frameEv struct {
		node, phase int
		runs        []protocol.BlockRun
		open        bool // implicit_writable vs implicit_invalidate
	}
	var frameEvs []frameEv
	var arrivals []arrival
	barrierCount := make([]int, np)
	expectPre := make([]int, np)
	expectPost := make([]int, np)
	readyPre := make([]bool, np)
	readyPost := make([]bool, np)
	mkw := make([]blockSet, np)
	sentPre := make([]int, np) // blocks sent to node (pre-body)
	flushIn := make([]int, np) // blocks flushed to node
	sentSet := make([]blockSet, np)
	flushSet := make([]map[int]blockSet, np) // sender -> dst -> blocks
	for n := 0; n < np; n++ {
		mkw[n] = blockSet{}
		sentSet[n] = blockSet{}
		flushSet[n] = map[int]blockSet{}
	}
	for n := 0; n < np; n++ {
		bc := 0
		pre := true
		for _, c := range lc.Nodes[n] {
			phase := m.phase + bc
			switch c.Op {
			case OpBarrier:
				bc++
			case OpBody:
				pre = false
			case OpImplicitWritable:
				frameEvs = append(frameEvs, frameEv{n, phase, c.Blocks, true})
			case OpImplicitInvalidate:
				frameEvs = append(frameEvs, frameEv{n, phase, c.Blocks, false})
			case OpMkWritable:
				if pre {
					addRuns(mkw[n], c.Blocks)
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
				arrivals = append(arrivals, arrival{n, c.Dst, phase, c.Blocks, false})
				if pre {
					sentPre[c.Dst] += countBlocks(c.Blocks)
				}
				addRuns(sentSet[c.Dst], c.Blocks)
			case OpFlush:
				arrivals = append(arrivals, arrival{n, c.Dst, phase, c.Blocks, true})
				flushIn[c.Dst] += countBlocks(c.Blocks)
				fs := flushSet[n][c.Dst]
				if fs == nil {
					fs = blockSet{}
					flushSet[n][c.Dst] = fs
				}
				addRuns(fs, c.Blocks)
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
		for fi < len(frameEvs) && frameEvs[fi].phase <= a.phase {
			ev := frameEvs[fi]
			fi++
			for _, r := range ev.runs {
				for b := r.Start; b < r.Start+r.N; b++ {
					if ev.open {
						if _, ok := m.frames[ev.node][b]; !ok {
							m.frames[ev.node][b] = ev.phase
							m.bump()
						}
					} else {
						delete(m.frames[ev.node], b)
					}
				}
			}
		}
		kind := "send"
		if a.flush {
			kind = "flush"
		}
		for _, r := range a.runs {
			for b := r.Start; b < r.Start+r.N; b++ {
				open, ok := m.frames[a.dst][b]
				if !ok {
					diag(Error, RuleFrameOrder, site,
						"%s from node %d delivers block %d but node %d has no implicit_writable frame open for it — the payload would land on an invalid copy",
						kind, a.src, b, a.dst)
				} else if open >= a.phase {
					diag(Error, RuleFrameOrder, site,
						"%s from node %d delivers block %d in the same barrier phase node %d opens its frame — no barrier orders implicit_writable before the transfer",
						kind, a.src, b, a.dst)
				}
			}
		}
	}
	for ; fi < len(frameEvs); fi++ {
		ev := frameEvs[fi]
		for _, r := range ev.runs {
			for b := r.Start; b < r.Start+r.N; b++ {
				if ev.open {
					if _, ok := m.frames[ev.node][b]; !ok {
						m.frames[ev.node][b] = ev.phase
						m.bump()
					}
				} else {
					delete(m.frames[ev.node], b)
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
	schedTo := make([]blockSet, np)
	for n := 0; n < np; n++ {
		schedTo[n] = blockSet{}
	}
	for _, t := range lc.Reads {
		addRuns(schedTo[t.Receiver], t.Blocks)
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
		var extra []int
		for b := range sentSet[n] {
			if !schedTo[n][b] {
				extra = append(extra, b)
			}
		}
		if len(extra) > 0 {
			sort.Ints(extra)
			diag(Error, RuleSendExtent, site,
				"node %d receives unscheduled blocks %v — no transfer in the schedule covers them", n, extra)
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
				blocks := 0
				for _, r := range t.Blocks {
					blocks += r.N
				}
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
	aligned := sections.BlockAlign(runs, bs)
	alignedBytes := 0
	want := blockSet{}
	for _, br := range sections.RunsToBlocks(aligned, bs) {
		alignedBytes += br[1] * bs
		for b := br[0]; b < br[0]+br[1]; b++ {
			want[b] = true
		}
	}
	got := blockSet{}
	addRuns(got, t.Blocks)
	if len(got) != len(want) || missingFrom(t.Blocks, want) != "" {
		diag(Error, RuleAlignment, ts,
			"transfer carries %d block(s) but the block-aligned interior of the section has %d — shmem_limits shrink is wrong",
			len(got), len(want))
	}
	if t.EdgeBytes != total-alignedBytes {
		diag(Error, RuleAlignment, ts,
			"edge accounting: section is %dB with a %dB aligned interior, but the transfer claims %dB of edges",
			total, alignedBytes, t.EdgeBytes)
	}
	lo := lay.Base / bs
	hi := (lay.Base + lay.SizeBytes() + bs - 1) / bs
	for _, r := range t.Blocks {
		if r.Start < lo || r.Start+r.N > hi {
			diag(Error, RuleAlignment, ts,
				"blocks [%d,%d) fall outside the array's allocation (blocks [%d,%d))",
				r.Start, r.Start+r.N, lo, hi)
		}
	}
}
