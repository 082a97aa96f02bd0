package analysis

import (
	"fmt"
	"sort"
	"strings"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/protocol"
)

// ProvIndex maps coherence-block numbers back to compiler decisions:
// which array the block belongs to and which scheduled call (send or
// flush of which loop, section, and valuation) most recently created
// expectations about it. The runtime records schedules as it
// instantiates them and hands Describe to the protocol's invariant
// auditor, so a dynamic violation prints "loop L3: send a(1:64,8:8)
// 0->1" instead of a raw block address. When Report is set, the
// description also cites the contract rules the static verifier proved
// for that loop — the dynamic failure names the static guarantee it
// broke.
type ProvIndex struct {
	Report *Report // optional: the -verify pre-flight's report

	spans []provSpan
	// last is, per block, the call that governs it: a transfer of one of
	// the recorded schedules, which the compiler memoizes and never
	// changes. A record is a store per block, and the text is rendered
	// only when Describe is asked. An index pair rather than a (loop,
	// kind, pointer) triple keeps the table at 8 pointer-free bytes a
	// block, and every run allocates one entry per segment block.
	last []provCall
	recs []provRec         // the recorded (loop, schedule) pairs
	rows map[provRec]int32 // a pair's row in recs, plus one
	// latest is the row recorded last. Every executor records each loop
	// instance, so all but the first record of an instance repeat the one
	// before: recording is idempotent, and the repeat is skipped.
	latest int32
}

type provSpan struct {
	name   string
	blocks protocol.BlockRun // the array's allocation
}

// provRec is one schedule as a loop instantiated it.
type provRec struct {
	loop  string
	sched *compiler.Schedule
}

// provCall is one scheduled call: transfer i of the schedule in row
// rec-1 of recs, counting its Reads (sends) and then its Writes
// (flushes). rec 0 means nothing is recorded.
type provCall struct{ rec, i int32 }

// NewProvIndex builds the array→block map for a compiled program.
func NewProvIndex(an *compiler.Analysis) *ProvIndex {
	px := &ProvIndex{rows: map[provRec]int32{}}
	maxB := 0
	for _, arr := range an.Prog.Arrays {
		blocks := an.Layouts[arr].Blocks(an.BlockSize)
		px.spans = append(px.spans, provSpan{name: arr.Name, blocks: blocks})
		maxB = max(maxB, blocks.End())
	}
	px.last = make([]provCall, maxB)
	sort.Slice(px.spans, func(i, j int) bool { return px.spans[i].blocks.Start < px.spans[j].blocks.Start })
	return px
}

// RecordSchedule notes, for every block of every transfer in a just-
// instantiated schedule, the call that governs it.
//
//simlint:hotpath
func (px *ProvIndex) RecordSchedule(label string, sched *compiler.Schedule) {
	if px == nil || sched == nil {
		return
	}
	r := provRec{label, sched}
	if px.latest > 0 && px.recs[px.latest-1] == r {
		return
	}
	px.latest = px.row(r)
	c := provCall{rec: px.latest}
	for _, ts := range [...][]compiler.Transfer{sched.Reads, sched.Writes} {
		for i := range ts {
			for _, br := range ts[i].Blocks {
				for b := br.Start; b < br.End(); b++ {
					px.last[b] = c
				}
			}
			c.i++
		}
	}
}

// row returns a pair's row in recs, plus one, adding the pair on its
// first record.
func (px *ProvIndex) row(r provRec) int32 {
	k, ok := px.rows[r]
	if !ok {
		px.recs = append(px.recs, r)
		k = int32(len(px.recs))
		px.rows[r] = k
	}
	return k
}

// Describe renders a block's provenance, or "" when nothing is known.
func (px *ProvIndex) Describe(b int) string {
	if px == nil {
		return ""
	}
	var parts []string
	for _, s := range px.spans {
		if b >= s.blocks.Start && b < s.blocks.End() {
			parts = append(parts, s.name)
			break
		}
	}
	if b >= 0 && b < len(px.last) && px.last[b].rec > 0 {
		c := px.last[b]
		r := px.recs[c.rec-1]
		kind, ts, i := "send", r.sched.Reads, c.i
		if n := int32(len(ts)); i >= n {
			kind, ts, i = "flush", r.sched.Writes, i-n
		}
		t := &ts[i]
		parts = append(parts, fmt.Sprintf("loop %s: %s %s%v %d->%d", r.loop, kind, t.Array.Name, t.Sec, t.Sender, t.Receiver))
		if px.Report != nil {
			if rules := px.Report.RulesFor(r.loop); len(rules) > 0 {
				short := make([]string, len(rules))
				for k, rule := range rules {
					short[k] = strings.TrimPrefix(strings.TrimPrefix(rule, "contract/"), "race/")
				}
				parts = append(parts, "statically verified: "+strings.Join(short, ","))
			}
		}
	}
	return strings.Join(parts, "; ")
}
