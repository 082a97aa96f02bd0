package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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

	blockSize int
	spans     []provSpan
	last      []*provEntry // per block; nil = nothing recorded

	// stamps caches the formatted per-transfer entries of each
	// instantiated (label, schedule) pair: schedules are memoized by the
	// compiler, so after the first instantiation a repeat record is just
	// slice stores — no formatting, no allocation.
	stamps map[provKey][]provStamp
	// latest is the pair recorded last. Every executor records each
	// loop instance, so all but the first record of an instance repeat
	// the one before: stamping is idempotent, and the repeat is skipped.
	latest provKey

	// mu guards stamps, latest and last. Under the PDES window scheduler,
	// compute processes on different partitions instantiate schedules
	// concurrently; provenance is diagnostic metadata outside the
	// simulated machine, so a lock (not an Env) is the right tool. The
	// recorded winner for a block is whichever record ran last — same
	// best-effort semantics the sequential path has.
	mu sync.Mutex
}

type provSpan struct {
	name   string
	blocks protocol.BlockRun // the array's allocation
}

type provEntry struct {
	loop string
	text string
}

type provKey struct {
	label string
	sched *compiler.Schedule
}

type provStamp struct {
	e      *provEntry
	blocks []protocol.BlockRun
}

// NewProvIndex builds the array→block map for a compiled program.
func NewProvIndex(an *compiler.Analysis) *ProvIndex {
	px := &ProvIndex{blockSize: an.BlockSize, stamps: map[provKey][]provStamp{}}
	maxB := 0
	for _, arr := range an.Prog.Arrays {
		blocks := an.Layouts[arr].Blocks(an.BlockSize)
		px.spans = append(px.spans, provSpan{name: arr.Name, blocks: blocks})
		maxB = max(maxB, blocks.End())
	}
	px.last = make([]*provEntry, maxB)
	sort.Slice(px.spans, func(i, j int) bool { return px.spans[i].blocks.Start < px.spans[j].blocks.Start })
	return px
}

// RecordSchedule notes, for every block of every transfer in a just-
// instantiated schedule, the call that governs it.
func (px *ProvIndex) RecordSchedule(label string, sched *compiler.Schedule) {
	if px == nil || sched == nil {
		return
	}
	px.mu.Lock()
	defer px.mu.Unlock()
	k := provKey{label: label, sched: sched}
	if k == px.latest {
		return
	}
	px.latest = k
	stamps, ok := px.stamps[k]
	if !ok {
		note := func(ts []compiler.Transfer, kind string) {
			for i := range ts {
				t := &ts[i]
				stamps = append(stamps, provStamp{
					e: &provEntry{
						loop: label,
						text: fmt.Sprintf("loop %s: %s %s%v %d->%d", label, kind, t.Array.Name, t.Sec, t.Sender, t.Receiver),
					},
					blocks: t.Blocks,
				})
			}
		}
		note(sched.Reads, "send")
		note(sched.Writes, "flush")
		px.stamps[k] = stamps
	}
	for _, s := range stamps {
		for _, r := range s.blocks {
			for b := r.Start; b < r.Start+r.N; b++ {
				px.last[b] = s.e
			}
		}
	}
}

// Describe renders a block's provenance, or "" when nothing is known.
func (px *ProvIndex) Describe(b int) string {
	if px == nil {
		return ""
	}
	px.mu.Lock()
	defer px.mu.Unlock()
	var parts []string
	for _, s := range px.spans {
		if b >= s.blocks.Start && b < s.blocks.End() {
			parts = append(parts, s.name)
			break
		}
	}
	if b >= 0 && b < len(px.last) && px.last[b] != nil {
		e := px.last[b]
		parts = append(parts, e.text)
		if px.Report != nil {
			if rules := px.Report.RulesFor(e.loop); len(rules) > 0 {
				short := make([]string, len(rules))
				for i, r := range rules {
					short[i] = strings.TrimPrefix(strings.TrimPrefix(r, "contract/"), "race/")
				}
				parts = append(parts, "statically verified: "+strings.Join(short, ","))
			}
		}
	}
	return strings.Join(parts, "; ")
}
