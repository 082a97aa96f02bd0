package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// BlockStat is the heat record of one coherence block: how many access
// faults it took, how many times a copy of it was invalidated, and how
// many payload bytes of it moved over the wire.
type BlockStat struct {
	Block  int   `json:"block"`
	Misses int64 `json:"misses"`
	Invals int64 `json:"invals"`
	Bytes  int64 `json:"bytes"`
}

// ArrayRange maps a registered array onto its block range [Start,
// Start+N); the runtime registers one per program array so per-block
// heat can aggregate by array section.
type ArrayRange struct {
	Name  string `json:"name"`
	Start int    `json:"start_block"`
	N     int    `json:"num_blocks"`
}

// missKey groups residual misses by (region, array, kind) for the
// per-loop provenance table.
type missKey struct {
	region string
	array  string
	kind   string
}

// missRow is one provenance-table row.
type missRow struct {
	count      int64
	firstBlock int // representative block for the provenance column
}

// Heat accumulates per-block communication heat and per-loop miss
// provenance. All maps are iterated only at rendering time, under
// sorted keys, so output is deterministic.
type Heat struct {
	blocks map[int]*BlockStat
	arrays []ArrayRange
	miss   map[missKey]*missRow
}

// NewHeat returns an empty heat accumulator.
func NewHeat() *Heat {
	return &Heat{blocks: map[int]*BlockStat{}, miss: map[missKey]*missRow{}}
}

// AddArray registers an array's block range for section aggregation.
func (h *Heat) AddArray(name string, startBlock, numBlocks int) {
	h.arrays = append(h.arrays, ArrayRange{Name: name, Start: startBlock, N: numBlocks})
}

func (h *Heat) stat(b int) *BlockStat {
	s, ok := h.blocks[b]
	if !ok {
		s = &BlockStat{Block: b}
		h.blocks[b] = s
	}
	return s
}

// arrayIndex returns the index of the registered array covering block
// b, or -1.
func (h *Heat) arrayIndex(b int) int {
	for i, a := range h.arrays {
		if b >= a.Start && b < a.Start+a.N {
			return i
		}
	}
	return -1
}

// arrayOf returns the registered array covering block b, or "".
func (h *Heat) arrayOf(b int) string {
	if i := h.arrayIndex(b); i >= 0 {
		return h.arrays[i].Name
	}
	return ""
}

// AddMiss records one access fault on block b, attributed to the
// faulting node's current region (may be "").
func (h *Heat) AddMiss(b int, kind, region string) {
	h.stat(b).Misses++
	k := missKey{region: region, array: h.arrayOf(b), kind: kind}
	r, ok := h.miss[k]
	if !ok {
		r = &missRow{firstBlock: b}
		h.miss[k] = r
	}
	r.count++
}

// AddInval records one copy of block b being invalidated (eagerly by
// the directory, with a flush, or by a compiler-directed
// implicit_invalidate).
func (h *Heat) AddInval(b int) { h.stat(b).Invals++ }

// AddBytes records n payload bytes of block b moving over the wire.
func (h *Heat) AddBytes(b, n int) { h.stat(b).Bytes += int64(n) }

// AddBytesRange spreads bytes evenly over the blocks [b0, b0+nb) of one
// bulk message.
func (h *Heat) AddBytesRange(b0, nb, bytes int) {
	if nb <= 0 {
		return
	}
	per := bytes / nb
	for b := b0; b < b0+nb; b++ {
		h.AddBytes(b, per)
	}
}

// sortedBlocks returns the touched blocks in ascending block order.
func (h *Heat) sortedBlocks() []*BlockStat {
	out := make([]*BlockStat, 0, len(h.blocks))
	for _, s := range h.blocks {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// sortedMissKeys returns the provenance rows' keys by loop, then array,
// then kind.
func (h *Heat) sortedMissKeys() []missKey {
	keys := make([]missKey, 0, len(h.miss))
	for k := range h.miss {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b missKey) int {
		return cmp.Or(cmp.Compare(a.region, b.region), cmp.Compare(a.array, b.array), cmp.Compare(a.kind, b.kind))
	})
	return keys
}

// WriteText renders the heat map: per-array totals, then the hottest
// blocks (by misses, then bytes) with provenance from blockInfo (which
// may be nil).
func (h *Heat) WriteText(w io.Writer, blockInfo func(b int) string) {
	blocks := h.sortedBlocks()

	type agg struct {
		name                  string
		blocks                int
		misses, invals, bytes int64
	}
	aggs := make([]agg, len(h.arrays), len(h.arrays)+1)
	for i, a := range h.arrays {
		aggs[i].name = a.Name
	}
	other := agg{name: "(unregistered)"}
	for _, s := range blocks {
		tgt := &other
		if i := h.arrayIndex(s.Block); i >= 0 {
			tgt = &aggs[i]
		}
		tgt.blocks++
		tgt.misses += s.Misses
		tgt.invals += s.Invals
		tgt.bytes += s.Bytes
	}
	if other.blocks > 0 {
		aggs = append(aggs, other)
	}

	fmt.Fprintf(w, "Per-array heat (blocks touched, misses, invalidations, wire bytes)\n")
	fmt.Fprintf(w, "%-14s %8s %10s %10s %12s\n", "array", "blocks", "misses", "invals", "bytes")
	for _, a := range aggs {
		fmt.Fprintf(w, "%-14s %8d %10d %10d %12d\n", a.name, a.blocks, a.misses, a.invals, a.bytes)
	}

	hot := make([]*BlockStat, len(blocks))
	copy(hot, blocks)
	sort.SliceStable(hot, func(i, j int) bool {
		if hot[i].Misses != hot[j].Misses {
			return hot[i].Misses > hot[j].Misses
		}
		return hot[i].Bytes > hot[j].Bytes
	})
	if len(hot) > 20 {
		hot = hot[:20]
	}
	fmt.Fprintf(w, "\nHottest blocks\n")
	fmt.Fprintf(w, "%-8s %-10s %8s %8s %10s  %s\n", "block", "array", "misses", "invals", "bytes", "provenance")
	for _, s := range hot {
		info := ""
		if blockInfo != nil {
			info = blockInfo(s.Block)
		}
		name := h.arrayOf(s.Block)
		if name == "" {
			name = "-"
		}
		fmt.Fprintf(w, "%-8d %-10s %8d %8d %10d  %s\n", s.Block, name, s.Misses, s.Invals, s.Bytes, info)
	}
}

// WriteMissTable renders the per-loop miss-provenance table: every
// (loop, array, kind) group of residual misses with a representative
// block's schedule provenance — the explanation of each miss that
// survives at the rtelim level.
func (h *Heat) WriteMissTable(w io.Writer, blockInfo func(b int) string) {
	fmt.Fprintf(w, "Residual-miss provenance (per loop)\n")
	fmt.Fprintf(w, "%-16s %-10s %-8s %8s  %s\n", "loop", "array", "kind", "misses", "example provenance")
	for _, k := range h.sortedMissKeys() {
		r := h.miss[k]
		region, array := k.region, k.array
		if region == "" {
			region = "(outside loops)"
		}
		if array == "" {
			array = "-"
		}
		info := ""
		if blockInfo != nil {
			info = blockInfo(r.firstBlock)
		}
		fmt.Fprintf(w, "%-16s %-10s %-8s %8d  %s\n", region, array, k.kind, r.count, info)
	}
}

// WriteJSON renders the heat map as JSON: the registered arrays, every
// touched block in block order, and the provenance rows. Rendered by
// hand over sorted keys, so the bytes are deterministic.
func (h *Heat) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\"arrays\":[")
	for i, a := range h.arrays {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "{\"name\":%q,\"start_block\":%d,\"num_blocks\":%d}", a.Name, a.Start, a.N)
	}
	b.WriteString("],\"blocks\":[")
	for i, s := range h.sortedBlocks() {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "{\"block\":%d,\"misses\":%d,\"invals\":%d,\"bytes\":%d}",
			s.Block, s.Misses, s.Invals, s.Bytes)
	}
	b.WriteString("],\"misses\":[")
	for i, k := range h.sortedMissKeys() {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "{\"loop\":%q,\"array\":%q,\"kind\":%q,\"count\":%d,\"example_block\":%d}",
			k.region, k.array, k.kind, h.miss[k].count, h.miss[k].firstBlock)
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
