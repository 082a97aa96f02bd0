// Package trace collects per-loop execution profiles: for every
// parallel loop, reduction, and communication phase, how much
// computation, communication, and barrier time each visit cost, summed
// over nodes. The profile answers the tuning question the paper's
// Table 3 answers per application — where the time goes — at loop
// granularity.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"hpfdsm/internal/sim"
)

// Sample is one accumulation delta for a labelled region.
type Sample struct {
	Compute sim.Time
	Comm    sim.Time
	Barrier sim.Time
	Misses  int64
	Msgs    int64
}

// Span is one node's execution of one labelled region.
type Span struct {
	Node  int
	Label string
	Start sim.Time
	End   sim.Time
}

// Region is one node's visit to one labelled loop: where it sits on the
// timeline and what it cost.
type Region struct {
	Span
	Sample
}

// Entry aggregates all samples for one label.
type Entry struct {
	Label  string
	Visits int64
	Sample
}

// Total returns the entry's total time.
func (e *Entry) Total() sim.Time { return e.Compute + e.Comm + e.Barrier }

// Profile aggregates entries by label, preserving first-seen order,
// and keeps every region's span, in recording order, for the timeline.
type Profile struct {
	entries map[string]*Entry
	order   []string
	spans   []Span
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{entries: map[string]*Entry{}} }

// Add records one region: its span joins the timeline and its sample
// is summed under its label.
func (p *Profile) Add(r Region) {
	p.spans = append(p.spans, r.Span)
	e, ok := p.entries[r.Label]
	if !ok {
		e = &Entry{Label: r.Label}
		p.entries[r.Label] = e
		p.order = append(p.order, r.Label)
	}
	e.Visits++
	e.Compute += r.Compute
	e.Comm += r.Comm
	e.Barrier += r.Barrier
	e.Misses += r.Misses
	e.Msgs += r.Msgs
}

// Entry returns the entry for a label, or nil.
func (p *Profile) Entry(label string) *Entry { return p.entries[label] }

// Entries returns all entries sorted by descending total time.
func (p *Profile) Entries() []*Entry {
	out := make([]*Entry, 0, len(p.order))
	for _, l := range p.order {
		out = append(out, p.entries[l])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total() > out[j].Total() })
	return out
}

// String renders the profile as a table (times are sums over nodes).
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %7s %12s %12s %12s %10s %8s\n",
		"loop", "visits", "compute", "comm", "barrier", "misses", "msgs")
	for _, e := range p.Entries() {
		fmt.Fprintf(&b, "%-22s %7d %10.2fms %10.2fms %10.2fms %10d %8d\n",
			e.Label, e.Visits, ms(e.Compute), ms(e.Comm), ms(e.Barrier), e.Misses, e.Msgs)
	}
	return b.String()
}

// WriteJSON emits the profile (entries sorted by total time, plus the
// raw span timeline) as JSON for external tooling.
func (p *Profile) WriteJSON(w io.Writer) error {
	type entryJSON struct {
		Label     string `json:"label"`
		Visits    int64  `json:"visits"`
		ComputeNs int64  `json:"compute_ns"`
		CommNs    int64  `json:"comm_ns"`
		BarrierNs int64  `json:"barrier_ns"`
		Misses    int64  `json:"misses"`
		Msgs      int64  `json:"msgs"`
	}
	type profJSON struct {
		Entries []entryJSON `json:"entries"`
		Spans   []Span      `json:"spans"`
	}
	out := profJSON{Spans: p.spans}
	for _, e := range p.Entries() {
		out.Entries = append(out.Entries, entryJSON{
			Label: e.Label, Visits: e.Visits,
			ComputeNs: e.Compute, CommNs: e.Comm, BarrierNs: e.Barrier,
			Misses: e.Misses, Msgs: e.Msgs,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func ms(t sim.Time) float64 { return float64(t) / 1e6 }
