// Causal protocol-event tracing.
//
// Tracer records the simulation's protocol-level activity as a causal
// event graph — spans on per-node lanes (compute CPU, protocol CPU,
// NIC), flow arrows linking each message's wire transmission to the
// handler execution it triggers, and loop/barrier region annotations —
// and exports it as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing.
//
// The tracer is strictly opt-in: every instrumentation site in sim,
// network, tempest, protocol, and runtime is guarded by a nil check on
// the tracer pointer, so a disabled run takes the exact hot paths of
// the untraced simulator and allocates nothing. When enabled, output is
// deterministic: events are recorded in simulation order (which a
// seeded run fully determines), timestamps are exact nanosecond
// integers rendered as fixed-point microseconds, and no map iteration
// touches the writer — the same run always produces the same bytes.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"hpfdsm/internal/sim"
)

// Lanes are thread ids within a node's trace process. One simulated
// node renders as one Perfetto process with three tracks.
const (
	LaneCompute = 0 // the compute processor: loops, barriers, miss stalls
	LaneProto   = 1 // the protocol engine: active-message handler executions
	LaneNIC     = 2 // the wire interface: message serialization spans
)

// Event phases (a subset of the Chrome trace-event format).
const (
	PhaseSpan      = 'X' // complete event (ts + dur)
	PhaseInstant   = 'i' // thread-scoped instant
	PhaseFlowStart = 's' // flow start, binds to the enclosing span
	PhaseFlowEnd   = 'f' // flow end (binding point "e")
	PhaseMeta      = 'M' // process/thread naming metadata
)

// Arg is one pre-rendered argument: K is the key, J the value as a
// JSON fragment (already quoted if a string). Pre-rendering keeps the
// writer free of reflection and type switches.
type Arg struct {
	K string
	J string
}

// Str renders a string argument.
func Str(k, v string) Arg { return Arg{K: k, J: strconv.Quote(v)} }

// I64 renders an integer argument.
func I64(k string, v int64) Arg { return Arg{K: k, J: strconv.FormatInt(v, 10)} }

// Int renders an int argument.
func Int(k string, v int) Arg { return I64(k, int64(v)) }

// Event is one recorded trace event. Fields mirror the Chrome
// trace-event JSON keys; Ts and Dur are simulated nanoseconds
// (exported as microseconds with three decimals).
type Event struct {
	Ph   byte
	Name string
	Cat  string
	Pid  int
	Tid  int
	Ts   sim.Time
	Dur  sim.Time
	ID   uint64 // flow id, 0 when unused
	Args []Arg
}

// Tracer accumulates the causal event record of one simulated run.
// It is not safe for concurrent use; the simulator is single-threaded.
type Tracer struct {
	// BlockInfo renders schedule provenance for a block number
	// (analysis.ProvIndex.Describe); used by miss spans and the heat
	// map's provenance columns. May be nil.
	BlockInfo func(b int) string

	// Heat accumulates the per-block heat map and the per-loop miss
	// provenance table alongside the event record.
	Heat *Heat

	events   []Event
	nextFlow uint64
	loops    []string // per node, the label of its open loop, or ""
}

// New returns a tracer for a cluster of nodes, with naming metadata for
// each node's process and lanes already recorded.
func New(nodes int) *Tracer {
	t := &Tracer{Heat: NewHeat(), loops: make([]string, nodes)}
	lanes := []struct {
		tid  int
		name string
	}{
		{LaneCompute, "compute"},
		{LaneProto, "protocol"},
		{LaneNIC, "nic"},
	}
	for n := 0; n < nodes; n++ {
		t.events = append(t.events, Event{
			Ph: PhaseMeta, Name: "process_name", Pid: n,
			Args: []Arg{Str("name", fmt.Sprintf("node %d", n))},
		})
		for _, l := range lanes {
			t.events = append(t.events, Event{
				Ph: PhaseMeta, Name: "thread_name", Pid: n, Tid: l.tid,
				Args: []Arg{Str("name", l.name)},
			})
			t.events = append(t.events, Event{
				Ph: PhaseMeta, Name: "thread_sort_index", Pid: n, Tid: l.tid,
				Args: []Arg{Int("sort_index", l.tid)},
			})
		}
	}
	return t
}

// FlowID allocates a fresh flow identifier (1-based; 0 means "no flow").
func (t *Tracer) FlowID() uint64 {
	t.nextFlow++
	return t.nextFlow
}

// Span records a complete event on a node's lane over [start, end].
func (t *Tracer) Span(pid, tid int, name, cat string, start, end sim.Time, args ...Arg) {
	if end < start {
		end = start
	}
	t.events = append(t.events, Event{
		Ph: PhaseSpan, Name: name, Cat: cat, Pid: pid, Tid: tid,
		Ts: start, Dur: end - start, Args: args,
	})
}

// Instant records a thread-scoped instant event.
func (t *Tracer) Instant(pid, tid int, name, cat string, ts sim.Time, args ...Arg) {
	t.events = append(t.events, Event{
		Ph: PhaseInstant, Name: name, Cat: cat, Pid: pid, Tid: tid, Ts: ts, Args: args,
	})
}

// FlowStart opens flow id at ts; the event must fall inside a span on
// (pid, tid) for Perfetto to draw the arrow from it.
func (t *Tracer) FlowStart(pid, tid int, id uint64, ts sim.Time) {
	t.events = append(t.events, Event{
		Ph: PhaseFlowStart, Name: "msg", Cat: "flow", Pid: pid, Tid: tid, Ts: ts, ID: id,
	})
}

// FlowEnd closes flow id at ts inside the receiving span.
func (t *Tracer) FlowEnd(pid, tid int, id uint64, ts sim.Time) {
	t.events = append(t.events, Event{
		Ph: PhaseFlowEnd, Name: "msg", Cat: "flow", Pid: pid, Tid: tid, Ts: ts, ID: id,
	})
}

// --- Loop annotations (compute lane) ---------------------------------

// BeginLoop opens a labelled loop (a parallel loop or reduction) on a
// node's compute lane. Loops do not nest; the open one attributes the
// node's misses in the heat map's provenance table.
func (t *Tracer) BeginLoop(node int, label string) { t.loops[node] = label }

// EndLoop closes the node's open loop and records its span.
func (t *Tracer) EndLoop(sp Span) {
	if t.loops[sp.Node] == "" {
		panic("trace: EndLoop with no open loop")
	}
	t.loops[sp.Node] = ""
	t.Span(sp.Node, LaneCompute, sp.Label, "loop", sp.Start, sp.End)
}

// MissSpan records one access-fault stall on a node's compute lane and
// feeds the heat map, attributing the miss to the node's open loop.
// kind is "read", "write", or "upgrade".
func (t *Tracer) MissSpan(node, block, addr int, kind string, start, end sim.Time) {
	args := []Arg{Int("block", block), Int("addr", addr), Str("kind", kind)}
	if t.BlockInfo != nil {
		if info := t.BlockInfo(block); info != "" {
			args = append(args, Str("prov", info))
		}
	}
	t.Span(node, LaneCompute, "miss:"+kind, "miss", start, end, args...)
	t.Heat.AddMiss(block, kind, t.loops[node])
}

// --- Chrome trace-event export ----------------------------------------

// Events returns the recorded events in emission order (for tests and
// analysis tools; the exported file is timestamp-sorted).
func (t *Tracer) Events() []Event { return t.events }

// WriteChrome writes the record as Chrome trace-event JSON (the
// {"traceEvents": [...]} object form). Events are stably sorted by
// timestamp, with metadata first, so the output of a deterministic run
// is byte-stable.
func (t *Tracer) WriteChrome(w io.Writer) error {
	idx := make([]int, len(t.events))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ea, eb := &t.events[idx[a]], &t.events[idx[b]]
		am, bm := ea.Ph == PhaseMeta, eb.Ph == PhaseMeta
		if am != bm {
			return am
		}
		return ea.Ts < eb.Ts
	})
	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	for i, k := range idx {
		if i > 0 {
			b.WriteString(",\n")
		}
		writeEvent(&b, &t.events[k])
		if b.Len() >= 1<<16 {
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
			b.Reset()
		}
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeEvent renders one event as a JSON object. Timestamps convert
// from integer nanoseconds to fixed-point microseconds (%d.%03d), so
// rendering is exact and byte-stable.
func writeEvent(b *strings.Builder, e *Event) {
	b.WriteString("{\"name\":")
	b.WriteString(strconv.Quote(e.Name))
	b.WriteString(",\"ph\":\"")
	b.WriteByte(e.Ph)
	b.WriteString("\"")
	if e.Cat != "" {
		b.WriteString(",\"cat\":")
		b.WriteString(strconv.Quote(e.Cat))
	}
	fmt.Fprintf(b, ",\"pid\":%d,\"tid\":%d", e.Pid, e.Tid)
	if e.Ph != PhaseMeta {
		fmt.Fprintf(b, ",\"ts\":%d.%03d", e.Ts/1000, e.Ts%1000)
	}
	if e.Ph == PhaseSpan {
		fmt.Fprintf(b, ",\"dur\":%d.%03d", e.Dur/1000, e.Dur%1000)
	}
	if e.Ph == PhaseInstant {
		b.WriteString(",\"s\":\"t\"")
	}
	if e.Ph == PhaseFlowStart || e.Ph == PhaseFlowEnd {
		fmt.Fprintf(b, ",\"id\":%d", e.ID)
		if e.Ph == PhaseFlowEnd {
			b.WriteString(",\"bp\":\"e\"")
		}
	}
	if len(e.Args) > 0 {
		b.WriteString(",\"args\":{")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(strconv.Quote(a.K))
			b.WriteString(":")
			b.WriteString(a.J)
		}
		b.WriteString("}")
	}
	b.WriteString("}")
}
