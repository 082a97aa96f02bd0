package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef describes one named metric. BENCHMARK.json repeats the
// end-to-end and per-layer tables below; the smoke test holds the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd is what a user of the simulator pays for a sweep: host time,
// host memory, set-up. All are host numbers; the simulated numbers are
// checked exactly (expected.json) and reported per layer.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_pass", "count", "lower", 0.02},
	{"alloc_mb_per_pass", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// kernelDefs are part A of the per-layer metrics, in the order the
// kernels run (kernels.go holds the code under the same names).
var kernelDefs = []metricDef{
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_deep_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.delivery_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.proc_switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.signal_wake_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.pdes_window_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.pdes_window_inline_ns", Unit: "ns", Better: "lower"},
	{Name: "memory.load_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "memory.store_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "memory.install_block_ns", Unit: "ns", Better: "lower"},
	{Name: "tempest.load_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "tempest.handler_ns", Unit: "ns", Better: "lower"},
	{Name: "tempest.barrier_n8_ns", Unit: "ns", Better: "lower"},
	{Name: "tempest.barrier_n256_tree_ns", Unit: "ns", Better: "lower"},
	{Name: "tempest.allreduce_n256_tree_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.readmiss_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.readmiss_sim_us", Unit: "us", Better: "lower"},
	{Name: "protocol.writemiss_inval_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.sendblocks_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "protocol.sendblocks_agg_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "protocol.mkwritable_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "protocol.fig1_msgs_default", Unit: "count", Better: "lower"},
	{Name: "protocol.fig1_msgs_direct", Unit: "count", Better: "lower"},
	{Name: "network.send_ns", Unit: "ns", Better: "lower"},
	{Name: "network.send_block_ns", Unit: "ns", Better: "lower"},
	{Name: "network.send_reliable_ns", Unit: "ns", Better: "lower"},
	{Name: "network.coalesce_ns_per_seg", Unit: "ns", Better: "lower"},
	{Name: "network.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "runtime.loop_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "runtime.interp_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "runtime.mp_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "runtime.run_fixed_n8_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.run_fixed_n256_ms", Unit: "ms", Better: "lower"},
	{Name: "lang.parse_us_per_kb", Unit: "us", Better: "lower"},
	{Name: "compiler.new_ms", Unit: "ms", Better: "lower"},
	{Name: "compiler.schedule_us", Unit: "us", Better: "lower"},
	{Name: "compiler.partition_us", Unit: "us", Better: "lower"},
	{Name: "sections.intersect_ns", Unit: "ns", Better: "lower"},
	{Name: "sections.blockalign_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.verify_n8_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.verify_n64_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.emit_ns", Unit: "ns", Better: "lower"},
}

// tracedDefs are part B: what the traced and the profiled pass of a
// workload give. A metric that does not apply to a workload reads 0
// there (no PDES windows on a sequential run, no sim_ms without a
// simulation).
var tracedDefs = []metricDef{
	{Name: "sim_ms", Unit: "ms", Better: "lower"},
	{Name: "speedup_p2", Unit: "ratio", Better: "higher"},
	{Name: "span.parse_s", Unit: "s", Better: "lower"},
	{Name: "span.analyse_s", Unit: "s", Better: "lower"},
	{Name: "span.verify_s", Unit: "s", Better: "lower"},
	{Name: "span.simulate_s", Unit: "s", Better: "lower"},
	{Name: "span.check_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.dispatches", Unit: "count", Better: "lower"},
	{Name: "sim.arg_events", Unit: "count", Better: "lower"},
	{Name: "sim.fn_events", Unit: "count", Better: "lower"},
	{Name: "sim.pdes_windows", Unit: "count", Better: "lower"},
	{Name: "sim.pdes_handoffs", Unit: "count", Better: "lower"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "tempest.handlers", Unit: "count", Better: "lower"},
	{Name: "tempest.barriers", Unit: "count", Better: "lower"},
	{Name: "protocol.misses", Unit: "count", Better: "lower"},
	{Name: "protocol.upgrades", Unit: "count", Better: "lower"},
	{Name: "protocol.calls", Unit: "count", Better: "lower"},
	{Name: "network.msgs", Unit: "count", Better: "lower"},
	{Name: "network.wire_kb", Unit: "KB", Better: "lower"},
	{Name: "network.segs_coalesced", Unit: "count", Better: "higher"},
	{Name: "network.carriers", Unit: "count", Better: "lower"},
	{Name: "network.retransmits", Unit: "count", Better: "lower"},
	{Name: "network.wire_drops", Unit: "count", Better: "lower"},
	{Name: "checkpoint.captures", Unit: "count", Better: "lower"},
	{Name: "checkpoint.kb", Unit: "KB", Better: "lower"},
	{Name: "runtime.recoveries", Unit: "count", Better: "lower"},
	{Name: "compiler.schedules", Unit: "count", Better: "lower"},
	{Name: "analysis.errors", Unit: "count", Better: "lower"},
	{Name: "stats.compute_share", Unit: "%", Better: "higher"},
	{Name: "stats.comm_share", Unit: "%", Better: "lower"},
	{Name: "stats.barrier_share", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.runtime", Unit: "%", Better: "lower"},
	{Name: "cpu.memory", Unit: "%", Better: "lower"},
	{Name: "cpu.sim", Unit: "%", Better: "lower"},
	{Name: "cpu.tempest", Unit: "%", Better: "lower"},
	{Name: "cpu.protocol", Unit: "%", Better: "lower"},
	{Name: "cpu.network", Unit: "%", Better: "lower"},
	{Name: "cpu.frontend", Unit: "%", Better: "lower"},
	{Name: "cpu.checkpoint", Unit: "%", Better: "lower"},
	{Name: "cpu.trace", Unit: "%", Better: "lower"},
	{Name: "cpu.go_sched", Unit: "%", Better: "lower"},
	{Name: "cpu.go_gc", Unit: "%", Better: "lower"},
	{Name: "cpu.other", Unit: "%", Better: "lower"},
}

// exactMetrics are the per-layer metrics that repeat exactly at a fixed
// seed; -selfcheck requires two sets of runs to agree on them.
var exactMetrics = map[string]bool{
	"protocol.readmiss_sim_us": true, "protocol.fig1_msgs_default": true, "protocol.fig1_msgs_direct": true,
	"sim_ms": true, "sim.events": true, "sim.dispatches": true, "sim.arg_events": true, "sim.fn_events": true,
	"sim.pdes_windows": true, "tempest.handlers": true, "tempest.barriers": true,
	"protocol.misses": true, "protocol.upgrades": true, "protocol.calls": true,
	"network.msgs": true, "network.wire_kb": true, "network.segs_coalesced": true, "network.carriers": true,
	"network.retransmits": true, "network.wire_drops": true, "checkpoint.captures": true, "checkpoint.kb": true,
	"runtime.recoveries": true, "compiler.schedules": true, "analysis.errors": true,
	"stats.compute_share": true, "stats.comm_share": true, "stats.barrier_share": true,
}

func perLayer() []metricDef {
	return append(append([]metricDef(nil), kernelDefs...), tracedDefs...)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one line a workload run prints last on standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill turns measured numbers into the result's metrics, in the units
// the tables above fix. Every listed metric must have been measured.
func fill(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func (r result) writeLine(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// table prints metrics by name with their units, one per line.
func table(w io.Writer, m map[string]value) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-38s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// runSeconds is how long one driver run measures (-seconds).
const runSeconds = 13

// writeManifest prints BENCHMARK.json: the driver's view of this
// benchmark. The smoke test holds the committed file to this output.
func writeManifest(w io.Writer) error {
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type load struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []load   `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, load{wl.name, wl.why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, entry{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, entry{d.Name, d.Unit, d.Better, nil})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
