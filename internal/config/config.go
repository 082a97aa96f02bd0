// Package config holds the simulated machine parameter sets.
//
// The default configuration reproduces Table 1 of Chandra & Larus:
// an 8-node cluster of dual-processor 66 MHz HyperSPARC SparcStation-20s
// on a Myrinet with a 40 µs minimum round-trip for short messages and
// 20 MB/s of usable bandwidth, with fine-grain access control at 128-byte
// blocks. Handler occupancies are calibrated so that the default
// protocol's remote read miss of a 128-byte block takes ~93 µs in the
// dual-CPU configuration, matching the paper's measured value.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hpfdsm/internal/sim"
)

// Consistency selects the default protocol's memory model.
type Consistency int

const (
	// ReleaseConsistent is the paper's protocol: writes do not wait for
	// ownership grants; pending transactions drain at synchronization
	// points.
	ReleaseConsistent Consistency = iota
	// SequentiallyConsistent makes every write fault block until
	// ownership is granted — the conservative design the paper's
	// protocol improves on (its footnote 1: "we try to hide some of the
	// write latency by implementing a release-consistent memory model").
	SequentiallyConsistent
)

func (c Consistency) String() string {
	if c == SequentiallyConsistent {
		return "sequential"
	}
	return "release"
}

// Topology selects how synchronization and invalidation traffic is
// routed between nodes.
type Topology int

const (
	// Flat is the paper's 8-node layout: node 0 masters every barrier
	// and reduction point-to-point, and a block's home unicasts one
	// invalidation per sharer. O(N) messages serialize through single
	// nodes, which is affordable at 8 nodes and ruinous at 1024.
	Flat Topology = iota
	// TreeTopo routes synchronization through a K-ary combining tree
	// (one up-pass, one down-pass, K = Radix) and fans invalidations
	// out through per-cluster relays with combined acks. Data words
	// stay bit-identical to Flat; only the message topology changes.
	TreeTopo
)

func (t Topology) String() string {
	if t == TreeTopo {
		return "tree"
	}
	return "flat"
}

// ParseTopology parses the hpfrun -topo syntax.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "flat", "":
		return Flat, nil
	case "tree":
		return TreeTopo, nil
	default:
		return Flat, fmt.Errorf(`config: bad topology %q (want "flat" or "tree")`, s)
	}
}

// CPUMode selects how protocol handlers share the node's processors.
type CPUMode int

const (
	// DualCPU dedicates the node's second processor to protocol
	// handling; computation never pays for handler execution directly.
	DualCPU CPUMode = iota
	// SingleCPU interleaves protocol handling with computation on one
	// processor: handler time is stolen from the compute thread.
	SingleCPU
)

func (m CPUMode) String() string {
	switch m {
	case DualCPU:
		return "dual-cpu"
	case SingleCPU:
		return "single-cpu"
	default:
		return fmt.Sprintf("CPUMode(%d)", int(m))
	}
}

// Faults configures the unreliable-network fault-injection layer and
// the reliable-delivery protocol that compensates for it. All rates are
// probabilities in [0, 1) applied independently to every wire
// transmission (including retransmissions and acknowledgements), drawn
// from a PRNG seeded with Seed — the same seed always yields the same
// schedule. The zero value disables fault injection entirely and the
// network behaves exactly like the paper's lossless Myrinet.
type Faults struct {
	Drop    float64  // probability a transmission is lost
	Dup     float64  // probability a transmission is duplicated in flight
	Jitter  sim.Time // max uniform extra delivery delay per transmission
	Reorder float64  // probability of an additional large delay that reorders across pairs
	Seed    uint64   // PRNG seed (seed 0 is valid and deterministic too)

	// MaxRetries bounds the retransmissions of one message before the
	// sender gives up (0 = retry forever).
	MaxRetries int

	// Crashes lists the crash-stop node failures to inject. Each crash
	// silently kills one node — its compute process stops, its handlers
	// go quiet, and every message in flight to or from it vanishes.
	// Survivors detect the failure (retransmit-exhaustion probing or
	// barrier timeout) and recover from the last barrier-consistent
	// checkpoint. Configuring any crash activates the reliable-delivery
	// layer even with all wire-fault rates zero.
	Crashes []CrashSpec
}

// CrashSpec schedules one crash-stop failure: node Node dies at virtual
// time At, or — when Epoch > 0 — at the instant the cluster completes
// its Epoch'th synchronization (barrier or reduction all-arrived
// instant, counted from 1). Exactly one of Epoch and At selects the
// trigger; an Epoch takes precedence.
type CrashSpec struct {
	Node  int
	Epoch int64    // kill when the cluster epoch counter reaches this (0 = use At)
	At    sim.Time // kill at this virtual time (used when Epoch == 0)
}

// Active reports whether any fault kind is enabled. The reliable
// delivery layer (sequence numbers, ACKs, retransmission) engages only
// when faults are active, so a fault-free configuration is bit-identical
// to the original lossless network. Crash-stop failures count: detecting
// a dead peer requires the retransmit/probe machinery.
func (f Faults) Active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Jitter > 0 || f.Reorder > 0 || len(f.Crashes) > 0
}

// DefaultCrashMaxRetries caps the retransmit chain when crash injection
// is configured but MaxRetries was left zero (retry forever): with a
// peer permanently gone, retransmission must escalate to probing, and
// the full chain (500 µs, 1, 2, 4, 4, 4 ms of backoff, then three
// probes) must finish inside the watchdog horizon.
const DefaultCrashMaxRetries = 6

// Reliable-delivery, failure-detection and recovery timings.
// Constants, not fields of Faults: no caller or experiment varies them.
const (
	DefaultRetransmitTimeout = 500 * sim.Microsecond // initial per-message retransmit timeout
	DefaultMaxBackoff        = 4 * sim.Millisecond   // exponential-backoff clamp
	DefaultAckDelay          = 20 * sim.Microsecond  // ACK coalescing window
	// DefaultWatchdogHorizon is the virtual-time span without
	// compute-process progress after which the runtime's stall watchdog
	// aborts the run with a diagnostic dump; it comfortably exceeds the
	// worst plausible backoff chain so it never fires spuriously.
	DefaultWatchdogHorizon = 50 * sim.Millisecond
	DefaultProbeTimeout    = 1 * sim.Millisecond  // initial probe timeout after retransmit exhaustion
	DefaultMaxProbes       = 3                    // unanswered probes before a peer is declared dead
	DefaultBarrierTimeout  = 20 * sim.Millisecond // incomplete-barrier age that triggers membership probing
	DefaultRecoveryDelay   = 5 * sim.Millisecond  // simulated cost of rollback + checkpoint restore
)

// EffectiveMaxRetries returns MaxRetries, defaulting to
// DefaultCrashMaxRetries when crash injection is configured (an
// unbounded retransmit chain would never escalate to probing).
func (f Faults) EffectiveMaxRetries() int {
	if f.MaxRetries == 0 && len(f.Crashes) > 0 {
		return DefaultCrashMaxRetries
	}
	return f.MaxRetries
}

// Validate reports fault-configuration errors.
func (f Faults) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"Drop", f.Drop}, {"Dup", f.Dup}, {"Reorder", f.Reorder}} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("config: fault rate %s=%v outside [0, 1)", r.name, r.v)
		}
	}
	if f.Jitter < 0 {
		return fmt.Errorf("config: negative fault jitter %d", f.Jitter)
	}
	if f.MaxRetries < 0 {
		return fmt.Errorf("config: negative MaxRetries %d", f.MaxRetries)
	}
	for i, c := range f.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("config: crash %d: negative node %d", i, c.Node)
		}
		if c.Epoch < 0 || c.At < 0 {
			return fmt.Errorf("config: crash %d: negative trigger (epoch=%d at=%d)", i, c.Epoch, c.At)
		}
		if c.Epoch == 0 && c.At == 0 {
			return fmt.Errorf("config: crash %d: no trigger (set Epoch or At)", i)
		}
	}
	return nil
}

// Machine describes one simulated cluster configuration.
type Machine struct {
	Nodes       int         // cluster size
	CPUMode     CPUMode     // protocol processor placement
	Consistency Consistency // default protocol memory model
	BlockSize   int         // coherence unit in bytes (32-128 in Tempest)
	PageSize    int         // home-assignment and mapping granularity

	// Network (Myrinet in the paper).
	WireLatency sim.Time // one-way message latency, excluding occupancy
	NsPerByte   sim.Time // inverse bandwidth on a link
	MsgHeader   int      // bytes of header per message
	MaxPayload  int      // largest bulk-transfer payload in one message

	// Processor.
	NsPerFlop sim.Time // cost of one floating-point operation
	LoopOver  sim.Time // per-loop-iteration fixed overhead

	// Protocol software occupancies (per message / per event).
	SendOver     sim.Time // CPU cost to compose+inject a message
	RecvOver     sim.Time // CPU cost to receive+dispatch a message
	HandlerCost  sim.Time // protocol state transition cost
	FaultCost    sim.Time // detecting an access fault, entering handler
	TagChange    sim.Time // changing one block's access tag
	BlockCopy    sim.Time // copying one block to/from a message buffer
	BulkPerBlock sim.Time // per-block cost inside pipelined/bulk operations
	PageMapCost  sim.Time // mapping a remote page on first touch
	BarrierEntry sim.Time // local cost of entering/leaving a barrier

	// Message-passing runtime (the PGI-backend baseline): per-message
	// software overheads and per-byte packing cost of the portable
	// communication layer.
	MPSendOver    sim.Time
	MPRecvOver    sim.Time
	MPPackPerByte sim.Time

	// Barrier-epoch message aggregation (the NIC-level coalescing
	// scheduler). NoCoalesce disables the layer entirely; the model is
	// then bit-identical to the pre-aggregation simulator at every
	// optimization level. AggThreshold is the adaptive bulk threshold:
	// the expected per-(loop, destination) byte volume at or above which
	// the runtime chooses epoch aggregation over per-transfer bulk for
	// tagged data (0 selects the default of 2*BlockSize).
	NoCoalesce   bool
	AggThreshold int

	// Topology selects flat (paper) or tree-structured routing for
	// synchronization and invalidation; Radix is the combining-tree
	// fan-out (0 selects DefaultRadix). Radix is capped at 64 so a
	// parent's child-arrival set and a cluster's leaf membership each
	// fit one uint64 word regardless of N.
	Topology Topology
	Radix    int

	// Faults configures unreliable-network fault injection (off by
	// default; the paper's Myrinet never drops or reorders messages).
	Faults Faults
}

// MaxNodes bounds the cluster size. Directory sharer sets are
// multi-word bitmaps, so the cap is no longer the historic 64-bit
// mask width; 4096 keeps per-block directory state and the O(N)
// memory image per node within reason for the scale experiments.
const MaxNodes = 4096

// DefaultRadix is the combining-tree fan-out when Radix is zero. 4 is
// the knee for the Table 1 cost model: each extra level pays one
// send+receive+handler hop (~31 µs), while each extra child serializes
// one more SendOver (~9 µs) through the parent.
const DefaultRadix = 4

// EffectiveRadix returns Radix or its default.
func (m Machine) EffectiveRadix() int {
	if m.Radix > 0 {
		return m.Radix
	}
	return DefaultRadix
}

// WithTopology returns a copy of m with the given routing topology.
func (m Machine) WithTopology(t Topology) Machine { m.Topology = t; return m }

// WithRadix returns a copy of m with the given combining-tree radix.
func (m Machine) WithRadix(k int) Machine { m.Radix = k; return m }

// Default returns the paper's Table 1 cluster, dual-CPU, 8 nodes,
// 128-byte blocks.
//
// Calibration. Two Table 1 numbers anchor the parameters:
//
//   - 40 µs minimum round trip for a 4-byte message:
//     2*(SendOver + WireLatency + (hdr+4)*NsPerByte + RecvOver)
//     = 2*(9 + 1 + 1 + 9) = 40 µs.
//     (Myrinet's wire latency was ~1 µs; the bulk of the 40 µs was
//     host software — which is why coalescing messages matters.)
//
//   - 93 µs read-miss processing for a 128-byte block (dual-CPU),
//     measured for the common case (home memory holds the data):
//     FaultCost + SendOver + wire(8B) + RecvOver + HandlerCost
//
//   - BlockCopy + SendOver + wire(128B) + RecvOver + BlockCopy
//
//   - 2*TagChange
//     = 20 + 9 + 2.2 + 9 + 13 + 6 + 9 + 8.2 + 9 + 6 + 0.6 ≈ 92 µs.
//
// The large fault and handler costs reflect 1996 user-level protocol
// software dispatched through the Vortex access-control device. A
// producer-consumer miss (data exclusive at a third node, Figure 1a's
// 4-message read) costs correspondingly more, ~140 µs.
func Default() Machine {
	return Machine{
		Nodes:     8,
		CPUMode:   DualCPU,
		BlockSize: 128,
		PageSize:  4096,

		WireLatency: 1 * sim.Microsecond, // Myrinet hardware latency; the rest is host software
		NsPerByte:   50,                  // 20 MB/s
		MsgHeader:   16,
		MaxPayload:  4096,

		NsPerFlop: 60, // 66 MHz HyperSPARC, ~1 flop/4 cycles
		LoopOver:  30,

		SendOver:     9 * sim.Microsecond,
		RecvOver:     9 * sim.Microsecond,
		HandlerCost:  13 * sim.Microsecond,
		FaultCost:    20 * sim.Microsecond,
		TagChange:    300,
		BlockCopy:    6 * sim.Microsecond,
		BulkPerBlock: 800,
		PageMapCost:  40 * sim.Microsecond,
		BarrierEntry: 2 * sim.Microsecond,

		MPSendOver:    30 * sim.Microsecond,
		MPRecvOver:    30 * sim.Microsecond,
		MPPackPerByte: 60,
	}
}

// WithNodes returns a copy of m for an n-node cluster.
func (m Machine) WithNodes(n int) Machine { m.Nodes = n; return m }

// WithCPUMode returns a copy of m with the given CPU mode.
func (m Machine) WithCPUMode(c CPUMode) Machine { m.CPUMode = c; return m }

// WithConsistency returns a copy of m with the given memory model.
func (m Machine) WithConsistency(c Consistency) Machine { m.Consistency = c; return m }

// WithBlockSize returns a copy of m with the given coherence block size.
func (m Machine) WithBlockSize(b int) Machine { m.BlockSize = b; return m }

// WithFaults returns a copy of m with the given fault configuration.
func (m Machine) WithFaults(f Faults) Machine { m.Faults = f; return m }

// WithoutCoalesce returns a copy of m with message aggregation off.
func (m Machine) WithoutCoalesce() Machine { m.NoCoalesce = true; return m }

// DefaultAggDelay is the coalescer's engine-side batch window: the
// first protocol-engine segment appended to an empty per-destination
// buffer opens it and the buffer drains when it closes, bounding added
// latency while letting a request stream (the upgrade and write-miss
// faults between two synchronization points) share one carrier. Eager
// release consistency makes write faults latency-tolerant — the
// compute thread runs on while grants are outstanding and only the
// next synchronization point needs them resolved — so 100 µs (several
// round trips, still far below a barrier interval) costs little.
const DefaultAggDelay = 100 * sim.Microsecond

// EffectiveAggThreshold returns AggThreshold or its default of two
// coherence blocks — one block always travels eagerly, and a single
// bulk payload only starts beating per-block messages once a second
// block shares the header.
func (m Machine) EffectiveAggThreshold() int {
	if m.AggThreshold > 0 {
		return m.AggThreshold
	}
	return 2 * m.BlockSize
}

// EffectiveAggDelay returns the batch window, a constant of the model.
func (m Machine) EffectiveAggDelay() sim.Time { return DefaultAggDelay }

// Validate reports configuration errors.
func (m Machine) Validate() error {
	switch {
	case m.Nodes < 1:
		return fmt.Errorf("config: need at least 1 node, have %d", m.Nodes)
	case m.Nodes > MaxNodes:
		return fmt.Errorf("config: %d nodes exceeds the %d-node cap", m.Nodes, MaxNodes)
	case m.Radix < 0 || m.Radix == 1 || m.Radix > 64:
		return fmt.Errorf("config: combining-tree radix %d outside [2, 64] (0 selects the default of %d)", m.Radix, DefaultRadix)
	case m.BlockSize <= 0 || m.BlockSize%8 != 0 || m.BlockSize > 128:
		// 128 bytes is the top of Tempest's range and all the 16-bit
		// dirty-word mask of internal/memory can cover.
		return fmt.Errorf("config: block size %d must be a positive multiple of 8, at most 128", m.BlockSize)
	case m.PageSize <= 0 || m.PageSize%m.BlockSize != 0:
		return fmt.Errorf("config: page size %d must be a multiple of block size %d", m.PageSize, m.BlockSize)
	case m.MaxPayload < m.BlockSize:
		return fmt.Errorf("config: max payload %d smaller than block size %d", m.MaxPayload, m.BlockSize)
	case m.WireLatency < 0 || m.NsPerByte < 0:
		return fmt.Errorf("config: negative network parameters")
	case m.MsgHeader < 0:
		return fmt.Errorf("config: negative MsgHeader %d", m.MsgHeader)
	case m.AggThreshold < 0:
		return fmt.Errorf("config: negative aggregation threshold %d (use NoCoalesce to disable aggregation)", m.AggThreshold)
	case m.CPUMode != DualCPU && m.CPUMode != SingleCPU:
		return fmt.Errorf("config: CPUMode %d is neither %d (%v) nor %d (%v)", m.CPUMode, DualCPU, DualCPU, SingleCPU, SingleCPU)
	case m.Consistency != ReleaseConsistent && m.Consistency != SequentiallyConsistent:
		return fmt.Errorf("config: Consistency %d is neither %d (%v) nor %d (%v)", m.Consistency, ReleaseConsistent, ReleaseConsistent, SequentiallyConsistent, SequentiallyConsistent)
	case m.Topology != Flat && m.Topology != TreeTopo:
		return fmt.Errorf("config: Topology %d is neither %d (%v) nor %d (%v)", m.Topology, Flat, Flat, TreeTopo, TreeTopo)
	}
	for _, p := range []struct {
		name string
		v    sim.Time
	}{
		{"NsPerFlop", m.NsPerFlop}, {"LoopOver", m.LoopOver},
		{"SendOver", m.SendOver}, {"RecvOver", m.RecvOver}, {"HandlerCost", m.HandlerCost},
		{"FaultCost", m.FaultCost}, {"TagChange", m.TagChange}, {"BlockCopy", m.BlockCopy},
		{"BulkPerBlock", m.BulkPerBlock}, {"PageMapCost", m.PageMapCost}, {"BarrierEntry", m.BarrierEntry},
		{"MPSendOver", m.MPSendOver}, {"MPRecvOver", m.MPRecvOver}, {"MPPackPerByte", m.MPPackPerByte},
	} {
		if p.v < 0 {
			return fmt.Errorf("config: negative %s %d", p.name, p.v)
		}
	}
	for i, c := range m.Faults.Crashes {
		if c.Node >= m.Nodes {
			return fmt.Errorf("config: crash %d: node %d outside cluster of %d", i, c.Node, m.Nodes)
		}
		if c.Node == 0 {
			// Node 0 hosts the barrier master and owns the result scalars;
			// replacing it is future work (see DESIGN.md §11).
			return fmt.Errorf("config: crash %d: crashing node 0 (the synchronization master) is not supported", i)
		}
	}
	return m.Faults.Validate()
}

// FromJSON reads a Machine from JSON, starting from the default
// configuration so files only need to override what they change, and
// validates the result. Field names match the struct (e.g.
// {"Nodes": 16, "NsPerByte": 12, "WireLatency": 500}).
func FromJSON(r io.Reader) (Machine, error) {
	m := Default()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Machine{}, fmt.Errorf("config: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Machine{}, err
	}
	return m, nil
}

// MsgTime returns the wire time for a message with the given payload
// size: latency plus serialization of header and payload.
func (m Machine) MsgTime(payload int) sim.Time {
	return m.WireLatency + sim.Time(m.MsgHeader+payload)*m.NsPerByte
}

// ParseCrashSpec parses the hpfrun -crash syntax: "node=N@epoch=E" for
// an epoch-triggered crash or "node=N@t=D" for a time-triggered one,
// where D is a Go-style duration of whole ns/us/ms/s (e.g. "t=4ms").
func ParseCrashSpec(s string) (CrashSpec, error) {
	var c CrashSpec
	bad := func() (CrashSpec, error) {
		return CrashSpec{}, fmt.Errorf(`config: bad crash spec %q (want "node=N@epoch=E" or "node=N@t=4ms")`, s)
	}
	node, trigger, ok := strings.Cut(s, "@")
	if !ok {
		return bad()
	}
	nv, ok := strings.CutPrefix(node, "node=")
	if !ok {
		return bad()
	}
	n, err := strconv.Atoi(nv)
	if err != nil {
		return bad()
	}
	c.Node = n
	switch {
	case strings.HasPrefix(trigger, "epoch="):
		e, err := strconv.ParseInt(trigger[len("epoch="):], 10, 64)
		if err != nil || e <= 0 {
			return bad()
		}
		c.Epoch = e
	case strings.HasPrefix(trigger, "t="):
		d, err := parseSimDuration(trigger[len("t="):])
		if errors.Is(err, errClockOverflow) {
			return CrashSpec{}, fmt.Errorf("config: bad crash spec %q: %w", s, err)
		}
		if err != nil || d <= 0 {
			return bad()
		}
		c.At = d
	default:
		return bad()
	}
	return c, nil
}

// errClockOverflow is a duration too long for the int64 nanoseconds of
// the simulated clock.
var errClockOverflow = errors.New("the time overflows the simulated clock (at most 9223372036s)")

// parseSimDuration parses a whole-number duration with an ns/us/ms/s
// suffix into virtual nanoseconds.
func parseSimDuration(s string) (sim.Time, error) {
	unit := sim.Time(1)
	switch {
	case strings.HasSuffix(s, "ns"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		s, unit = s[:len(s)-2], sim.Microsecond
	case strings.HasSuffix(s, "ms"):
		s, unit = s[:len(s)-2], sim.Millisecond
	case strings.HasSuffix(s, "s"):
		s, unit = s[:len(s)-1], sim.Second
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if errors.Is(err, strconv.ErrRange) || v > math.MaxInt64/unit || v < math.MinInt64/unit {
		return 0, errClockOverflow
	}
	if err != nil {
		return 0, err
	}
	return v * unit, nil
}
