// Package stats collects the performance counters the paper reports:
// miss counts, message and byte counts, and the split of each node's
// execution time into computation, communication (miss and protocol-call
// stalls), and barrier synchronization.
package stats

import (
	"fmt"
	"strings"

	"hpfdsm/internal/sim"
)

// latBuckets is the number of exponential miss-latency histogram
// buckets: bucket i covers [2^i, 2^(i+1)) microseconds, except that
// bucket 0 also takes stalls under 1 µs and the last bucket is
// open-ended.
const latBuckets = 14

// Node holds one simulated node's counters.
type Node struct {
	MsgsSent  int64
	MsgsRecv  int64
	BytesSent int64
	BytesRecv int64

	ReadMisses    int64 // faults on invalid blocks for a load
	WriteMisses   int64 // faults on invalid blocks for a store
	UpgradeMisses int64 // faults on read-only blocks for a store

	ProtoCalls    int64    // explicit compiler-directed protocol calls
	ProtoCallTime sim.Time // compute time spent inside those calls

	ComputeTime sim.Time // time spent in application computation
	CommTime    sim.Time // compute thread blocked on misses + protocol calls
	BarrierTime sim.Time // compute thread blocked at barriers
	StolenTime  sim.Time // handler time stolen from compute (single-CPU)

	// Reliable-delivery counters (unreliable-network fault injection;
	// all zero on the lossless network).
	WireDrops   int64 // transmissions lost in flight on this node's link
	WireDups    int64 // duplicate transmissions created in flight
	Retransmits int64 // timeout-driven retransmissions by this node
	DupsDropped int64 // arrivals discarded by this node's receive-side dedup
	AcksSent    int64 // reliable-delivery acknowledgements sent
	GiveUps     int64 // retransmit chains parked after MaxRetries (escalated to probing)
	ProbesSent  int64 // liveness probes sent by the failure detector
	ProbeAcks   int64 // liveness probes this node answered

	// Message-aggregation counters (the NIC-level coalescing scheduler;
	// both zero when aggregation is off).
	SegsCoalesced int64 // protocol messages that traveled as carrier segments
	CarriersSent  int64 // coalesced carrier messages injected

	// MissLatency is an exponential histogram of blocking-miss stall
	// times: bucket i counts stalls in [2^i, 2^(i+1)) µs, bucket 0 also
	// those under 1 µs.
	MissLatency [latBuckets]int64
}

// RecordMissLatency adds one blocking-miss stall to the histogram
// (a stall under 1 µs counts in bucket 0).
func (n *Node) RecordMissLatency(d sim.Time) {
	us := d / 1000
	b := 0
	for us >= 2 && b < latBuckets-1 {
		us >>= 1
		b++
	}
	n.MissLatency[b]++
}

// Misses returns the node's data-fetch misses (read and write misses).
// Non-blocking upgrade faults are tracked separately in UpgradeMisses:
// they transfer no data and hide their latency, and the paper's Table 3
// miss counts are fetch misses.
func (n *Node) Misses() int64 { return n.ReadMisses + n.WriteMisses }

// Cluster aggregates per-node counters for one run.
type Cluster struct {
	Nodes []Node
}

// New returns counters for an n-node cluster.
func New(n int) *Cluster { return &Cluster{Nodes: make([]Node, n)} }

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.Nodes) }

// sum folds one per-node counter over the cluster.
func (c *Cluster) sum(f func(n *Node) int64) int64 {
	var t int64
	for i := range c.Nodes {
		t += f(&c.Nodes[i])
	}
	return t
}

// avg is sum's per-node mean, 0 for an empty cluster.
func (c *Cluster) avg(f func(n *Node) int64) int64 {
	if len(c.Nodes) == 0 {
		return 0
	}
	return c.sum(f) / int64(len(c.Nodes))
}

// TotalMisses sums access faults over all nodes.
func (c *Cluster) TotalMisses() int64 { return c.sum((*Node).Misses) }

// AvgMissesPerNode reports the paper's Table 3 miss metric: the average
// number of misses per node.
func (c *Cluster) AvgMissesPerNode() float64 {
	if len(c.Nodes) == 0 {
		return 0
	}
	return float64(c.TotalMisses()) / float64(len(c.Nodes))
}

// TotalMessages sums messages sent over all nodes.
func (c *Cluster) TotalMessages() int64 {
	return c.sum(func(n *Node) int64 { return n.MsgsSent })
}

// TotalBytes sums payload+header bytes sent over all nodes.
func (c *Cluster) TotalBytes() int64 {
	return c.sum(func(n *Node) int64 { return n.BytesSent })
}

// TotalSegsCoalesced sums carrier-borne protocol messages over all
// nodes (each would have been a standalone wire message without the
// coalescing scheduler).
func (c *Cluster) TotalSegsCoalesced() int64 {
	return c.sum(func(n *Node) int64 { return n.SegsCoalesced })
}

// TotalCarriersSent sums coalesced carrier messages over all nodes.
func (c *Cluster) TotalCarriersSent() int64 {
	return c.sum(func(n *Node) int64 { return n.CarriersSent })
}

// TotalRetransmits sums timeout-driven retransmissions over all nodes.
func (c *Cluster) TotalRetransmits() int64 {
	return c.sum(func(n *Node) int64 { return n.Retransmits })
}

// TotalWireDrops sums fault-injected transmission losses over all nodes.
func (c *Cluster) TotalWireDrops() int64 {
	return c.sum(func(n *Node) int64 { return n.WireDrops })
}

// TotalWireDups sums fault-injected duplications over all nodes.
func (c *Cluster) TotalWireDups() int64 {
	return c.sum(func(n *Node) int64 { return n.WireDups })
}

// TotalDupsDropped sums receive-side dedup discards over all nodes.
func (c *Cluster) TotalDupsDropped() int64 {
	return c.sum(func(n *Node) int64 { return n.DupsDropped })
}

// TotalAcksSent sums reliable-delivery acknowledgements over all nodes.
func (c *Cluster) TotalAcksSent() int64 {
	return c.sum(func(n *Node) int64 { return n.AcksSent })
}

// TotalGiveUps sums retransmit chains parked after MaxRetries over all
// nodes. Nonzero means the failure detector escalated to probing.
func (c *Cluster) TotalGiveUps() int64 {
	return c.sum(func(n *Node) int64 { return n.GiveUps })
}

// TotalProbesSent sums failure-detector liveness probes over all nodes.
func (c *Cluster) TotalProbesSent() int64 {
	return c.sum(func(n *Node) int64 { return n.ProbesSent })
}

// FaultSummary renders the reliable-delivery counters in one line, or
// "" if the network never misbehaved (lossless configuration).
func (c *Cluster) FaultSummary() string {
	rtx, drops, dups := c.TotalRetransmits(), c.TotalWireDrops(), c.TotalWireDups()
	dedup, acks, giveUps := c.TotalDupsDropped(), c.TotalAcksSent(), c.TotalGiveUps()
	if rtx == 0 && drops == 0 && dups == 0 && dedup == 0 && acks == 0 && giveUps == 0 {
		return ""
	}
	s := fmt.Sprintf("retransmits=%d wire-drops=%d wire-dups=%d dedup-drops=%d acks=%d",
		rtx, drops, dups, dedup, acks)
	if giveUps > 0 {
		s += fmt.Sprintf(" GIVE-UPS=%d", giveUps)
	}
	return s
}

// AvgCommTime returns the mean per-node communication time including
// barrier waits.
func (c *Cluster) AvgCommTime() sim.Time {
	return c.avg(func(n *Node) int64 { return n.CommTime + n.BarrierTime })
}

// AvgComputeTime returns the mean per-node computation time.
func (c *Cluster) AvgComputeTime() sim.Time {
	return c.avg(func(n *Node) int64 { return n.ComputeTime })
}

// MissLatencyPercentile returns the approximate p-quantile (0..1) of
// blocking-miss stalls across the cluster, in microseconds (upper
// bucket bound), or 0 if no misses were recorded.
func (c *Cluster) MissLatencyPercentile(p float64) float64 {
	var hist [latBuckets]int64
	var total int64
	for i := range c.Nodes {
		for b, v := range c.Nodes[i].MissLatency {
			hist[b] += v
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	target := int64(p * float64(total))
	var seen int64
	for b, v := range hist {
		seen += v
		if seen > target {
			return float64(int64(1) << uint(b+1)) // upper bound of bucket, µs
		}
	}
	return float64(int64(1) << latBuckets)
}

// String renders a compact multi-line summary.
func (c *Cluster) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster of %d nodes: %d misses total (%.1f/node), %d msgs, %d bytes\n",
		c.N(), c.TotalMisses(), c.AvgMissesPerNode(), c.TotalMessages(), c.TotalBytes())
	if fs := c.FaultSummary(); fs != "" {
		fmt.Fprintf(&b, "  reliable delivery: %s\n", fs)
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		fmt.Fprintf(&b, "  node %d: misses=%d (r=%d w=%d) upgrades=%d msgs=%d compute=%.2fms comm=%.2fms barrier=%.2fms\n",
			i, n.Misses(), n.ReadMisses, n.WriteMisses, n.UpgradeMisses, n.MsgsSent,
			ms(n.ComputeTime), ms(n.CommTime), ms(n.BarrierTime))
	}
	return b.String()
}

func ms(t sim.Time) float64 { return float64(t) / 1e6 }
