package stats

import (
	"strings"
	"testing"
)

func TestNodeMisses(t *testing.T) {
	// Upgrade faults are not fetch misses (the paper's Table 3 metric).
	n := Node{ReadMisses: 3, WriteMisses: 2, UpgradeMisses: 1}
	if n.Misses() != 5 {
		t.Fatalf("misses = %d", n.Misses())
	}
}

func TestClusterAggregates(t *testing.T) {
	c := New(4)
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	for i := range c.Nodes {
		c.Nodes[i].ReadMisses = int64(i + 1)
		c.Nodes[i].MsgsSent = 10
		c.Nodes[i].BytesSent = 100
		c.Nodes[i].CommTime = int64(i) * 1000
		c.Nodes[i].BarrierTime = 500
		c.Nodes[i].ComputeTime = 2000
	}
	if c.TotalMisses() != 10 {
		t.Fatalf("total misses = %d", c.TotalMisses())
	}
	if c.AvgMissesPerNode() != 2.5 {
		t.Fatalf("avg misses = %v", c.AvgMissesPerNode())
	}
	if c.TotalMessages() != 40 || c.TotalBytes() != 400 {
		t.Fatal("message totals wrong")
	}
	if c.AvgCommTime() != (0+1000+2000+3000+4*500)/4 {
		t.Fatalf("avg comm = %d", c.AvgCommTime())
	}
	if c.AvgComputeTime() != 2000 {
		t.Fatalf("avg compute = %d", c.AvgComputeTime())
	}
}

func TestEmptyCluster(t *testing.T) {
	c := New(0)
	if c.AvgMissesPerNode() != 0 || c.AvgCommTime() != 0 || c.AvgComputeTime() != 0 {
		t.Fatal("empty cluster averages must be zero")
	}
}

func TestStringRendering(t *testing.T) {
	c := New(2)
	c.Nodes[0].ReadMisses = 5
	s := c.String()
	if !strings.Contains(s, "cluster of 2 nodes") || !strings.Contains(s, "node 0") {
		t.Fatalf("summary missing parts:\n%s", s)
	}
}

func TestMissLatencyHistogram(t *testing.T) {
	c := New(2)
	// 90 fast misses (~90 µs) and 10 slow ones (~1500 µs).
	for i := 0; i < 90; i++ {
		c.Nodes[0].RecordMissLatency(90_000)
	}
	for i := 0; i < 10; i++ {
		c.Nodes[1].RecordMissLatency(1_500_000)
	}
	p50 := c.MissLatencyPercentile(0.5)
	if p50 < 64 || p50 > 256 {
		t.Fatalf("p50 = %v µs, want around 128", p50)
	}
	p99 := c.MissLatencyPercentile(0.99)
	if p99 < 1024 {
		t.Fatalf("p99 = %v µs, want >= 1024", p99)
	}
	if New(1).MissLatencyPercentile(0.5) != 0 {
		t.Fatal("empty histogram percentile should be 0")
	}
}

func TestMissLatencyBucketBounds(t *testing.T) {
	var n Node
	n.RecordMissLatency(500)         // <1 µs -> bucket 0
	n.RecordMissLatency(3_000)       // 3 µs -> bucket 1
	n.RecordMissLatency(100_000_000) // 100 ms -> clamped to last bucket
	if n.MissLatency[0] != 1 || n.MissLatency[1] != 1 || n.MissLatency[13] != 1 {
		t.Fatalf("buckets = %v", n.MissLatency)
	}
}
