package network_test

import (
	"os"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// TestKeptPoolsAllocationsFlat runs the benchmark's miss storm, where
// every neighbour column is remote, at its benchmark size, about 30 000
// messages in flight at its peak: at 4 iterations and at 2, each Run
// after one that grew the kept pools. With the free lists kept from one
// Run to the next, under a cap above that high-water mark, and no
// record per handler run, twice the traffic allocates nothing more (a
// count that may move by a few between runs: the Go runtime's own
// caches empty at collections).
func TestKeptPoolsAllocationsFlat(t *testing.T) {
	if network.RaceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	src, err := os.ReadFile("../../benchmark/programs/storm.hpf")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(iters int) (float64, int64) {
		prog, err := lang.ParseWithOverrides(string(src), map[string]int{"ITERS": iters})
		if err != nil {
			t.Fatal(err)
		}
		opts := runtime.Options{Machine: config.Default(), Opt: compiler.OptNone}
		var msgs int64
		// AllocsPerRun's first, unmeasured call grows the pools.
		n := testing.AllocsPerRun(1, func() {
			res, err := runtime.Run(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			msgs = res.Stats.TotalMessages()
		})
		return n, msgs
	}
	a4, m4 := allocs(4)
	a2, m2 := allocs(2)
	if m4 < 2*m2-m2/4 {
		t.Fatalf("4 iterations sent %d messages, 2 sent %d: the traffic did not double", m4, m2)
	}
	if extra := a4 - a2; extra > float64(m4-m2)/1000 {
		t.Errorf("a Run allocates %v times at 2 iterations (%d messages) and %v at 4 (%d messages): %v more for %d more messages",
			a2, m2, a4, m4, extra, m4-m2)
	}
}

// TestDeferredMessageReclaimed holds one write's put_data_req back
// under sequential consistency and shows that the quarantine reclaims
// it: every message the run sends comes back, the deferred one
// included. Node 1's engine is kept busy, so its write grant and the
// home's put_data_req for node 2's write queue there together, and the
// put_data_req's handler runs while the granted store has not yet
// retired; it defers until it has.
func TestDeferredMessageReclaimed(t *testing.T) {
	mc := config.Default().WithNodes(3).WithConsistency(config.SequentiallyConsistent)
	sp := memory.NewSpace(mc)
	addr := sp.Alloc("x", mc.PageSize) // homed at node 0
	reclaimed, stop := network.QuarantineNew()
	defer stop()
	c := tempest.NewCluster(sim.NewEnv(), sp)
	p := protocol.Attach(c)
	n1, n2 := c.Nodes[1], c.Nodes[2]
	c.Env.Spawn("writer-1", func(pr *sim.Proc) {
		n1.OccupyProto(150 * sim.Microsecond)
		n1.StoreF64(pr, addr, 1)
	})
	c.Env.Spawn("writer-2", func(pr *sim.Proc) { n2.StoreF64(pr, addr, 2) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.CoherentRead(addr); got != 2 {
		t.Fatalf("the word reads %v after both writes, want node 2's 2", got)
	}
	if sent, got := c.Stats.TotalMessages(), int64(reclaimed()); got != sent {
		t.Errorf("the quarantine reclaimed %d of the %d messages sent", got, sent)
	}
}
