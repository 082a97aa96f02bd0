package protocol

import (
	"strings"
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// newFaultHarness is newHarness with fault injection active.
func newFaultHarness(t *testing.T, nodes, pages int, f config.Faults) *harness {
	t.Helper()
	mc := config.Default().WithNodes(nodes).WithCPUMode(config.DualCPU).WithFaults(f)
	sp := memory.NewSpace(mc)
	base := sp.Alloc("arr", pages*mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	return &harness{c: c, p: Attach(c), base: base, space: sp}
}

// watchdogDump is the test stand-in for the runtime's stall diagnostic.
func (h *harness) watchdogDump() string {
	return h.p.DumpOutstanding() + h.c.Net.DumpChannels()
}

func TestBarrierAuditUnderFaults(t *testing.T) {
	// Mixed read/write traffic over a lossy, duplicating wire: every
	// barrier-instant audit must pass, and the reliable layer must leave
	// the protocol state exactly as coherent as a lossless run would.
	h := newFaultHarness(t, 4, 8, config.Faults{Drop: 0.05, Dup: 0.02, Seed: 11})
	audits := h.auditAtBarrier()
	for id := 0; id < 4; id++ {
		id := id
		h.run(id, "w", func(p *sim.Proc, n *tempest.Node) {
			for r := 0; r < 3; r++ {
				for w := id; w < 96; w += 4 {
					n.StoreF64(p, h.base+8*w, float64(r+w))
				}
				h.c.Barrier(p, n)
				for w := 0; w < 96; w += 5 {
					n.LoadF64(p, h.base+8*w)
				}
				h.c.Barrier(p, n)
			}
		})
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := audits.err; err != nil {
		t.Fatal(err)
	}
	if audits.ran == 0 {
		t.Fatal("no barrier audits ran")
	}
	if err := h.p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.c.Stats.TotalWireDrops() == 0 || h.c.Stats.TotalRetransmits() == 0 {
		t.Fatalf("fault injection inert: drops=%d retransmits=%d",
			h.c.Stats.TotalWireDrops(), h.c.Stats.TotalRetransmits())
	}
}

func TestBarrierAuditCatchesCorruptedSharerCopy(t *testing.T) {
	// After a clean remote read, silently corrupt the sharer's cached
	// copy (no dirty bits, as a wild write through a stale pointer or a
	// protocol bug would): the barrier-instant data-agreement audit must
	// flag the divergence from the home copy.
	h := newHarness(t, 2, 2, config.DualCPU)
	addr := h.addrOnPage(0, 0)
	h.run(0, "writer", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, addr, 4.5)
		h.c.Barrier(p, n)
	})
	h.run(1, "reader", func(p *sim.Proc, n *tempest.Node) {
		h.c.Barrier(p, n)
		n.LoadF64(p, addr)
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := h.p.CheckAtBarrier(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}

	b := h.space.Block(addr)
	h.c.Nodes[1].Mem.WriteF64(addr, 9.75)
	h.c.Nodes[1].Mem.ClearDirty(b) // corruption, not a tracked write
	if err := h.p.CheckAtBarrier(); err == nil {
		t.Fatal("corrupted sharer copy not flagged by data-agreement audit")
	}
}

func TestPermanentLossTripsWatchdogWithDump(t *testing.T) {
	// A permanently dead link (response direction blackholed) leaves the
	// reader blocked forever while the sender retransmits endlessly. The
	// watchdog must convert that live-lock into a diagnostic naming the
	// blocked process, the stuck transaction, and the channel state.
	h := newFaultHarness(t, 2, 2, config.Faults{
		Drop: 0.000001, Seed: 1,
	})
	h.c.Env.SetWatchdog(5*sim.Millisecond, h.watchdogDump)
	h.c.Net.Blackhole(0, 1)
	addr := h.addrOnPage(0, 0)
	h.run(1, "reader", func(p *sim.Proc, n *tempest.Node) {
		n.LoadF64(p, addr) // response from home 0 never arrives
	})
	err := h.c.Env.Run()
	if err == nil {
		t.Fatal("expected watchdog error on permanent response loss")
	}
	for _, want := range []string{"watchdog", "reader", "channel 0->1", "retries"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic lacks %q:\n%v", want, err)
		}
	}
}

func TestGiveUpEndsInDeadlockWithDump(t *testing.T) {
	// With MaxRetries bounded, the sender eventually abandons the lost
	// message; the event queue drains and the run ends in deadlock
	// detection, which must carry the same diagnostic dump.
	h := newFaultHarness(t, 2, 2, config.Faults{
		Drop: 0.000001, Seed: 1,
		MaxRetries: 2,
	})
	h.c.Env.SetWatchdog(time24h, h.watchdogDump) // far horizon: never fires
	h.c.Net.Blackhole(0, 1)
	addr := h.addrOnPage(0, 0)
	h.run(1, "reader", func(p *sim.Proc, n *tempest.Node) {
		n.LoadF64(p, addr)
	})
	err := h.c.Env.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got: %v", err)
	}
	if !strings.Contains(err.Error(), "reader") || !strings.Contains(err.Error(), "blocking misses") {
		t.Fatalf("deadlock diagnostic lacks the dump:\n%v", err)
	}
	if h.c.Stats.TotalGiveUps() == 0 {
		t.Fatal("no give-up recorded")
	}
}

const time24h = 24 * 3600 * sim.Second
