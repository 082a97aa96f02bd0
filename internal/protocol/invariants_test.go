package protocol

import (
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

func TestInvariantsHoldAfterTraffic(t *testing.T) {
	h := newHarness(t, 4, 8, config.DualCPU)
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
	if err := h.p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	census := map[memory.Tag]int{}
	for _, n := range h.c.Nodes {
		for b := 0; b < h.space.NumBlocks(); b++ {
			census[n.Mem.Tag(b)]++
		}
	}
	if census[memory.ReadWrite]+census[memory.ReadOnly]+census[memory.Invalid] == 0 {
		t.Fatal("tag census empty")
	}
}

func TestInvariantsCatchPlantedViolations(t *testing.T) {
	h := newHarness(t, 2, 2, config.DualCPU)
	addr := h.addrOnPage(0, 0)
	h.run(1, "setup", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, addr, 1) // node 1 becomes a directory writer
		n.WaitPending(p)
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := h.p.CheckInvariants(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}

	// Plant an untracked dirty copy at node 0 (which is the home of
	// page 0, so use a block homed at node 1's page instead).
	addr2 := h.addrOnPage(1, 0)
	b2 := h.space.Block(addr2)
	h.c.Nodes[0].Mem.SetTag(b2, memory.ReadWrite)
	h.c.Nodes[0].Mem.WriteF64(addr2, 9) // sets a dirty bit, no directory record
	if err := h.p.CheckInvariants(); err == nil {
		t.Fatal("untracked dirty copy not flagged")
	}
	h.c.Nodes[0].Mem.ClearDirty(b2)
	h.c.Nodes[0].Mem.SetTag(b2, memory.Invalid)

	// Plant an untracked readonly copy.
	h.c.Nodes[0].Mem.SetTag(b2, memory.ReadOnly)
	if err := h.p.CheckInvariants(); err == nil {
		t.Fatal("untracked readonly copy not flagged")
	}
}
