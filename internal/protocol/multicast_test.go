package protocol

import (
	"strings"
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
	"hpfdsm/internal/trace"
)

// newTreeHarness is newHarness under the tree topology (default radix),
// optionally with fault injection active.
func newTreeHarness(t *testing.T, nodes, pages int, f *config.Faults) *harness {
	t.Helper()
	mc := config.Default().WithNodes(nodes).WithCPUMode(config.DualCPU).WithTopology(config.TreeTopo)
	if f != nil {
		mc = mc.WithFaults(*f)
	}
	sp := memory.NewSpace(mc)
	base := sp.Alloc("arr", pages*mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	return &harness{c: c, p: Attach(c), base: base, space: sp}
}

func TestTreeInvalFanOutRound(t *testing.T) {
	// Sixteen nodes (four radix-4 clusters), every node reads one block
	// homed at node 0, then node 1 upgrades it. The home must open one
	// relay round per multi-sharer cluster — cluster 0 contributes
	// sharers {2,3} (home is local, the writer is the requester), the
	// other three contribute four sharers each — and every reader must
	// observe the new value afterwards. Barrier-instant audits run
	// throughout (the -check auditor with tree invalidation on), and the
	// quiescent audit must pass at the end.
	h := newTreeHarness(t, 16, 2, nil)
	h.c.BarrierCheck = h.p.CheckAtBarrier
	addr := h.addrOnPage(0, 0)
	got := make([]float64, 16)
	for id := 0; id < 16; id++ {
		id := id
		h.run(id, "n", func(p *sim.Proc, n *tempest.Node) {
			n.LoadF64(p, addr)
			n.WaitPending(p)
			h.c.Barrier(p, n)
			if id == 1 {
				n.StoreF64(p, addr, 2.5)
			}
			n.WaitPending(p)
			h.c.Barrier(p, n)
			got[id] = n.LoadF64(p, addr)
			n.WaitPending(p)
			h.c.Barrier(p, n)
		})
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := h.c.CheckErr(); err != nil {
		t.Fatal(err)
	}
	if h.c.BarrierChecks() == 0 {
		t.Fatal("no barrier audits ran")
	}
	if err := h.p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for id, v := range got {
		if v != 2.5 {
			t.Fatalf("node %d read %v after the upgrade, want 2.5", id, v)
		}
	}
	if rounds := h.p.InvalRounds(); rounds != 4 {
		t.Fatalf("relay rounds = %d, want 4 (one per multi-sharer cluster)", rounds)
	}
}

func TestTreeInvalSkipsCrashedSharer(t *testing.T) {
	// A sharer that crashed before the invalidation round must not stall
	// it: its copy died with the node, so the home retires it from the
	// directory up front and the cluster's relay round runs over the
	// remaining live leaves.
	h := newTreeHarness(t, 16, 2, nil)
	addr := h.addrOnPage(0, 0)
	b := h.space.Block(addr)
	for id := 0; id < 16; id++ {
		id := id
		h.run(id, "n", func(p *sim.Proc, n *tempest.Node) {
			n.LoadF64(p, addr)
			n.WaitPending(p)
			h.c.Barrier(p, n)
			switch id {
			case 6:
				// Crash-stop immediately after the barrier: node 6 is a
				// registered sharer in cluster 1 but not its relay (the
				// home picks the lowest live sharer, node 4).
				h.c.Net.MarkDead(6)
			case 1:
				p.Sleep(200 * sim.Microsecond) // let the crash land first
				n.StoreF64(p, addr, 3.25)
				n.WaitPending(p) // completes only if the round closes
			}
		})
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	home := h.p.nodes[0]
	e := home.lookup(b)
	if e == nil {
		t.Fatal("home has no directory entry for the contested block")
	}
	if e.busy || e.pending != 0 {
		t.Fatalf("round did not close: busy=%v pending=%d", e.busy, e.pending)
	}
	if e.sharers.has(6) {
		t.Fatal("crashed sharer 6 still in the directory sharer set")
	}
	for _, id := range []int{2, 3, 4, 5, 7, 8, 11, 12, 15} {
		if tag := h.c.Nodes[id].Mem.Tag(b); tag != memory.Invalid {
			t.Fatalf("live sharer %d still holds tag %v after the round", id, tag)
		}
	}
	if rounds := h.p.InvalRounds(); rounds != 4 {
		t.Fatalf("relay rounds = %d, want 4 (cluster 1 runs with 3 live leaves)", rounds)
	}
}

func TestTreeInvalRelayCrashMidRoundDiagnosed(t *testing.T) {
	// The relay crashes while its KInvalTree is on the wire: the message
	// vanishes at delivery, the home's pending count can never drain, and
	// the layered failure machinery must (a) escalate through the probe
	// path and declare the relay dead, and (b) end the run with a
	// diagnostic naming the stuck transaction — never hang silently.
	h := newTreeHarness(t, 16, 2, &config.Faults{
		Drop: 1e-9, Seed: 7,
		RetransmitTimeout: 50 * sim.Microsecond,
		MaxRetries:        3,
	})
	h.c.Env.SetWatchdog(50*sim.Millisecond, h.watchdogDump)
	var detected int
	var reason string
	h.c.Net.OnDeath = func(node int, why string) { detected, reason = node, why }
	addr := h.addrOnPage(0, 0)
	for id := 0; id < 16; id++ {
		id := id
		h.run(id, "n", func(p *sim.Proc, n *tempest.Node) {
			n.LoadF64(p, addr)
			n.WaitPending(p)
			h.c.Barrier(p, n)
			if id == 1 {
				p.Sleep(100 * sim.Microsecond)
				n.StoreF64(p, addr, 4.5)
				n.WaitPending(p) // blocks forever: cluster 1 never answers
			}
		})
	}
	// Kill node 4 (cluster 1's relay) the instant the home has opened
	// its relay rounds: the KInvalTree is then in flight and vanishes.
	h.c.Env.Spawn("killer", func(p *sim.Proc) {
		for i := 0; i < 1_000_000; i++ {
			if h.p.nodes[0].invalRounds > 0 {
				h.c.Net.MarkDead(4)
				return
			}
			p.Sleep(sim.Microsecond)
		}
	})
	err := h.c.Env.Run()
	if err == nil {
		t.Fatal("expected a deadlock or watchdog diagnostic, run completed")
	}
	if detected != 4 {
		t.Fatalf("failure detector declared node %d dead, want relay 4 (reason %q)", detected, reason)
	}
	if !strings.Contains(reason, "probes") {
		t.Fatalf("death verdict did not come from the probe path: %q", reason)
	}
	if !strings.Contains(err.Error(), "directory block") || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("diagnostic does not name the stuck directory transaction:\n%v", err)
	}
}

func TestTreeInvalAllDirtyRelayRound(t *testing.T) {
	// Both leaves of a relayed cluster upgraded concurrently with the
	// remote write that invalidates them: each flushes its dirty words
	// straight to the home and so retires itself there, and the relay's
	// combined ack carries an empty clean-leaf mask. Twelve read misses
	// homed at the relay keep its engine busy, so that ack is the last
	// message of the exchange to reach the home — after both leaves'
	// queued upgrades were served too — and finds the entry idle.
	h := newTreeHarness(t, 16, 8, nil)
	h.c.BarrierCheck = h.p.CheckAtBarrier
	tr := trace.New(16)
	tr.KindName = func(k uint8) string { return MsgKindName(network.Kind(k)) }
	h.c.SetTracer(tr)
	addr := h.addrOnPage(0, 0)
	const storeAt = 2 * sim.Millisecond
	for id := 0; id < 16; id++ {
		id := id
		h.run(id, "n", func(p *sim.Proc, n *tempest.Node) {
			if id == 4 || id == 5 {
				n.LoadF64(p, addr)
			}
			n.WaitPending(p)
			h.c.Barrier(p, n)
			switch id {
			case 0:
			case 1:
				p.Sleep(storeAt - p.Now())
				n.StoreF64(p, addr, 1)
			case 5: // the forwarded leaf: its upgrade queues first
				p.Sleep(storeAt + 50*sim.Microsecond - p.Now())
				n.StoreF64(p, addr+8, 5)
			case 4: // the relay
				p.Sleep(storeAt + 55*sim.Microsecond - p.Now())
				n.StoreF64(p, addr+16, 4)
			default:
				p.Sleep(storeAt + 60*sim.Microsecond - p.Now())
				n.LoadF64(p, h.addrOnPage(4, id*h.space.BlockSize()))
			}
			n.WaitPending(p)
			h.c.Barrier(p, n)
		})
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := h.c.CheckErr(); err != nil {
		t.Fatal(err)
	}
	if err := h.p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var ackAt, lastFlushAt sim.Time
	for _, e := range tr.Events() {
		switch {
		case e.Pid != 0:
		case e.Name == "h:inval_ack_tree":
			ackAt = e.Ts
		case e.Name == "h:put_data_resp":
			lastFlushAt = e.Ts
		}
	}
	if ackAt <= lastFlushAt {
		t.Fatalf("combined ack handled at %v, before the last flush at %v: the scenario no longer lands it on an idle entry", ackAt, lastFlushAt)
	}
	for w, want := range []float64{1, 5, 4} {
		if got := h.p.CoherentRead(addr + 8*w); got != want {
			t.Fatalf("word %d = %v after the round, want %v", w, got, want)
		}
	}
}
