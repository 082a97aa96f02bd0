package protocol

import (
	"fmt"
	"math/rand"
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

// errText renders an audit verdict for comparison ("" for a pass).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// auditDiff returns a description of where the audit and auditRef
// disagree, in either mode, or "" when they agree. A failing audit
// returns auditRef's diagnostic, so what this tells is that the audit's
// passes pass exactly when auditRef does.
func auditDiff(p *Proto) string {
	for _, q := range []bool{true, false} {
		if got, want := errText(p.audit(q)), errText(p.auditRef(q)); got != want {
			return fmt.Sprintf("quiescent=%v: audit says %q, the reference %q", q, got, want)
		}
	}
	return ""
}

// auditPages is the segment size of newAuditHarness.
const auditPages = 9

// newAuditHarness builds a dual-CPU cluster of auditPages pages, on the
// paper's flat layout or a radix-4 tree.
func newAuditHarness(nodes int, tree bool) *harness {
	mc := config.Default().WithNodes(nodes).WithCPUMode(config.DualCPU)
	if tree {
		mc = mc.WithTopology(config.TreeTopo).WithRadix(4)
	}
	sp := memory.NewSpace(mc)
	base := sp.Alloc("arr", auditPages*mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	return &harness{c: c, p: Attach(c), base: base, space: sp}
}

// auditTraffic spawns stress-style traffic on h's compute processes:
// each round every word of a false-sharing layout (three words to a
// block, blocks on every page but the last) gets a random writer, then
// every node reads a random sample. Node 1 also opens a
// compiler-controlled frame on the last page and writes it.
func auditTraffic(h *harness, nodes int) {
	const words, rounds, pages = 384, 4, auditPages
	rng := rand.New(rand.NewSource(29))
	writer := make([][words]int, rounds)
	for r := range writer {
		for w := range writer[r] {
			writer[r][w] = rng.Intn(nodes)
		}
	}
	addr := func(w int) int { return h.addrOnPage(w%(pages-1), 40*(w/(pages-1))) }
	bs := h.space.BlockSize()
	frame := []BlockRun{{Start: h.addrOnPage(pages-1, 0) / bs, N: 2}}
	for id := 0; id < nodes; id++ {
		h.run(id, "audit", func(p *sim.Proc, n *tempest.Node) {
			rd := rand.New(rand.NewSource(int64(id)))
			for r := 0; r < rounds; r++ {
				for w := 0; w < words; w++ {
					if writer[r][w] == id {
						n.StoreF64(p, addr(w), float64(r*words+w))
					}
				}
				if id == 1 && r == 1 {
					h.p.Node(1).ImplicitWritable(p, frame, true)
					n.StoreF64(p, frame[0].Start*bs, 1)
				}
				h.c.Barrier(p, n)
				for k := 0; k < 24; k++ {
					n.LoadF64(p, addr(rd.Intn(words)))
				}
				h.c.Barrier(p, n)
			}
		})
	}
}

// denseTraffic is shallow's shape: in each of rounds epochs every word
// of pages 0..7 is written by one node that is not the page's home, a
// different one each round, so every block of eight pages is dirty at a
// barrier and the next round's writers invalidate the last round's.
// Every node then reads a word of each page. h needs eight pages on
// eight or more nodes.
func denseTraffic(h *harness, nodes, rounds int) {
	ps := h.space.Machine().PageSize
	for id := 0; id < nodes; id++ {
		h.run(id, "dense", func(p *sim.Proc, n *tempest.Node) {
			for r := 0; r < rounds; r++ {
				for pg := 0; pg < 8; pg++ {
					if (pg+1+r)%nodes != id {
						continue
					}
					for off := 0; off < ps; off += 8 {
						n.StoreF64(p, h.addrOnPage(pg, off), float64(r+off))
					}
				}
				h.c.Barrier(p, n)
				for pg := 0; pg < 8; pg++ {
					n.LoadF64(p, h.addrOnPage(pg, 8*id))
				}
				h.c.Barrier(p, n)
			}
		})
	}
}

// restoredCluster drains stress traffic on a 4-node flat cluster,
// restores its checkpoint on a fresh one (Restore writes every tag and
// dirty mask through SetTag and SetDirtyMask), checks the restored
// state against auditRef before anything runs, and spawns more traffic.
func restoredCluster(t *testing.T) *harness {
	h := drained(t, 4, false, func(h *harness) { auditTraffic(h, 4) })
	r := newAuditHarness(4, false)
	if err := r.p.Restore(decoded(t, h)); err != nil {
		t.Fatal(err)
	}
	if d := cardsCoverLive(r.p); d != "" {
		t.Errorf("restored: %s", d)
	}
	if d := auditDiff(r.p); d != "" {
		t.Errorf("restored: %s", d)
	}
	auditTraffic(r, 4)
	return r
}

// cardsCoverLive returns a description of a block that is dirty, or
// readonly away from its home, under a page whose card is clear at that
// node — a block the audit would not read — or "" when there is none.
func cardsCoverLive(p *Proto) string {
	sp := p.C.Space
	for i, np := range p.nodes {
		mem := np.n.Mem
		for b := 0; b < sp.NumBlocks(); b++ {
			live := mem.Dirty(b) != 0 || mem.Tag(b) == memory.ReadOnly && sp.HomeOfBlock(b) != i
			if pg := sp.Page(b * sp.BlockSize()); live && !mem.Cards()[pg] {
				return fmt.Sprintf("node %d: block %d (dirty %016b, %v) under page %d, whose card is clear", i, b, mem.Dirty(b), mem.Tag(b), pg)
			}
		}
	}
	return ""
}

// cardAll sets the card of every page at every node through a mutator,
// leaving tags as they were: the cards traffic leaves behind on pages
// it has since cleaned up, for a clean audit to clear.
func cardAll(h *harness) {
	bpp := h.space.Machine().PageSize / h.space.BlockSize()
	for _, n := range h.c.Nodes {
		for pg := 0; pg < h.space.NumPages(); pg++ {
			b := pg * bpp
			t := n.Mem.Tag(b)
			n.Mem.SetTag(b, memory.ReadOnly)
			n.Mem.SetTag(b, t)
		}
	}
}

// plantInClearedCards drains the cluster build makes, sets every card
// (cardAll) and runs a clean barrier audit, which clears the cards of
// the pages with nothing live. At each node and such page away from
// the node's home, it then plants a dirty word and, separately, a
// readonly tag on the page's first block, each on its own copy of the
// settled cluster, and compares the audit with auditRef in both modes.
func plantInClearedCards(t *testing.T, build func(t *testing.T) *harness) {
	settle := func() *harness {
		h := build(t)
		if err := h.c.Env.Run(); err != nil {
			t.Fatal(err)
		}
		cardAll(h)
		if err := h.p.CheckAtBarrier(); err != nil {
			t.Fatalf("the drained cluster fails its barrier audit: %v", err)
		}
		return h
	}
	h := settle()
	ps := h.space.Machine().PageSize
	bpp := ps / h.space.BlockSize()
	planted, flagged := 0, 0
	for i, n := range h.c.Nodes {
		for pg := 0; pg < h.space.NumPages(); pg++ {
			if n.Mem.Cards()[pg] || h.space.Home(pg*ps) == i {
				continue
			}
			for _, pl := range []plant{
				{node: i, block: pg * bpp, tag: tagKeep, mask: 1, word: -1},
				{node: i, block: pg * bpp, tag: memory.ReadOnly, word: -1},
			} {
				c := settle()
				pl.apply(c)
				planted++
				if errText(c.p.auditRef(false)) != "" {
					flagged++
				}
				if d := auditDiff(c.p); d != "" {
					t.Errorf("node %d page %d, plant %+v: %s", i, pg, pl, d)
				}
			}
		}
	}
	if flagged == 0 {
		t.Fatalf("none of %d faults planted in cleared pages is a violation", planted)
	}
	t.Logf("%d faults planted in cleared pages, %d violations at a barrier", planted, flagged)
}

// TestAuditMatchesReference: at every barrier of stress traffic, on the
// paper's flat layout and on a radix-4 tree, of shallow's dense epochs,
// and of traffic on a cluster restored from a checkpoint, and once each
// cluster has drained, the audit returns what auditRef returns in both
// modes — the same first diagnostic, or nil from both — and every block
// it must read is under a set card. So does a fault planted in a page
// whose card a clean audit cleared.
func TestAuditMatchesReference(t *testing.T) {
	dense := func(*testing.T) *harness {
		h := newAuditHarness(8, false)
		denseTraffic(h, 8, 3)
		return h
	}
	for _, c := range []struct {
		name  string
		build func(t *testing.T) *harness // a cluster with its traffic spawned
	}{
		{"flat", func(*testing.T) *harness { h := newAuditHarness(4, false); auditTraffic(h, 4); return h }},
		{"tree", func(*testing.T) *harness { h := newAuditHarness(16, true); auditTraffic(h, 16); return h }},
		{"dense", dense},
		{"restored", restoredCluster},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := c.build(t)
			checks, flagged := 0, 0
			h.c.AtBarrier = append(h.c.AtBarrier, func(int64) {
				checks++
				if errText(h.p.auditRef(true)) != "" {
					flagged++
				}
				if d := cardsCoverLive(h.p); d != "" {
					t.Errorf("barrier %d: %s", checks, d)
				}
				if d := auditDiff(h.p); d != "" {
					t.Errorf("barrier %d: %s", checks, d)
				}
			})
			audits := h.auditAtBarrier()
			if err := h.c.Env.Run(); err != nil {
				t.Fatal(err)
			}
			if err := audits.err; err != nil {
				t.Fatal(err)
			}
			if d := auditDiff(h.p); d != "" {
				t.Errorf("drained: %s", d)
			}
			if checks == 0 {
				t.Fatal("no barrier audits ran")
			}
			t.Logf("%d barriers, %d with a quiescent-mode diagnostic", checks, flagged)
		})
	}
	t.Run("cleared card", func(t *testing.T) { plantInClearedCards(t, dense) })
}

// plant is one corruption of a settled cluster: node's tag for block
// (tagKeep leaves it), words OR-ed into its dirty mask, one byte of its
// copy flipped in word (-1: none), the home entry put mid-transaction
// (busy: 0 idle, 1 pending work, 2 collecting, 3 a queued request), and
// node's flags marking the block compiler-controlled.
type plant struct {
	node, block int
	tag         memory.Tag
	mask        uint16
	word        int
	busy        int
	cc          bool
}

const tagKeep memory.Tag = 3

// plantedCluster settles a 3-node cluster on a known state: node 1 owns
// a dirty word of block b0 (homed at node 0), node 2 shares b0+1, and
// b0+2 has no entry. It returns the harness and b0.
func plantedCluster(t *testing.T) (*harness, int) {
	h := newHarness(t, 3, 4, config.DualCPU)
	addr := h.addrOnPage(0, 0)
	bs := h.space.BlockSize()
	h.run(1, "writer", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, addr, 1)
		n.WaitPending(p)
	})
	h.run(2, "reader", func(p *sim.Proc, n *tempest.Node) {
		n.LoadF64(p, addr+bs)
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	return h, h.space.Block(addr)
}

// apply plants pl on h.
func (pl plant) apply(h *harness) {
	mem := h.c.Nodes[pl.node].Mem
	b := pl.block
	if pl.tag != tagKeep {
		mem.SetTag(b, pl.tag)
	}
	mem.SetDirtyMask(b, mem.Dirty(b)|pl.mask)
	if pl.word >= 0 {
		mem.Bytes(b*h.space.BlockSize()+8*pl.word, 1)[0] ^= 1
	}
	if pl.cc {
		h.p.nodes[pl.node].flags[b] |= flagCCTouched
	}
	home := h.p.nodes[h.space.HomeOfBlock(b)]
	switch pl.busy {
	case 1:
		home.entry(b).pending = 1
	case 2:
		home.entry(b).cur = dirReq{kind: KReadReq, block: b, src: pl.node}
	case 3:
		e := home.entry(b)
		e.waitQ = append(e.waitQ, dirReq{kind: KWriteReq, block: b, src: pl.node})
	}
}

// TestInvariantsCatchPlantedViolations plants one violation of each
// kind the audit reports, and one it must let pass at a barrier, and
// pins the message of each mode — agreeing with auditRef throughout.
func TestInvariantsCatchPlantedViolations(t *testing.T) {
	h, b0 := plantedCluster(t)
	if err := h.p.CheckInvariants(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	untracked := fmt.Sprintf("block %d: node 2 holds an untracked readonly copy", b0+2)
	for _, c := range []struct {
		name               string
		plant              plant
		quiescent, barrier string
	}{
		{"not quiescent", plant{node: 0, block: b0, tag: tagKeep, word: -1, busy: 1},
			fmt.Sprintf("block %d: directory entry not quiescent (busy=false pending=1 queued=0)", b0), ""},
		{"overlapping dirty", plant{node: 2, block: b0, tag: memory.ReadWrite, mask: 1, word: -1},
			fmt.Sprintf("block %d: overlapping dirty words across nodes (mask 0000000000000001 at node 2)", b0), "="},
		{"dirty non-writer", plant{node: 2, block: b0, tag: memory.ReadWrite, mask: 2, word: -1},
			fmt.Sprintf("block %d: node 2 holds dirty words but is not a directory writer", b0), "="},
		{"untracked readonly", plant{node: 2, block: b0 + 2, tag: memory.ReadOnly, word: -1}, untracked, "="},
		{"data disagreement", plant{node: 2, block: b0 + 1, tag: tagKeep, word: 3},
			fmt.Sprintf("block %d word 3: node 2's readonly copy disagrees with home 0 (copy 0100000000000000, home 0000000000000000)", b0+1), "="},
		{"barrier skips cc", plant{node: 2, block: b0 + 2, tag: memory.ReadOnly, word: -1, cc: true}, untracked, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, _ := plantedCluster(t)
			c.plant.apply(h)
			if c.barrier == "=" {
				c.barrier = c.quiescent
			}
			if got := errText(h.p.CheckInvariants()); got != c.quiescent {
				t.Errorf("quiescent audit = %q, want %q", got, c.quiescent)
			}
			if got := errText(h.p.CheckAtBarrier()); got != c.barrier {
				t.Errorf("barrier audit = %q, want %q", got, c.barrier)
			}
			if d := auditDiff(h.p); d != "" {
				t.Error(d)
			}
		})
	}
}

// FuzzAuditMatchesReference plants a corruption drawn from the input on
// the settled cluster of plantedCluster and compares the audit with
// auditRef in both modes. Before the plant every card is set and a
// clean audit clears those of the pages with nothing live, so a fault
// off page 0 lands in a page whose card the audit cleared. The seeds
// are the planted cases above, an overlap of the home's dirty words
// with a writer's (the one violation no other check also reports), then
// four faults in cleared pages: an untracked readonly copy, a dirty word
// at a non-writer, one at the home, and a disagreeing copy of a
// compiler-controlled block.
func FuzzAuditMatchesReference(f *testing.F) {
	for _, s := range []struct {
		node, block, tag uint8
		mask             uint16
		word, busy       int8
		cc               bool
	}{
		{0, 0, 3, 0, -1, 1, false},
		{2, 0, 2, 1, -1, 0, false},
		{2, 0, 2, 2, -1, 0, false},
		{2, 2, 1, 0, -1, 0, false},
		{2, 1, 3, 0, 3, 0, false},
		{2, 2, 1, 0, -1, 0, true},
		{1, 1, 0, 0x8000, 15, 2, false},
		{2, 0, 1, 0, -1, 3, false},
		{0, 0, 3, 1, -1, 0, false},
		{2, 40, 1, 0, -1, 0, false},
		{1, 70, 3, 4, -1, 0, false},
		{0, 100, 2, 1, -1, 0, false},
		{2, 33, 1, 0, 5, 0, true},
	} {
		f.Add(s.node, s.block, s.tag, s.mask, s.word, s.busy, s.cc)
	}
	f.Fuzz(func(t *testing.T, node, block, tag uint8, mask uint16, word, busy int8, cc bool) {
		h, b0 := plantedCluster(t)
		cardAll(h)
		if err := h.p.CheckAtBarrier(); err != nil {
			t.Fatalf("clean state flagged: %v", err)
		}
		words := h.space.BlockSize() / 8
		pl := plant{
			node:  int(node) % 3,
			block: (b0 + int(block)) % h.space.NumBlocks(),
			tag:   memory.Tag(tag % 4),
			mask:  mask & (1<<uint(words) - 1),
			word:  -1,
			busy:  int(busy) & 3,
			cc:    cc,
		}
		if word >= 0 {
			pl.word = int(word) % words
		}
		pl.apply(h)
		if d := auditDiff(h.p); d != "" {
			t.Fatal(d)
		}
	})
}

// drained returns the cluster of newAuditHarness(nodes, tree) after
// traffic has run on it to the end.
func drained(tb testing.TB, nodes int, tree bool, traffic func(h *harness)) *harness {
	h := newAuditHarness(nodes, tree)
	traffic(h)
	if err := h.c.Env.Run(); err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestAuditAllocs: once its scratch is sized, a passing barrier audit
// allocates nothing, after stress traffic and after a dense epoch.
func TestAuditAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		traffic func(h *harness)
	}{
		{"stress", func(h *harness) { auditTraffic(h, 8) }},
		{"dense", func(h *harness) { denseTraffic(h, 8, 1) }},
	} {
		h := drained(t, 8, false, c.traffic)
		if err := h.p.CheckAtBarrier(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(10, func() { h.p.CheckAtBarrier() }); n != 0 {
			t.Errorf("%s: a barrier audit allocates %v times", c.name, n)
		}
	}
}

// BenchmarkAudit is the host cost of one audit: barrier and quiescent
// mode on an 8-node cluster after stress traffic (whose compiler-
// controlled frame fails the quiescent audit, so that case costs a
// diagnostic), barrier mode on an 8-node cluster holding shallow's
// dense epoch, and a passing quiescent audit of a 256-node radix-4 tree
// after one.
func BenchmarkAudit(b *testing.B) {
	stress := drained(b, 8, false, func(h *harness) { auditTraffic(h, 8) })
	for _, c := range []struct {
		name      string
		h         func() *harness
		quiescent bool
	}{
		{"barrier", func() *harness { return stress }, false},
		{"quiescent", func() *harness { return stress }, true},
		{"dense/n8", func() *harness { return drained(b, 8, false, func(h *harness) { denseTraffic(h, 8, 1) }) }, false},
		{"quiescent/n256-tree", func() *harness { return drained(b, 256, true, func(h *harness) { denseTraffic(h, 256, 1) }) }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := c.h()
			b.ReportAllocs()
			for b.Loop() {
				h.p.audit(c.quiescent)
			}
		})
	}
}
