package protocol

import (
	"bytes"
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

// auditRef is the audit as a block-ordered walk that finds each
// block's home and entry through HomeOfBlock and lookup: the reference
// the page-ordered audit must agree with, diagnostic for diagnostic.
func (p *Proto) auditRef(quiescent bool) error {
	sp := p.C.Space
	nb := sp.NumBlocks()
	bs := sp.BlockSize()
	for b := 0; b < nb; b++ {
		homeID := sp.HomeOfBlock(b)
		home := p.nodes[homeID]
		e := home.lookup(b)
		if e != nil && !e.idle() {
			if quiescent {
				return fmt.Errorf("block %d%s: directory entry not quiescent (busy=%v pending=%d queued=%d)",
					b, p.blockInfo(b), e.busy(), e.pending, len(e.waitQ))
			}
			continue // mid-transaction at a barrier instant; nothing to audit
		}
		var writers, sharers, stale nodeset
		if e != nil {
			writers = e.writers()
			sharers = e.sharers()
			stale = e.stale()
		}
		cc := p.isCC(b)
		var dirtyMask, allDirty uint16
		for _, np := range p.nodes {
			allDirty |= np.n.Mem.Dirty(b)
		}
		for i, np := range p.nodes {
			d := np.n.Mem.Dirty(b)
			if d != 0 {
				if d&dirtyMask != 0 {
					return fmt.Errorf("block %d%s: overlapping dirty words across nodes (mask %016b at node %d)", b, p.blockInfo(b), d, i)
				}
				dirtyMask |= d
				if !writers.has(i) && homeID != i && (quiescent || !cc) {
					return fmt.Errorf("block %d%s: node %d holds dirty words but is not a directory writer", b, p.blockInfo(b), i)
				}
			}
			if np.n.Mem.Tag(b) != memory.ReadOnly || homeID == i {
				continue
			}
			if !writers.has(i) && !sharers.has(i) {
				if quiescent || !cc {
					return fmt.Errorf("block %d%s: node %d holds an untracked readonly copy", b, p.blockInfo(b), i)
				}
				continue
			}
			// Invariant 5: data agreement of the tracked readonly copy.
			if cc || !sharers.has(i) || stale.has(i) {
				continue
			}
			hd := home.n.Mem.BlockData(b)
			cd := np.n.Mem.BlockData(b)
			for w := 0; w < bs/8; w++ {
				if allDirty&(1<<uint(w)) != 0 {
					continue // legitimately divergent: someone owns this word
				}
				if !bytes.Equal(hd[w*8:w*8+8], cd[w*8:w*8+8]) {
					return fmt.Errorf("block %d word %d%s: node %d's readonly copy disagrees with home %d (copy %x, home %x)",
						b, w, p.blockInfo(b), i, homeID, cd[w*8:w*8+8], hd[w*8:w*8+8])
				}
			}
		}
	}
	return nil
}

// isCC reports whether any node ever moved block b through a
// compiler-controlled transfer (opened a frame, or sent/received it via
// send/flush): auditRef's per-block form of the audit's flag test.
func (p *Proto) isCC(b int) bool {
	for _, np := range p.nodes {
		if np.flags[b]&(flagCCFrame|flagCCTouched) != 0 {
			return true
		}
	}
	return false
}

// errText renders an audit verdict for comparison ("" for a pass).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// auditDiff returns a description of where the audit and auditRef
// disagree, in either mode, or "" when they agree.
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

// TestAuditMatchesReference: at every barrier of stress traffic, on the
// paper's flat layout and on a radix-4 tree, and once the cluster has
// drained, the audit returns what auditRef returns in both modes — the
// same first diagnostic, or nil from both.
func TestAuditMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name  string
		nodes int
		tree  bool
	}{{"flat", 4, false}, {"tree", 16, true}} {
		t.Run(c.name, func(t *testing.T) {
			h := newAuditHarness(c.nodes, c.tree)
			checks, flagged := 0, 0
			h.c.BarrierCheck = func() error {
				checks++
				if errText(h.p.auditRef(true)) != "" {
					flagged++
				}
				if d := auditDiff(h.p); d != "" {
					t.Errorf("barrier %d: %s", checks, d)
				}
				return h.p.CheckAtBarrier()
			}
			auditTraffic(h, c.nodes)
			if err := h.c.Env.Run(); err != nil {
				t.Fatal(err)
			}
			if err := h.c.CheckErr(); err != nil {
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
// auditRef in both modes. The seeds are the planted cases above.
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
	} {
		f.Add(s.node, s.block, s.tag, s.mask, s.word, s.busy, s.cc)
	}
	f.Fuzz(func(t *testing.T, node, block, tag uint8, mask uint16, word, busy int8, cc bool) {
		h, b0 := plantedCluster(t)
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

// BenchmarkAudit is the host cost of one barrier-mode and one
// quiescent-mode audit of an 8-node cluster after stress traffic.
func BenchmarkAudit(b *testing.B) {
	h := newAuditHarness(8, false)
	auditTraffic(h, 8)
	if err := h.c.Env.Run(); err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name      string
		quiescent bool
	}{{"barrier", false}, {"quiescent", true}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				h.p.audit(m.quiescent)
			}
		})
	}
}
