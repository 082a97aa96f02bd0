package protocol

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
	"hpfdsm/internal/trace"
)

// pinRound is one row of TestInvalidationRoundsPinned: a cluster shape,
// who shares the contested blocks (two adjacent ones homed at node 0,
// so that with the coalescer on each leg's pair of messages shares a
// carrier), which sharers store to them 50 µs after the remote writer
// does (5 µs apart, in list order) — late enough that the writer's
// requests reach the home first, early enough that their own upgrade
// requests are still in flight (and their words dirty) when the
// invalidations land — and who reads the blocks back at the end. With
// busy set, every node without a role read-misses on a block homed at
// that node while the round runs, which holds up whatever that node's
// protocol engine has to send.
type pinRound struct {
	name    string
	nodes   int
	tree    bool // radix-4 combining tree, else the paper's flat layout
	coal    bool // NIC coalescer on (EnableAggregation)
	writer  int
	sharers []int
	dirty   []int
	busy    int
	reader  int
}

// The tree rows put sharers in four radix-4 clusters of a ragged
// 19-node tree: {4,5,6} is relayed by a clean relay with one dirty
// forwarded leaf, {8,9,10} by a dirty relay with clean leaves, 12 is a
// dirty singleton (plain KInval, flush instead of ack), 16 a clean
// singleton. Each dirty sharer's queued upgrade then takes the block
// from the previous writer (KPutDataReq with invalidate, grant carrying
// data), and the closing read collects it from the last one (KPutDataReq
// keeping a readonly copy). The flat rows run the same roles on the
// paper's 8 nodes.
var pinRounds = []pinRound{
	{name: "flat8", nodes: 8, writer: 1, sharers: []int{2, 3, 4, 5, 6, 7}, dirty: []int{3, 4, 6}, reader: 2},
	{name: "flat8-coal", nodes: 8, coal: true, writer: 1, sharers: []int{2, 3, 4, 5, 6, 7}, dirty: []int{3, 4, 6}, reader: 2},
	{name: "tree19", nodes: 19, tree: true, writer: 13, sharers: []int{4, 5, 6, 8, 9, 10, 12, 16}, dirty: []int{5, 8, 12}, reader: 17},
	{name: "tree19-coal", nodes: 19, tree: true, coal: true, writer: 13, sharers: []int{4, 5, 6, 8, 9, 10, 12, 16}, dirty: []int{5, 8, 12}, reader: 17},
	// Every leaf of the relayed cluster {4,5} is dirty and its relay is
	// held up, so the combined ack arrives last, empty, at an idle entry.
	// That used to panic, so this row alone was captured after the fold.
	{name: "tree19-alldirty", nodes: 19, tree: true, writer: 1, sharers: []int{4, 5}, dirty: []int{5, 4}, busy: 4, reader: 17},
}

// TestInvalidationRoundsPinned pins the contested blocks' whole
// invalidation exchange — every surrender, acknowledgement, grant and
// queued upgrade — to the nanosecond and the message: each storer's
// grant-completion instant, every node's final tag, the home's words,
// per-node message and byte counts, the handled-message census by kind,
// and the engine's clock and event census at the end of the run.
func TestInvalidationRoundsPinned(t *testing.T) {
	for _, row := range pinRounds {
		row := row
		t.Run(row.name, func(t *testing.T) {
			got, want := runPinRound(t, row), strings.TrimPrefix(pinWant[row.name], "\n")
			if got != want {
				t.Fatalf("invalidation round drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

func runPinRound(t *testing.T, row pinRound) string {
	t.Helper()
	mc := config.Default().WithNodes(row.nodes).WithCPUMode(config.DualCPU)
	if row.tree {
		mc = mc.WithTopology(config.TreeTopo).WithRadix(4)
	}
	sp := memory.NewSpace(mc)
	base := sp.Alloc("arr", row.nodes*mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	h := &harness{c: c, p: Attach(c), base: base, space: sp}
	if row.coal {
		h.p.EnableAggregation(config.DefaultAggDelay)
	}
	audits := h.auditAtBarrier()
	tr := trace.New(row.nodes)
	h.c.SetTracer(tr)

	const blocks = 2
	addr := func(blk, word int) int { return h.addrOnPage(0, blk*mc.BlockSize+8*word) }
	role := make([]int, row.nodes) // 0 idle, 1 sharer, 2+i dirty sharer i
	for _, s := range row.sharers {
		role[s] = 1
	}
	for i, d := range row.dirty {
		role[d] = 2 + i
	}
	const storeAt = 2 * sim.Millisecond
	done := make([]sim.Time, row.nodes)
	words := 1 + len(row.dirty)
	read := make([]float64, blocks*words)
	for id := 0; id < row.nodes; id++ {
		id := id
		h.run(id, "n", func(p *sim.Proc, n *tempest.Node) {
			if role[id] > 0 {
				for blk := 0; blk < blocks; blk++ {
					n.LoadF64(p, addr(blk, 0))
				}
			}
			n.WaitPending(p)
			h.c.Barrier(p, n)
			switch {
			case id == row.writer:
				p.Sleep(storeAt - p.Now())
				for blk := 0; blk < blocks; blk++ {
					n.StoreF64(p, addr(blk, 0), 1)
				}
				n.WaitPending(p)
				done[id] = p.Now()
			case role[id] >= 2:
				p.Sleep(storeAt + sim.Time(50+5*(role[id]-2))*sim.Microsecond - p.Now())
				for blk := 0; blk < blocks; blk++ {
					n.StoreF64(p, addr(blk, role[id]-1), float64(id))
				}
				n.WaitPending(p)
				done[id] = p.Now()
			case row.busy != 0 && role[id] == 0 && id != 0:
				p.Sleep(storeAt + 60*sim.Microsecond - p.Now())
				n.LoadF64(p, h.addrOnPage(row.busy, id*mc.BlockSize))
			}
			n.WaitPending(p)
			h.c.Barrier(p, n)
			if id == row.reader {
				for i := range read {
					read[i] = n.LoadF64(p, addr(i/words, i%words))
				}
			}
			n.WaitPending(p)
			h.c.Barrier(p, n)
		})
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := audits.err; err != nil {
		t.Fatal(err)
	}
	if err := h.p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, v := range read {
		want := 1.0 // the writer's word
		if w := i % words; w > 0 {
			want = float64(row.dirty[w-1])
		}
		if v != want {
			t.Fatalf("reader saw block %d word %d = %v, want %v", i/words, i%words, v, want)
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, "done:")
	for id, at := range done {
		if at != 0 {
			fmt.Fprintf(&out, " n%d@%d", id, at)
		}
	}
	for blk := 0; blk < blocks; blk++ {
		fmt.Fprintf(&out, "\ntags%d:", blk)
		for _, n := range h.c.Nodes {
			fmt.Fprintf(&out, " %v", n.Mem.Tag(sp.Block(addr(blk, 0))))
		}
	}
	fmt.Fprintf(&out, "\nhome:")
	for i := range read {
		fmt.Fprintf(&out, " %v", h.c.Nodes[0].Mem.ReadF64(addr(i/words, i%words)))
	}
	fmt.Fprintf(&out, "\nsent:")
	for id := range h.c.Stats.Nodes {
		st := &h.c.Stats.Nodes[id]
		fmt.Fprintf(&out, " %d/%d", st.MsgsSent, st.BytesSent)
	}
	// Handled messages by kind: one handler span per wire message, one
	// instant per carrier segment.
	census := map[string]int{}
	for _, e := range tr.Events() {
		if k, ok := strings.CutPrefix(e.Name, "h:"); ok {
			census[k]++
		} else if k, ok := strings.CutPrefix(e.Name, "seg:"); ok {
			census["seg."+k]++
		}
	}
	kinds := make([]string, 0, len(census))
	for k := range census {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(&out, "\nkinds:")
	for _, k := range kinds {
		fmt.Fprintf(&out, " %s=%d", k, census[k])
	}
	ev := h.c.Env.Events()
	fmt.Fprintf(&out, "\nrounds=%d now=%d events=%d/%d/%d\n", h.p.InvalRounds(), h.c.Env.Now(), ev.Dispatches, ev.ArgEvents, ev.FnEvents)
	return out.String()
}

// pinWant holds each row's pinned outcome, captured at the commit before
// the invalidation transitions were folded into shared routines.
var pinWant = map[string]string{
	"flat8": `
done: n1@2716000 n3@2857000 n4@2998000 n6@3122700
tags0: invalid invalid readonly invalid invalid invalid readonly invalid
tags1: invalid invalid readonly invalid invalid invalid readonly invalid
home: 1 3 4 6 1 3 4 6
sent: 63/4068 7/396 9/204 11/732 11/732 7/156 11/732 7/156
kinds: barrier_arrive=21 barrier_release=21 inval=12 inval_ack=6 put_data_req=8 put_data_resp=14 read_req=14 read_resp=14 upgrade_req=6 write_grant=6 write_req=2 write_resp=2
rounds=0 now=3600900 events=120/314/14
`,
	"flat8-coal": `
done: n1@2624500 n3@2779100 n4@2926100 n6@3051100
tags0: invalid invalid readonly invalid invalid invalid readonly invalid
tags1: invalid invalid readonly invalid invalid invalid readonly invalid
home: 1 3 4 6 1 3 4 6
sent: 57/4080 6/398 8/206 10/734 10/734 6/158 10/734 6/158
kinds: barrier_arrive=21 barrier_release=21 coalesced=13 put_data_req=8 put_data_resp=14 read_req=14 read_resp=14 seg.inval=12 seg.inval_ack=6 seg.upgrade_req=6 seg.write_req=2 write_grant=6 write_resp=2
rounds=0 now=3529300 events=120/302/14
`,
	"tree19": `
done: n5@2821000 n8@2954700 n12@3088400 n13@2680000
tags0: invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid readonly invalid invalid invalid invalid readonly invalid
tags1: invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid readonly invalid invalid invalid invalid readonly invalid
home: 1 5 8 12 1 5 8 12
sent: 54/4368 15/300 15/300 15/300 17/372 13/780 7/156 3/60 17/876 7/156 7/156 3/60 11/732 7/396 3/60 3/60 7/156 5/108 3/60
kinds: inval=4 inval_ack=2 inval_ack_fwd=8 inval_ack_tree=4 inval_fwd=8 inval_tree=4 put_data_req=8 put_data_resp=14 read_req=18 read_resp=18 tree_barrier_down=54 tree_barrier_up=54 upgrade_req=6 write_grant=6 write_req=2 write_resp=2
rounds=4 now=3541600 events=185/502/18
`,
	"tree19-coal": `
done: n5@2794700 n8@2941700 n12@3075700 n13@2640100
tags0: invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid readonly invalid invalid invalid invalid readonly invalid
tags1: invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid readonly invalid invalid invalid invalid readonly invalid
home: 1 5 8 12 1 5 8 12
sent: 52/4372 15/300 15/300 15/300 17/372 12/782 7/156 3/60 16/878 7/156 7/156 3/60 10/734 6/398 3/60 3/60 6/158 5/108 3/60
kinds: coalesced=7 inval_ack_fwd=8 inval_ack_tree=4 inval_fwd=8 inval_tree=4 put_data_req=8 put_data_resp=14 read_req=18 read_resp=18 seg.inval=4 seg.inval_ack=2 seg.upgrade_req=6 seg.write_req=2 tree_barrier_down=54 tree_barrier_up=54 write_grant=6 write_resp=2
rounds=4 now=3528900 events=185/502/18
`,
	"tree19-alldirty": `
done: n1@2866200 n4@3112600 n5@2978900
tags0: invalid invalid invalid invalid readonly invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid readonly invalid
tags1: invalid invalid invalid invalid readonly invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid invalid readonly invalid
home: 1 5 4 1 5 4
sent: 32/2160 19/636 16/324 16/324 36/3108 13/780 4/84 4/84 4/84 4/84 4/84 4/84 4/84 4/84 4/84 4/84 4/84 6/132 4/84
kinds: inval_ack_fwd=2 inval_ack_tree=2 inval_fwd=2 inval_tree=2 put_data_req=6 put_data_resp=10 read_req=21 read_resp=21 tree_barrier_down=54 tree_barrier_up=54 upgrade_req=4 write_grant=4 write_req=2 write_resp=2
rounds=2 now=3576800 events=202/423/21
`,
}
