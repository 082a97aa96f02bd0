package network

import (
	"bytes"
	"fmt"
	"testing"

	"hpfdsm/internal/sim"
)

// capture attaches a coalescer to src whose send just records composed
// messages (what the protocol engine would inject onto the wire).
func capture(n *Network, src int, delay sim.Time) (*Coalescer, *[]*Message) {
	var got []*Message
	c := n.AttachCoalescer(src, Kind(99), 8, delay, func(m *Message) { got = append(got, m) })
	// The test send fn swallows messages instead of wiring them, so
	// give the closure's slice back to the caller by pointer.
	return c, &got
}

func TestCoalesceMixedKindsOneCarrier(t *testing.T) {
	_, net, _, _ := testNet(4)
	c, got := capture(net, 0, 0)

	p1 := []byte{1, 2, 3, 4, 5}
	c.Append(2, Kind(7), 100, 3, 0, p1, false)
	c.Append(2, Kind(8), 200, 1, 42, nil, false)
	c.Append(2, Kind(9), 300, 2, 0, []byte{9, 9}, false)
	if c.Pending(2) != 3 {
		t.Fatalf("pending = %d, want 3", c.Pending(2))
	}
	c.FlushDst(2)
	if c.Pending(2) != 0 {
		t.Fatalf("buffer not cleared by drain")
	}
	if len(*got) != 1 {
		t.Fatalf("drained %d messages, want 1 carrier", len(*got))
	}
	m := (*got)[0]
	if m.Kind != Kind(99) || m.Src != 0 || m.Dst != 2 || m.Arg != 3 {
		t.Fatalf("carrier header wrong: %+v", m)
	}
	if m.Size != len(m.Data) || m.Size != 3*SegHeader+len(p1)+2 {
		t.Fatalf("carrier size %d over %d data bytes, want exact segment sum %d",
			m.Size, len(m.Data), 3*SegHeader+len(p1)+2)
	}
	type seg struct {
		kind      Kind
		addr      int
		arg, arg2 int64
		payload   []byte
	}
	var segs []seg
	ForEachSegment(m.Data, int(m.Arg), func(k Kind, addr int, a1, a2 int64, p []byte) {
		segs = append(segs, seg{k, addr, a1, a2, append([]byte(nil), p...)})
	})
	want := []seg{
		{Kind(7), 100, 3, 0, p1},
		{Kind(8), 200, 1, 42, nil},
		{Kind(9), 300, 2, 0, []byte{9, 9}},
	}
	if len(segs) != len(want) {
		t.Fatalf("decoded %d segments, want %d", len(segs), len(want))
	}
	for i := range want {
		if segs[i].kind != want[i].kind || segs[i].addr != want[i].addr ||
			segs[i].arg != want[i].arg || segs[i].arg2 != want[i].arg2 ||
			!bytes.Equal(segs[i].payload, want[i].payload) {
			t.Fatalf("segment %d = %+v, want %+v (append order must be preserved)", i, segs[i], want[i])
		}
	}
}

func TestCoalesceSingletonBypass(t *testing.T) {
	_, net, _, _ := testNet(4)
	c, got := capture(net, 0, 0)

	// A lone data segment departs as a standalone message of its
	// original kind, with the standalone Size (no carrier framing).
	pay := bytes.Repeat([]byte{10, 20, 30}, 4)
	c.Append(1, Kind(7), 640, 5, 6, pay, false)
	c.FlushDst(1)
	// A lone control segment reproduces the protocol's control Size.
	c.Append(3, Kind(8), 768, 1, 0, nil, false)
	c.FlushDst(3)

	if len(*got) != 2 {
		t.Fatalf("drained %d messages, want 2 bypassed standalones", len(*got))
	}
	d := (*got)[0]
	if d.Kind != Kind(7) || d.Addr != 640 || d.Arg != 5 || d.Arg2 != 6 || !bytes.Equal(d.Data, pay) {
		t.Fatalf("bypassed data message wrong: %+v", d)
	}
	if d.Size != len(pay) {
		t.Fatalf("bypassed data Size = %d, want payload length %d", d.Size, len(pay))
	}
	ctl := (*got)[1]
	if ctl.Kind != Kind(8) || ctl.Data != nil {
		t.Fatalf("bypassed control message wrong: %+v", ctl)
	}
	if ctl.Size != 8 {
		t.Fatalf("bypassed control Size = %d, want the attached ctrl size 8", ctl.Size)
	}
}

func TestCoalesceFlushAllAscendingAndEpochBoundary(t *testing.T) {
	_, net, _, _ := testNet(6)
	c, got := capture(net, 2, 0)

	// Deliberately append in descending destination order; two
	// segments each so none takes the singleton bypass.
	for _, dst := range []int{5, 3, 0} {
		c.Append(dst, Kind(7), dst, 0, 0, nil, false)
		c.Append(dst, Kind(7), dst+10, 0, 0, nil, false)
	}
	if !c.PendingAny() {
		t.Fatal("PendingAny false with three open buffers")
	}
	c.FlushAll()
	if c.PendingAny() {
		t.Fatal("PendingAny true after FlushAll")
	}
	if len(*got) != 3 {
		t.Fatalf("drained %d carriers, want 3", len(*got))
	}
	for i, wantDst := range []int{0, 3, 5} {
		if (*got)[i].Dst != wantDst {
			t.Fatalf("drain order %v: want ascending destinations [0 3 5]",
				[]int{(*got)[0].Dst, (*got)[1].Dst, (*got)[2].Dst})
		}
	}
	// Epoch boundary: a drained buffer starts the next epoch empty, and
	// re-filling it works.
	c.Append(3, Kind(7), 1, 0, 0, nil, false)
	if c.Pending(3) != 1 {
		t.Fatalf("pending after epoch restart = %d, want 1", c.Pending(3))
	}
}

// TestCoalesceFlushAllWideCluster: at 256 destinations the open
// buffers span several bitmap words; FlushAll still drains exactly the
// three that hold segments, one carrier each, in ascending order.
func TestCoalesceFlushAllWideCluster(t *testing.T) {
	_, net, _, _ := testNet(256)
	c, got := capture(net, 7, 0)
	for _, dst := range []int{255, 64, 63} {
		c.Append(dst, Kind(7), dst, 0, 0, nil, false)
		c.Append(dst, Kind(7), dst+1000, 0, 0, []byte{byte(dst)}, false)
	}
	if segs, _ := c.Occupancy(); segs != 6 {
		t.Fatalf("occupancy %d segments, want 6", segs)
	}
	c.FlushAll()
	if c.PendingAny() {
		t.Fatal("PendingAny true after FlushAll")
	}
	if len(*got) != 3 {
		t.Fatalf("drained %d carriers, want 3", len(*got))
	}
	for i, wantDst := range []int{63, 64, 255} {
		m := (*got)[i]
		if m.Dst != wantDst || m.Src != 7 || m.Kind != Kind(99) || m.Arg != 2 {
			t.Fatalf("carrier %d = %v, want 7->%d carrying 2 segments (ascending 63, 64, 255)", i, m, wantDst)
		}
		var addrs []int
		ForEachSegment(m.Data, int(m.Arg), func(_ Kind, addr int, _, _ int64, _ []byte) { addrs = append(addrs, addr) })
		if len(addrs) != 2 || addrs[0] != wantDst || addrs[1] != wantDst+1000 {
			t.Fatalf("carrier to %d holds segments %v, want [%d %d]", wantDst, addrs, wantDst, wantDst+1000)
		}
	}
	// The bits are clear again: a second drain emits nothing.
	c.FlushAll()
	if len(*got) != 3 {
		t.Fatalf("second FlushAll emitted %d more carrier(s)", len(*got)-3)
	}
}

func TestCoalesceBatchWindowTimer(t *testing.T) {
	env, net, _, _ := testNet(3)
	const window = sim.Time(4000)
	c, got := capture(net, 0, window)
	var drained sim.Time = -1

	env.Spawn("driver", func(p *sim.Proc) {
		c.Append(1, Kind(7), 1, 0, 0, nil, true) // opens the window at t=0
		p.Sleep(window / 2)
		c.Append(1, Kind(7), 2, 0, 0, nil, true) // joins, must NOT extend it
		p.Sleep(window)                          // past the deadline
		if len(*got) != 1 {
			t.Errorf("timer drained %d carriers, want 1", len(*got))
			return
		}
		drained = env.Now() // events at the deadline ran before we woke
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || (*got)[0].Arg != 2 {
		t.Fatalf("batch window: got %d carriers (first Arg=%d), want 1 carrying both segments",
			len(*got), (*got)[0].Arg)
	}
	if drained > window+window/2 {
		t.Fatalf("drain observed at %d: the second append must not refresh the %d window opened at 0",
			drained, window)
	}
}

func TestCoalesceBurstFlush(t *testing.T) {
	_, net, _, _ := testNet(5)
	c, got := capture(net, 0, sim.Time(1_000_000))

	// A segment buffered before the burst (engine backlog for dst 4).
	c.Append(4, Kind(7), 1, 0, 0, nil, false)
	c.Burst(true)
	c.Append(2, Kind(7), 2, 0, 0, nil, true)
	c.Append(1, Kind(8), 3, 0, 0, nil, true)
	c.Append(2, Kind(9), 4, 0, 0, nil, true)
	c.Burst(false)

	// The burst drains exactly the destinations the handler touched,
	// ascending, with no timer latency; dst 4's backlog stays put.
	if len(*got) != 2 {
		t.Fatalf("burst drained %d messages, want 2", len(*got))
	}
	if (*got)[0].Dst != 1 || (*got)[1].Dst != 2 {
		t.Fatalf("burst drain dsts [%d %d], want ascending [1 2]", (*got)[0].Dst, (*got)[1].Dst)
	}
	if (*got)[1].Kind != Kind(99) || (*got)[1].Arg != 2 {
		t.Fatalf("dst 2's burst segments did not share one carrier: %+v", (*got)[1])
	}
	if c.Pending(4) != 1 {
		t.Fatalf("burst flushed dst 4 (pending %d), which it never appended to", c.Pending(4))
	}
}

func TestCoalesceDrainTriggerOnPlainSend(t *testing.T) {
	env, net, _, _ := testNet(3)
	// Real wiring this time: the coalescer injects into the network, so
	// the drain trigger's ordering is observable at the receiver.
	c := net.AttachCoalescer(0, Kind(99), 8, 0, func(m *Message) { net.Send(m) })
	var order []Kind
	net.Bind(0, func(m *Message) {})
	net.Bind(1, func(m *Message) { order = append(order, m.Kind) })
	net.Bind(2, func(m *Message) {})

	c.Append(1, Kind(7), 1, 0, 0, nil, false)
	c.Append(1, Kind(7), 2, 0, 0, nil, false)
	// A plain protocol message to the same destination must push the
	// buffered segments out ahead of itself.
	net.Send(&Message{Src: 0, Dst: 1, Kind: Kind(5), Size: 8})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != Kind(99) || order[1] != Kind(5) {
		t.Fatalf("arrival order %v, want buffered carrier (99) before the plain send (5)", order)
	}
}

func TestCoalesceGatherBufferGrowthAndReuse(t *testing.T) {
	_, net, _, _ := testNet(3)
	c, got := capture(net, 0, 0)

	// Push well past the initial bucket so the gather buffer regrows
	// several times, then verify content integrity end to end.
	var want [][]byte
	for i := 0; i < 64; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 96)
		want = append(want, p)
		c.Append(1, Kind(7), i, int64(i), 0, p, false)
	}
	c.FlushDst(1)
	if len(*got) != 1 {
		t.Fatalf("drained %d carriers, want 1", len(*got))
	}
	m := (*got)[0]
	i := 0
	ForEachSegment(m.Data, int(m.Arg), func(k Kind, addr int, a1, a2 int64, p []byte) {
		if addr != i || a1 != int64(i) || !bytes.Equal(p, want[i]) {
			t.Fatalf("segment %d corrupted after buffer growth", i)
		}
		i++
	})
	if i != 64 {
		t.Fatalf("decoded %d segments, want 64", i)
	}

	// Recycle the carrier and refill: the pooled gather buffer must be
	// reused without residue from the previous epoch.
	m.DataPooled = true
	net.Recycle(m)
	c.Append(1, Kind(7), 7, 7, 0, []byte{77}, false)
	c.Append(1, Kind(7), 8, 8, 0, []byte{88}, false)
	c.FlushDst(1)
	m2 := (*got)[1]
	if m2.Arg != 2 || m2.Size != 2*(SegHeader+1) {
		t.Fatalf("reused buffer carrier wrong: segs=%d size=%d", m2.Arg, m2.Size)
	}
}

func TestCoalesceAppendToSelfPanics(t *testing.T) {
	_, net, _, _ := testNet(2)
	c, _ := capture(net, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("append to self did not panic")
		}
	}()
	c.Append(0, Kind(7), 1, 0, 0, nil, false)
}

func TestCoalesceDuplicateAttachPanics(t *testing.T) {
	_, net, _, _ := testNet(2)
	capture(net, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("second AttachCoalescer for the same node did not panic")
		}
	}()
	capture(net, 0, 0)
}

// TestCoalesceTeardownMidWindow kills the coalescer's node while a
// batch window is open: the armed timer must find nothing to emit, the
// buffered segments must not survive as a carrier, and later appends
// must be swallowed. A crash between window-open and window-close can
// never strand segments or leak traffic from a dead node.
func TestCoalesceTeardownMidWindow(t *testing.T) {
	env, net, _, _ := testNet(3)
	const window = sim.Time(4000)
	c, got := capture(net, 0, window)

	env.Spawn("driver", func(p *sim.Proc) {
		c.Append(1, Kind(7), 1, 0, 0, nil, true) // opens the window
		c.Append(1, Kind(7), 2, 0, 0, nil, true)
		p.Sleep(window / 2)
		if !c.PendingAny() {
			t.Error("segments not buffered before teardown")
		}
		c.Teardown() // the node crashed mid-window
		if c.PendingAny() {
			t.Error("PendingAny true after teardown")
		}
		if segs, bytes := c.Occupancy(); segs != 0 || bytes != 0 {
			t.Errorf("occupancy %d seg(s)/%dB after teardown, want empty", segs, bytes)
		}
		// The dead node's protocol engine must not be able to buffer
		// more traffic either.
		c.Append(1, Kind(7), 3, 0, 0, nil, true)
		if c.PendingAny() {
			t.Error("append after teardown buffered a segment")
		}
		p.Sleep(window) // run past the armed timer's deadline
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatalf("teardown leaked %d carrier(s) onto the wire", len(*got))
	}
}

// TestCoalesceTeardownThenFlushAll: an explicit drain on a dead
// coalescer (e.g. the protocol's epoch close racing the crash) is a
// no-op rather than a resurrection.
func TestCoalesceTeardownThenFlushAll(t *testing.T) {
	_, net, _, _ := testNet(3)
	c, got := capture(net, 0, 0)
	c.Append(1, Kind(7), 1, 0, 0, nil, false)
	c.Append(1, Kind(7), 2, 0, 0, nil, false)
	c.Teardown()
	c.FlushAll()
	c.FlushDst(1)
	if len(*got) != 0 {
		t.Fatalf("flush on a dead coalescer emitted %d message(s)", len(*got))
	}
}

// TestCoalesceBurstTouchedList: the end of a burst drains the short
// list of destinations the burst appended to — in ascending order
// whatever the append order, each buffer at most once even when the
// choke point emptied it mid-burst and the handler refilled it, and
// nothing at all after a crash.
func TestCoalesceBurstTouchedList(t *testing.T) {
	dsts := func(ms []*Message) []int {
		var out []int
		for _, m := range ms {
			out = append(out, m.Dst)
		}
		return out
	}
	pair := func(c *Coalescer, dst int) {
		c.Append(dst, Kind(7), dst, 0, 0, nil, true)
		c.Append(dst, Kind(7), dst+10, 0, 0, nil, true)
	}

	t.Run("ascending", func(t *testing.T) {
		_, net, _, _ := testNet(8)
		c, got := capture(net, 0, sim.Time(1_000_000))
		c.Burst(true)
		pair(c, 5)
		pair(c, 2)
		c.Burst(false)
		if d := dsts(*got); len(d) != 2 || d[0] != 2 || d[1] != 5 {
			t.Fatalf("burst appended to 5 then 2 and drained %v, want [2 5]", d)
		}
		// The list is spent: an empty burst right after drains nothing.
		c.Burst(true)
		c.Burst(false)
		if len(*got) != 2 {
			t.Fatalf("empty burst drained %d more message(s)", len(*got)-2)
		}
	})

	t.Run("choke point mid-burst", func(t *testing.T) {
		_, net, _, _ := testNet(8)
		c, got := capture(net, 0, sim.Time(1_000_000))
		c.Burst(true)
		pair(c, 3)
		c.FlushDst(3) // a plain send to 3 pushed the buffer out first
		pair(c, 3)
		pair(c, 1)
		c.Burst(false)
		if d := dsts(*got); len(d) != 3 || d[0] != 3 || d[1] != 1 || d[2] != 3 {
			t.Fatalf("drains %v, want [3 1 3]: the choke-point drain, then the burst's 1 and 3 once each", d)
		}
		for _, m := range *got {
			if m.Kind != Kind(99) || m.Arg != 2 {
				t.Fatalf("carrier to %d holds %d segment(s), want 2", m.Dst, m.Arg)
			}
		}
		if c.PendingAny() {
			t.Fatal("segments left buffered after the burst")
		}
	})

	t.Run("teardown mid-burst", func(t *testing.T) {
		_, net, _, _ := testNet(8)
		c, got := capture(net, 0, sim.Time(1_000_000))
		c.Burst(true)
		pair(c, 4)
		pair(c, 6)
		c.Teardown()
		c.Burst(false)
		if len(*got) != 0 || c.PendingAny() {
			t.Fatalf("a burst cut short by a crash emitted %d message(s), pending=%v", len(*got), c.PendingAny())
		}
		if len(c.touched) != 0 {
			t.Fatalf("teardown left %d destination(s) on the burst list", len(c.touched))
		}
	})
}

var sinkMsgs int

// BenchmarkCoalescerBurst is the NIC bookkeeping of one protocol-handler
// run that composes one reply: begin, one append, end. The end drains
// the one destination touched, so the cost does not depend on the
// cluster size (it used to scan every destination's buffer).
func BenchmarkCoalescerBurst(b *testing.B) {
	for _, nodes := range []int{8, 256} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			_, net, _, _ := testNet(nodes)
			c := net.AttachCoalescer(0, Kind(99), 8, 0, func(m *Message) {
				sinkMsgs++
				net.Recycle(m)
			})
			dst := nodes - 1
			burst := func() {
				c.Burst(true)
				c.Append(dst, Kind(7), 128, 1, 0, nil, false)
				c.Burst(false)
			}
			burst() // the pools fill on the first round
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				burst()
			}
		})
	}
}
