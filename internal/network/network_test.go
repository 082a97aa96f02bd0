package network

import (
	"sync"
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
)

func testNet(nodes int) (*sim.Env, *Network, *stats.Cluster, config.Machine) {
	env := sim.NewEnv()
	mc := config.Default().WithNodes(nodes)
	st := stats.New(nodes)
	return env, New(env, mc, st), st, mc
}

func TestPointToPointLatency(t *testing.T) {
	env, net, _, mc := testNet(2)
	var arrived sim.Time = -1
	net.Bind(0, func(m *Message) {})
	net.Bind(1, func(m *Message) { arrived = env.Now() })
	net.Send(&Message{Src: 0, Dst: 1, Kind: 1, Size: 4})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(mc.MsgHeader+4)*mc.NsPerByte + mc.WireLatency
	if arrived != want {
		t.Fatalf("arrival at %d, want %d", arrived, want)
	}
}

func TestInOrderDeliverySamePair(t *testing.T) {
	env, net, _, _ := testNet(2)
	var got []int64
	net.Bind(0, func(m *Message) {})
	net.Bind(1, func(m *Message) { got = append(got, m.Arg) })
	for i := int64(0); i < 10; i++ {
		net.Send(&Message{Src: 0, Dst: 1, Arg: i, Size: 100})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(got))
	}
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestLinkSerializationPipelines(t *testing.T) {
	// Two back-to-back sends: second arrives one serialization time
	// after the first, not at the same instant.
	env, net, _, mc := testNet(2)
	var arr []sim.Time
	net.Bind(0, func(m *Message) {})
	net.Bind(1, func(m *Message) { arr = append(arr, env.Now()) })
	net.Send(&Message{Src: 0, Dst: 1, Size: 128})
	net.Send(&Message{Src: 0, Dst: 1, Size: 128})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ser := sim.Time(mc.MsgHeader+128) * mc.NsPerByte
	if arr[1]-arr[0] != ser {
		t.Fatalf("pipelined gap = %d, want %d", arr[1]-arr[0], ser)
	}
}

func TestLoopbackNoWireLatency(t *testing.T) {
	env, net, _, mc := testNet(2)
	var at sim.Time = -1
	net.Bind(0, func(m *Message) { at = env.Now() })
	net.Bind(1, func(m *Message) {})
	net.Send(&Message{Src: 0, Dst: 0, Size: 128})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at < 0 || at >= mc.MsgTime(128) {
		t.Fatalf("loopback delivered at %d, want < remote message time %d", at, mc.MsgTime(128))
	}
}

func TestStatsAccounting(t *testing.T) {
	env, net, st, mc := testNet(3)
	for i := 0; i < 3; i++ {
		net.Bind(i, func(m *Message) {})
	}
	net.Send(&Message{Src: 0, Dst: 1, Size: 100})
	net.Send(&Message{Src: 0, Dst: 2, Size: 50})
	net.Send(&Message{Src: 2, Dst: 1, Size: 0})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Nodes[0].MsgsSent != 2 {
		t.Fatalf("node0 sent %d, want 2", st.Nodes[0].MsgsSent)
	}
	if st.Nodes[1].MsgsRecv != 2 {
		t.Fatalf("node1 recv %d, want 2", st.Nodes[1].MsgsRecv)
	}
	wantBytes := int64(mc.MsgHeader+100) + int64(mc.MsgHeader+50)
	if st.Nodes[0].BytesSent != wantBytes {
		t.Fatalf("node0 bytes %d, want %d", st.Nodes[0].BytesSent, wantBytes)
	}
	if st.TotalMessages() != 3 {
		t.Fatalf("total msgs %d, want 3", st.TotalMessages())
	}
}

func TestDataSizeDefaultsFromPayload(t *testing.T) {
	env, net, st, mc := testNet(2)
	net.Bind(0, func(m *Message) {})
	var got int
	net.Bind(1, func(m *Message) { got = m.Size })
	net.Send(&Message{Src: 0, Dst: 1, Data: make([]byte, 64)})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 64 {
		t.Fatalf("size = %d, want 64", got)
	}
	if st.Nodes[0].BytesSent != int64(mc.MsgHeader+64) {
		t.Fatalf("bytes sent = %d", st.Nodes[0].BytesSent)
	}
}

func TestBadEndpointPanics(t *testing.T) {
	_, net, _, _ := testNet(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range destination")
		}
	}()
	net.Send(&Message{Src: 0, Dst: 5})
}

func TestKindNameFallbackAndTwiceNamed(t *testing.T) {
	if got := KindName(KindAck); got != "ack" {
		t.Fatalf("KindName(KindAck) = %q, want ack", got)
	}
	// No package names kind 150: the name falls back to its number.
	if got := KindName(150); got != "kind150" {
		t.Fatalf("fallback kind name %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("naming an already named kind did not panic")
		}
		if got := KindName(KindProbe); got != "probe" {
			t.Fatalf("the refused name replaced the first: %q", got)
		}
	}()
	NameKinds([]string{KindProbe: "again"})
}

func TestRoundTripMatchesTable1(t *testing.T) {
	// A 4-byte request and 4-byte reply, including send/recv software
	// overheads, should round-trip in ~40 µs (Table 1).
	env, net, _, mc := testNet(2)
	var done sim.Time = -1
	net.Bind(0, func(m *Message) { done = env.Now() + mc.RecvOver })
	net.Bind(1, func(m *Message) {
		env.After(mc.RecvOver+mc.SendOver, func() {
			net.Send(&Message{Src: 1, Dst: 0, Size: 4})
		})
	})
	env.After(mc.SendOver, func() { net.Send(&Message{Src: 0, Dst: 1, Size: 4}) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done < 38*sim.Microsecond || done > 42*sim.Microsecond {
		t.Fatalf("round trip = %d ns, want ~40000", done)
	}
}

// Receive counters are charged when a lossless message is delivered,
// on loopback and on the wire alike: between send and delivery only the
// sender's counters have moved, and the handler already sees its own.
func TestRecvChargedAtDelivery(t *testing.T) {
	env, net, st, mc := testNet(2)
	var seen []int64 // the receiver's MsgsRecv inside each handler
	for i := 0; i < 2; i++ {
		net.Bind(i, func(m *Message) { seen = append(seen, st.Nodes[m.Dst].MsgsRecv) })
	}
	env.Schedule(0, func() {
		net.Send(&Message{Src: 0, Dst: 0, Size: 64})
		net.Send(&Message{Src: 0, Dst: 1, Size: 64})
		if st.Nodes[0].MsgsSent != 2 || st.Nodes[0].MsgsRecv != 0 || st.Nodes[1].MsgsRecv != 0 ||
			st.Nodes[0].BytesRecv != 0 || st.Nodes[1].BytesRecv != 0 {
			t.Errorf("after send: %+v; want two sends and no receive charged", st.Nodes)
		}
		if net.Inflight() != 2 {
			t.Errorf("after send: %d in flight, want 2", net.Inflight())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 1 {
		t.Fatalf("handlers saw MsgsRecv %v, want [1 1]", seen)
	}
	for i := 0; i < 2; i++ {
		if st.Nodes[i].BytesRecv != int64(mc.MsgHeader+64) {
			t.Errorf("node %d: %d bytes received, want %d", i, st.Nodes[i].BytesRecv, mc.MsgHeader+64)
		}
	}
	if net.Inflight() != 0 {
		t.Fatalf("drained: %d in flight, want 0", net.Inflight())
	}
}

// Over two distinct Envs a message is counted in flight in its sender's
// pool and settled in its receiver's, so only the sum means anything:
// once the window scheduler drains, Inflight is 0 again and every
// delivery charged its receiver.
func TestInflightDrainsAcrossEnvs(t *testing.T) {
	mc := config.Default().WithNodes(4)
	st := stats.New(mc.Nodes)
	envs := []*sim.Env{sim.NewEnv(), sim.NewEnv()}
	shards := sim.NewShards(envs, mc.MsgTime(0))
	part := []int{0, 0, 1, 1}
	nodeEnvs := []*sim.Env{envs[0], envs[0], envs[1], envs[1]}
	net := NewPartitioned(nodeEnvs, func(src, dst int, sent, arrival sim.Time, seq uint32, fn func(any), arg any) {
		shards.Post(part[src], part[dst], arrival, sent, src, seq, fn, arg)
	}, mc, st)
	for i := 0; i < mc.Nodes; i++ {
		net.Bind(i, func(m *Message) {
			if m.Arg > 0 { // bounce it back once
				net.Send(&Message{Src: m.Dst, Dst: m.Src, Size: 8})
			}
		})
	}
	for src := 0; src < mc.Nodes; src++ {
		nodeEnvs[src].Schedule(0, func() {
			for dst := 0; dst < mc.Nodes; dst++ {
				net.Send(&Message{Src: src, Dst: dst, Arg: 1, Size: 32})
			}
			net.SendAt(3*sim.Microsecond, &Message{Src: src, Dst: (src + 2) % mc.Nodes, Size: 16})
		})
	}
	if err := shards.Run(); err != nil {
		t.Fatal(err)
	}
	shards.Shutdown()
	if net.Inflight() != 0 {
		t.Errorf("drained with %d in flight, want 0", net.Inflight())
	}
	// Each node receives 4 + 4 bounces + 1 delayed message.
	for i := range st.Nodes {
		if st.Nodes[i].MsgsRecv != 9 || st.Nodes[i].MsgsSent != 9 {
			t.Errorf("node %d sent %d, received %d; want 9 and 9", i, st.Nodes[i].MsgsSent, st.Nodes[i].MsgsRecv)
		}
	}
}

// TestPayloadRefiledByCapacity: a payload goes back to the one list by
// its capacity, whatever length it was sliced to, so a two-block buffer
// carrying one block serves the next two-block request.
func TestPayloadRefiledByCapacity(t *testing.T) {
	_, net, _, mc := testNet(2)
	bs := mc.BlockSize
	b := net.AllocVar(0, 2*bs)
	m := net.NewMessage(0)
	m.Src, m.Dst, m.Data, m.DataPooled = 0, 1, b[:bs], true
	net.Recycle(m)
	if got := net.AllocVar(0, 2*bs); &got[0] != &b[0] || len(got) != 2*bs {
		t.Fatalf("AllocVar(%d) did not reuse the recycled %d-byte buffer", 2*bs, cap(b))
	}
}

// TestPayloadStreamAllocatesNothing: once the list holds a buffer of
// each size, a stream of one-block, three-block, 12-byte and 17-byte
// payloads, each copied into its message by NewDataMessage and
// reclaimed at delivery, allocates nothing.
func TestPayloadStreamAllocatesNothing(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	env, net, _, mc := testNet(2)
	src := make([]byte, 3*mc.BlockSize)
	for i := range src {
		src[i] = byte(i)
	}
	sizes := []int{mc.BlockSize, 3 * mc.BlockSize, 12, 17}
	net.Bind(1, func(m *Message) {
		if want := src[:len(m.Data)]; len(m.Data) != int(m.Arg) || string(m.Data) != string(want) {
			t.Fatalf("payload of %d bytes delivered as %d bytes", m.Arg, len(m.Data))
		}
		net.Recycle(m)
	})
	stream := func() {
		for _, size := range sizes {
			m := net.NewDataMessage(0, src[:size])
			m.Src, m.Dst, m.Kind, m.Arg = 0, 1, 1, int64(size)
			net.Send(m)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	stream()
	if got := testing.AllocsPerRun(100, stream); got != 0 {
		t.Fatalf("a payload stream allocates %v times per round", got)
	}
}

// TestPopClearsSlot: a pop clears the slot it leaves in the free list,
// so a kept list never reaches a message or buffer in use; one lost in
// flight when its run was aborted would keep that run's machine alive.
func TestPopClearsSlot(t *testing.T) {
	_, net, _, mc := testNet(2)
	m := net.NewMessage(0)
	net.Recycle(m)
	b := net.AllocVar(0, mc.BlockSize)
	net.recycleVar(0, b)
	m, b = net.NewMessage(0), net.AllocVar(0, mc.BlockSize)
	p := net.poolOf(0)
	for _, f := range p.free[:cap(p.free)] {
		if f == m {
			t.Fatal("the message list still reaches the message it handed out")
		}
	}
	for _, bucket := range p.varFree {
		for _, f := range bucket[:cap(bucket)] {
			if len(f) > 0 && &f[0] == &b[0] {
				t.Fatal("the payload list still reaches the buffer it handed out")
			}
		}
	}
}

// TestReleasedPoolsGoToTheNextNetwork: the pools a network releases are
// the next network's, their messages rebound to it and zeroed, and a
// free message holds no network.
func TestReleasedPoolsGoToTheNextNetwork(t *testing.T) {
	_, old, _, _ := testNet(2)
	m := old.NewMessage(0)
	m.Src, m.Dst, m.Kind, m.Arg = 0, 1, 7, 42
	old.Recycle(m)
	if m.net != nil {
		t.Fatal("a free message keeps its network")
	}
	old.ReleasePools()
	_, net, _, _ := testNet(2)
	got := net.NewMessage(0)
	if got != m {
		t.Fatal("the next network did not take the released pool")
	}
	if got.net != net || got.refs != 1 || got.Kind != 0 || got.Arg != 0 || got.Dst != 0 {
		t.Fatalf("a kept message came back as %v, net %p refs %d; want it zeroed on %p with one reference", got, got.net, got.refs, net)
	}
}

// TestKeepHandOffAcrossGoroutines: networks built, used and released
// on concurrent goroutines, as paperbench -j's cells are, hand pools to
// one another through the keep; under -race it checks that the keep
// orders every hand-off.
func TestKeepHandOffAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				env, net, _, mc := testNet(2)
				net.Bind(0, func(m *Message) {})
				net.Bind(1, func(m *Message) { net.Recycle(m) })
				for k := range 1 + (g+i)%8 {
					m := net.NewDataMessage(0, make([]byte, mc.BlockSize))
					m.Src, m.Dst, m.Kind, m.Arg = 0, 1, 1, int64(k)
					net.Send(m)
				}
				if err := env.Run(); err != nil {
					t.Error(err)
					return
				}
				net.ReleasePools()
			}
		}()
	}
	wg.Wait()
}
