package network

import (
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
