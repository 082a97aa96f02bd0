package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
)

// testNet builds a 2-node network with the given fault config and
// returns it with a per-node delivery log.
func faultNet(t *testing.T, f config.Faults) (*sim.Env, *Network, *stats.Cluster, *[][]*Message) {
	t.Helper()
	env := sim.NewEnv()
	mc := config.Default().WithNodes(2).WithFaults(f)
	st := stats.New(2)
	n := New(env, mc, st)
	got := make([][]*Message, 2)
	for i := 0; i < 2; i++ {
		i := i
		n.Bind(i, func(m *Message) { got[i] = append(got[i], m) })
	}
	return env, n, st, &got
}

func TestReliableInOrderDelivery(t *testing.T) {
	// Heavy jitter plus reordering scrambles arrival order; the layer
	// must still deliver in send order with no losses or duplicates.
	env, n, st, got := faultNet(t, config.Faults{
		Drop: 0.2, Dup: 0.1, Jitter: 30 * sim.Microsecond, Reorder: 0.2, Seed: 7,
	})
	const N = 500
	for i := 0; i < N; i++ {
		n.Send(&Message{Src: 0, Dst: 1, Kind: 1, Arg: int64(i), Size: 16})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len((*got)[1]) != N {
		t.Fatalf("delivered %d messages, want %d", len((*got)[1]), N)
	}
	for i, m := range (*got)[1] {
		if m.Arg != int64(i) {
			t.Fatalf("delivery %d has Arg=%d: order violated", i, m.Arg)
		}
	}
	if st.TotalWireDrops() == 0 || st.TotalWireDups() == 0 || st.TotalRetransmits() == 0 {
		t.Fatalf("fault counters flat: drops=%d dups=%d retransmits=%d",
			st.TotalWireDrops(), st.TotalWireDups(), st.TotalRetransmits())
	}
	if n.DumpChannels() != "" {
		t.Fatalf("channels not idle after drain:\n%s", n.DumpChannels())
	}
}

func TestReliableDedupUnderHeavyDup(t *testing.T) {
	env, n, st, got := faultNet(t, config.Faults{Dup: 0.99, Seed: 3})
	const N = 200
	for i := 0; i < N; i++ {
		n.Send(&Message{Src: 0, Dst: 1, Kind: 1, Arg: int64(i), Size: 16})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len((*got)[1]) != N {
		t.Fatalf("delivered %d messages, want exactly %d (idempotent receive)", len((*got)[1]), N)
	}
	if st.TotalDupsDropped() == 0 {
		t.Fatal("expected receive-side dedup discards under Dup=0.99")
	}
}

func TestRetransmitTimeoutFiresOncePerWindow(t *testing.T) {
	// A blackholed link loses every transmission; the retransmit timer
	// must fire exactly once per backoff window, doubling up to the
	// clamp.
	f := config.Faults{
		Drop: 0.000001, Seed: 1, // activate the layer; effectively lossless
	}
	env, n, st, _ := faultNet(t, f)
	n.Blackhole(0, 1)
	n.Send(&Message{Src: 0, Dst: 1, Kind: 1, Size: 16})

	// Each timer is anchored at its transmission's nominal arrival (one
	// hop = serialization + wire latency past the moment it got onto the
	// wire), then fires after the current RTO: 500us, 1, 2, then 4ms
	// clamped. Probe just before and just after each deadline: the timer
	// must fire exactly once per backoff window, doubling up to the
	// clamp.
	mc := config.Default()
	hop := sim.Time(mc.MsgHeader+16)*mc.NsPerByte + mc.WireLatency
	rto := config.DefaultRetransmitTimeout
	deadline := sim.Time(0)
	for i := 0; i < 5; i++ {
		deadline += hop + rto
		env.RunUntil(deadline - 1)
		if got := st.TotalRetransmits(); got != int64(i) {
			t.Fatalf("at t=%dns: %d retransmits, want %d (timer fired early)", deadline-1, got, i)
		}
		env.RunUntil(deadline + 1)
		if got := st.TotalRetransmits(); got != int64(i+1) {
			t.Fatalf("at t=%dns: %d retransmits, want %d (backoff must double and fire once per window)", deadline+1, got, i+1)
		}
		rto = min(2*rto, config.DefaultMaxBackoff)
	}
}

func TestRetransmitGivesUpAfterMaxRetries(t *testing.T) {
	f := config.Faults{
		Drop: 0.000001, Seed: 1,
		MaxRetries: 3,
	}
	env, n, st, _ := faultNet(t, f)
	n.Blackhole(0, 1)
	n.Send(&Message{Src: 0, Dst: 1, Kind: 1, Size: 16})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := st.TotalRetransmits(); got != 3 {
		t.Fatalf("retransmits = %d, want exactly MaxRetries=3", got)
	}
	if got := st.TotalGiveUps(); got != 1 {
		t.Fatalf("give-ups = %d, want 1", got)
	}
	if !strings.Contains(fmt.Sprint(st), "GIVE-UPS") {
		t.Fatalf("cluster summary does not surface the give-up:\n%s", st)
	}
}

func TestAckCoalescing(t *testing.T) {
	// A burst of messages arriving within one ACK delay window must be
	// covered by far fewer cumulative ACKs than messages.
	f := config.Faults{
		Jitter: 1, Seed: 2, // activate with negligible perturbation
	}
	env, n, st, got := faultNet(t, f)
	const N = 50
	for i := 0; i < N; i++ {
		n.Send(&Message{Src: 0, Dst: 1, Kind: 1, Size: 16})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len((*got)[1]) != N {
		t.Fatalf("delivered %d, want %d", len((*got)[1]), N)
	}
	acks := st.TotalAcksSent()
	if acks == 0 || acks > int64(N/4) {
		t.Fatalf("acks = %d for %d messages; coalescing should cover bursts with few cumulative ACKs", acks, N)
	}
	if st.TotalRetransmits() != 0 {
		t.Fatalf("lossless wire with working ACKs retransmitted %d times", st.TotalRetransmits())
	}
}

func TestReliableDeterminism(t *testing.T) {
	run := func() (string, int64, int64) {
		env, n, st, got := faultNet(t, config.Faults{
			Drop: 0.1, Dup: 0.05, Jitter: 10 * sim.Microsecond, Reorder: 0.1, Seed: 42,
		})
		for i := 0; i < 300; i++ {
			src := i % 2
			n.Send(&Message{Src: src, Dst: 1 - src, Kind: 1, Arg: int64(i), Size: 16})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		var sig strings.Builder
		for i := 0; i < 2; i++ {
			for _, m := range (*got)[i] {
				fmt.Fprintf(&sig, "%d:%d;", i, m.Arg)
			}
		}
		return sig.String(), st.TotalRetransmits(), st.TotalWireDrops()
	}
	s1, r1, d1 := run()
	s2, r2, d2 := run()
	if s1 != s2 || r1 != r2 || d1 != d2 {
		t.Fatalf("same seed produced different schedules: retransmits %d vs %d, drops %d vs %d",
			r1, r2, d1, d2)
	}
}

// FuzzReliableDelivery drives 2-6 nodes through a wire that drops,
// duplicates, jitters and reorders at up to 50 % each, with up to 300
// sends: every three bytes of sends are a source, a destination
// (loopback when they coincide) and the gap before the send, a quarter
// of them zero (same-instant bursts). Every ordered pair must deliver
// exactly its send order, each message once, and once the env drains
// no channel may hold anything.
//
// Every message is pooled and carries a pooled payload stamped with its
// source, destination and index; endpoints check the stamp and Recycle.
// The network runs quarantined (export_test.go): a reclaimed message
// and its payload are poisoned and never reused, so a reference dropped
// too early shows up as a bad stamp, a poisoned delivery or a
// retransmission that panics. Once drained, every message NewMessage
// handed out must have been reclaimed.
func FuzzReliableDelivery(f *testing.F) {
	f.Add(uint8(2), uint8(100), uint8(50), uint8(50), uint8(30), uint64(1), []byte{0, 1, 0, 1, 0, 0, 0, 1, 200, 1, 1, 0})
	f.Add(uint8(6), uint8(255), uint8(255), uint8(255), uint8(99), uint64(7), []byte("all-to-all burst: the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint64(0), []byte{3, 2, 0, 3, 2, 0, 3, 2, 0, 2, 3, 70})
	// A duplicate of an arrival already held in a reorder slot.
	f.Add(uint8(81), uint8(247), uint8(255), uint8(255), uint8(199), uint64(5), []byte("2002000100"))
	f.Fuzz(func(t *testing.T, nodes, drop, dup, reorder, jitter uint8, seed uint64, sends []byte) {
		n := 2 + int(nodes)%5
		env := sim.NewEnv()
		mc := config.Default().WithNodes(n).WithFaults(config.Faults{
			Drop: float64(drop) / 512, Dup: float64(dup) / 512, Reorder: float64(reorder) / 512,
			Jitter: 1 + sim.Time(jitter%100)*sim.Microsecond, Seed: seed,
		})
		st := stats.New(n)
		net := New(env, mc, st)
		reclaimed := quarantineReclaims(net)
		got := make([][][]int64, n) // got[dst][src]: the Args delivered, in order
		want := make([]byte, mc.BlockSize)
		for i := range got {
			got[i] = make([][]int64, n)
			net.Bind(i, func(m *Message) {
				if m.Kind != 1 || m.Src < 0 || m.Src >= n || m.Dst != i ||
					!bytes.Equal(m.Data, stamp(want, m.Src, m.Dst, m.Arg)) {
					t.Errorf("node %d delivered a corrupt message %v, payload % x", i, m, m.Data[:min(len(m.Data), 16)])
					return
				}
				got[i][m.Src] = append(got[i][m.Src], m.Arg)
				net.Recycle(m)
			})
		}
		sent := make([][]int64, n*n)
		var at sim.Time
		for k := 0; k+3 <= len(sends) && k < 3*300; k += 3 {
			src, dst := int(sends[k])%n, int(sends[k+1])%n
			if g := sends[k+2]; g >= 64 {
				at += sim.Time(g-64) * sim.Microsecond
			}
			idx := int64(len(sent[src*n+dst]))
			sent[src*n+dst] = append(sent[src*n+dst], idx)
			env.Schedule(at, func() {
				m := net.NewMessage(src)
				m.Src, m.Dst, m.Kind, m.Arg, m.Size = src, dst, 1, idx, 16
				m.Data, m.DataPooled = stamp(net.AllocBlock(src), src, dst, idx), true
				net.Send(m)
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		handedOut := 0
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if g, w := got[dst][src], sent[src*n+dst]; !slices.Equal(g, w) {
					t.Fatalf("%d->%d delivered %v, sent %v", src, dst, g, w)
				}
				handedOut += len(sent[src*n+dst])
			}
			if d := net.RetransQueueDepth(src); d != 0 {
				t.Fatalf("node %d still holds %d message(s) for retransmission", src, d)
			}
			ns := &st.Nodes[src]
			handedOut += int(ns.AcksSent + ns.ProbesSent + ns.ProbeAcks)
		}
		if !net.ChannelsQuiescent() || net.Inflight() != 0 || net.DumpChannels() != "" {
			t.Fatalf("drained env: quiescent %v, inflight %d, channels:\n%s",
				net.ChannelsQuiescent(), net.Inflight(), net.DumpChannels())
		}
		if *reclaimed != handedOut {
			t.Fatalf("drained env reclaimed %d of the %d messages NewMessage handed out", *reclaimed, handedOut)
		}
	})
}

// stamp fills b with a pattern unique to message idx of src->dst and
// returns it.
func stamp(b []byte, src, dst int, idx int64) []byte {
	binary.LittleEndian.PutUint32(b, uint32(src))
	binary.LittleEndian.PutUint32(b[4:], uint32(dst))
	binary.LittleEndian.PutUint64(b[8:], uint64(idx))
	for j := 16; j < len(b); j++ {
		b[j] = byte(idx) ^ byte(j)
	}
	return b
}

// reliableBurst binds recycling endpoints on an 8-node network over f
// and returns one all-to-all burst (perPair messages per ordered pair,
// sent and drained) and the number of messages it sends.
func reliableBurst(tb testing.TB, f config.Faults) (net *Network, burst func(), msgs int) {
	const nodes, perPair = 8, 8
	env := sim.NewEnv()
	net = New(env, config.Default().WithNodes(nodes).WithFaults(f), stats.New(nodes))
	for i := 0; i < nodes; i++ {
		net.Bind(i, net.Recycle)
	}
	burst = func() {
		for k := 0; k < perPair; k++ {
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					if src != dst {
						m := net.NewMessage(src)
						m.Src, m.Dst, m.Kind, m.Size = src, dst, 1, 16
						net.Send(m)
					}
				}
			}
		}
		if err := env.Run(); err != nil {
			tb.Fatal(err)
		}
	}
	return net, burst, nodes * (nodes - 1) * perPair
}

// TestReliableSteadyStateAllocs pins the lossy path's steady state at
// zero host allocations: once one burst has grown the freelists, the
// windows and the event slab, a burst through a wire that drops,
// duplicates and reorders allocates nothing — sends, retransmissions,
// duplicates, ACKs, reassembly and deliveries alike. The faults are
// random, so a later burst still now and then sets a new high-water mark
// (one more arrival in flight, a channel's first reordering); the
// average over 200 bursts, truncated as AllocsPerRun does, must be 0.
func TestReliableSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	net, burst, msgs := reliableBurst(t, config.Faults{Drop: .05, Dup: .02, Reorder: .05, Seed: 1})
	burst()
	st := net.st
	r0, d0 := st.TotalRetransmits(), st.TotalDupsDropped()
	if got := testing.AllocsPerRun(200, burst); got != 0 {
		t.Errorf("a burst of %d messages allocates %v times, want 0", msgs, got)
	}
	if st.TotalRetransmits() == r0 || st.TotalDupsDropped() == d0 {
		t.Errorf("measured bursts retransmitted %d and dropped %d duplicates: the faults never fired",
			st.TotalRetransmits()-r0, st.TotalDupsDropped()-d0)
	}
}

// BenchmarkReliableSend is the reliable layer's per-message path: an
// 8-node all-to-all burst (eight messages per ordered pair) through a
// 5 %-drop, 2 %-dup wire, drained — sequencing, the unacked window,
// coalesced ACKs, retransmission timers, reassembly and delivery to an
// endpoint that recycles.
func BenchmarkReliableSend(b *testing.B) {
	_, burst, msgs := reliableBurst(b, config.Faults{Drop: .05, Dup: .02, Seed: 1})
	burst() // every channel exists and its window has grown once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N * msgs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/msg")
}

func TestZeroFaultConfigIsInert(t *testing.T) {
	env, n, _, got := faultNet(t, config.Faults{})
	if n.Unreliable() {
		t.Fatal("zero-value fault config must not activate the reliable layer")
	}
	n.Send(&Message{Src: 0, Dst: 1, Kind: 1, Size: 16})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	m := (*got)[1][0]
	if m.Seq != 0 {
		t.Fatalf("lossless message carries Seq=%d, want 0 (unsequenced)", m.Seq)
	}
}
