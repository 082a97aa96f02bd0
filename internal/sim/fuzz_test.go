// FuzzShardHorizons drives randomized synthetic message-passing
// programs — random partition count, lookahead, per-link message
// latencies at or above it, seed events, and fanout trees — through
// the horizon engine and demands that every partition's delivery log is
// record-for-record identical to the sequential single-Env reference.
//
// The synthetic program is deterministic by construction: each
// message carries its own PRNG state and remaining depth, so a
// handler's behavior depends only on its payload and arrival time,
// never on execution interleaving. That makes the per-destination
// delivery order the complete observable, and the (arrival, sent,
// srcNode, seq) delivery key is what must make it partition-invariant.
package sim

import (
	"fmt"
	"testing"
)

// fuzzRand is a xorshift64 step: deterministic, allocation-free, and
// independent of math/rand (whose global state is process-shared).
func fuzzRand(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// fuzzMsg is one synthetic message. rng is the handler's private
// generator state; two distinct messages essentially never share it,
// so (arrival, rng) identifies a delivery in the logs.
type fuzzMsg struct {
	dst   int // destination partition
	rng   uint64
	depth int
}

// fuzzHarness runs one synthetic program over p logical partitions.
// The same harness drives both the partitioned run (sendFn posts
// cross-partition mail through Shards) and the reference run (sendFn
// schedules on the single Env); logs[dst] and seq[src] are each
// written only by the partition that owns them, which is exactly the
// single-writer discipline the engine guarantees.
type fuzzHarness struct {
	p      int
	lat    []Time // lat[src*p+dst]: minimum send latency per link
	seq    []uint32
	logs   [][][2]uint64 // logs[dst]: (arrival, rng) per delivery, in order
	sendFn func(src, dst int, arrival, sent Time, seq uint32, m *fuzzMsg)
	nowFn  func(part int) Time
}

// handle records the delivery and fans out to random destinations.
// Everything here is a pure function of the payload and the arrival
// clock, so the partitioned and reference runs generate identical
// send sets with identical per-source sequence numbers.
func (h *fuzzHarness) handle(a any) {
	m := a.(*fuzzMsg)
	now := h.nowFn(m.dst)
	h.logs[m.dst] = append(h.logs[m.dst], [2]uint64{uint64(now), m.rng})
	if m.depth <= 0 {
		return
	}
	rng := m.rng
	fan := int(fuzzRand(&rng) % 3)
	for i := 0; i < fan; i++ {
		dst := int(fuzzRand(&rng) % uint64(h.p))
		extra := Time(fuzzRand(&rng) % 16)
		child := &fuzzMsg{dst: dst, rng: fuzzRand(&rng), depth: m.depth - 1}
		s := h.seq[m.dst]
		h.seq[m.dst]++
		h.sendFn(m.dst, dst, now+h.lat[m.dst*h.p+dst]+extra, now, s, child)
	}
}

// fuzzProgram is the derived shape of one fuzz input: partition count,
// per-link latencies, and the pre-run seed deliveries.
type fuzzProgram struct {
	p     int
	look  Time
	lat   []Time
	seeds []fuzzMsg // dst + rng + depth, delivered at seedAt with seedKey
	at    []Time
	src   []int
	sq    []uint32
}

func buildFuzzProgram(state uint64) *fuzzProgram {
	if state == 0 {
		state = 0x9e3779b97f4a7c15
	}
	fp := &fuzzProgram{}
	fp.p = 2 + int(fuzzRand(&state)%5) // 2..6 partitions
	fp.look = 1 + Time(fuzzRand(&state)%20)
	fp.lat = make([]Time, fp.p*fp.p)
	for i := range fp.lat {
		fp.lat[i] = fp.look + Time(fuzzRand(&state)%25)
	}
	seq := make([]uint32, fp.p)
	for src := 0; src < fp.p; src++ {
		k := 1 + int(fuzzRand(&state)%2)
		for i := 0; i < k; i++ {
			fp.seeds = append(fp.seeds, fuzzMsg{
				dst:   int(fuzzRand(&state) % uint64(fp.p)),
				rng:   fuzzRand(&state),
				depth: 3,
			})
			fp.at = append(fp.at, Time(fuzzRand(&state)%50))
			fp.src = append(fp.src, src)
			fp.sq = append(fp.sq, seq[src])
			seq[src]++
		}
	}
	return fp
}

// seedSeq returns per-source sequence counters positioned past the
// seed deliveries, so handler sends can never collide with a seed key.
func (fp *fuzzProgram) seedSeq() []uint32 {
	seq := make([]uint32, fp.p)
	for i, s := range fp.src {
		if fp.sq[i] >= seq[s] {
			seq[s] = fp.sq[i] + 1
		}
	}
	return seq
}

func newFuzzLogs(p int) [][][2]uint64 { return make([][][2]uint64, p) }

// runFuzzReference executes the program on one sequential Env: every
// partition's messages share a single heap, merged by delivery key.
func runFuzzReference(t *testing.T, fp *fuzzProgram) ([][][2]uint64, Time) {
	t.Helper()
	env := NewEnv()
	h := &fuzzHarness{p: fp.p, lat: fp.lat, seq: fp.seedSeq(), logs: newFuzzLogs(fp.p)}
	h.nowFn = func(int) Time { return env.Now() }
	h.sendFn = func(src, dst int, arrival, sent Time, seq uint32, m *fuzzMsg) {
		env.ScheduleDelivery(arrival, sent, src, seq, h.handle, m)
	}
	for i := range fp.seeds {
		m := fp.seeds[i]
		env.ScheduleDelivery(fp.at[i], 0, fp.src[i], fp.sq[i], h.handle, &m)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return h.logs, env.Now()
}

// runFuzzShards executes the program over fp.p partition Envs under
// the horizon engine, on the requested execution path. The engine
// knows only the lookahead; the links' own latencies stay in the
// harness.
func runFuzzShards(t *testing.T, fp *fuzzProgram, inline bool) ([][][2]uint64, Time) {
	t.Helper()
	envs := make([]*Env, fp.p)
	for i := range envs {
		envs[i] = NewEnv()
	}
	s := NewShards(envs, fp.look)
	defer s.Shutdown()
	s.SetInline(inline)
	h := &fuzzHarness{p: fp.p, lat: fp.lat, seq: fp.seedSeq(), logs: newFuzzLogs(fp.p)}
	h.nowFn = func(part int) Time { return envs[part].Now() }
	h.sendFn = func(src, dst int, arrival, sent Time, seq uint32, m *fuzzMsg) {
		if src == dst {
			envs[dst].ScheduleDelivery(arrival, sent, src, seq, h.handle, m)
		} else {
			s.Post(src, dst, arrival, sent, src, seq, h.handle, m)
		}
	}
	for i := range fp.seeds {
		m := fp.seeds[i]
		envs[m.dst].ScheduleDelivery(fp.at[i], 0, fp.src[i], fp.sq[i], h.handle, &m)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return h.logs, s.Now()
}

func diffFuzzLogs(t *testing.T, mode string, want, got [][][2]uint64) {
	t.Helper()
	for dst := range want {
		if len(got[dst]) != len(want[dst]) {
			t.Fatalf("%s: partition %d delivered %d message(s), reference %d",
				mode, dst, len(got[dst]), len(want[dst]))
		}
		for i := range want[dst] {
			if got[dst][i] != want[dst][i] {
				t.Fatalf("%s: partition %d delivery %d = (t=%d, id=%x), reference (t=%d, id=%x)",
					mode, dst, i, got[dst][i][0], got[dst][i][1], want[dst][i][0], want[dst][i][1])
			}
		}
	}
}

func FuzzShardHorizons(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(0xdeadbeef))
	f.Add(uint64(0x9e3779b97f4a7c15))
	f.Add(uint64(1<<63) | 12345)
	f.Fuzz(func(t *testing.T, seed uint64) {
		fp := buildFuzzProgram(seed)
		want, wantNow := runFuzzReference(t, fp)
		for _, inline := range []bool{true, false} {
			mode := "workers"
			if inline {
				mode = "inline"
			}
			got, gotNow := runFuzzShards(t, fp, inline)
			if gotNow != wantNow {
				t.Fatalf("%s: final clock t=%d, reference t=%d", mode, gotNow, wantNow)
			}
			diffFuzzLogs(t, mode, want, got)
		}
	})
}

// TestShardHorizonsNonUniformLinks pins asymmetric-latency cases as a
// plain unit test (fuzz seeds only run under the fuzz harness): a fast
// link one way and a slow link back, both at or above the lookahead,
// must still produce the reference delivery order on both execution
// paths.
func TestShardHorizonsNonUniformLinks(t *testing.T) {
	for _, seed := range []uint64{7, 99, 0xabcdef} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fp := buildFuzzProgram(seed)
			want, wantNow := runFuzzReference(t, fp)
			for _, inline := range []bool{true, false} {
				mode := "workers"
				if inline {
					mode = "inline"
				}
				got, gotNow := runFuzzShards(t, fp, inline)
				if gotNow != wantNow {
					t.Fatalf("%s: final clock t=%d, reference t=%d", mode, gotNow, wantNow)
				}
				diffFuzzLogs(t, mode, want, got)
			}
		})
	}
}

// relaxHorizons is the channel-clock computation computeHorizons
// replaced, kept as its reference: an earliest-cause fixed point by
// Bellman-Ford relaxation over the P×P link graph, every link at
// latency look, then each partition's horizon from its peers' clocks.
func relaxHorizons(n []Time, look Time) []Time {
	p := len(n)
	ec := append([]Time(nil), n...)
	for changed := true; changed; {
		changed = false
		for q := 0; q < p; q++ {
			for r := 0; r < p; r++ {
				if r == q || ec[r] >= horizonInf {
					continue
				}
				if c := ec[r] + look; c < ec[q] {
					ec[q] = c
					changed = true
				}
			}
		}
	}
	h := make([]Time, p)
	for i := range h {
		h[i] = horizonInf
		for q := 0; q < p; q++ {
			if q != i && ec[q] < horizonInf {
				h[i] = min(h[i], ec[q]+look)
			}
		}
	}
	return h
}

// TestHorizonsMatchRelaxation holds computeHorizons' closed form to the
// relaxation on random inputs: P from 1 to 8, a partition's next time
// drawn from a small range (so ties are common) or left idle, and
// carried by a pending event, by undrained mail, or by both.
func TestHorizonsMatchRelaxation(t *testing.T) {
	state := uint64(0x5eed)
	for iter := 0; iter < 20000; iter++ {
		p := 1 + int(fuzzRand(&state)%8)
		look := 1 + Time(fuzzRand(&state)%20)
		envs := make([]*Env, p)
		for i := range envs {
			envs[i] = NewEnv()
		}
		s := NewShards(envs, look)
		n := make([]Time, p)
		for q := range n {
			n[q] = horizonInf
			if fuzzRand(&state)%4 == 0 {
				continue // idle
			}
			n[q] = Time(fuzzRand(&state) % 30)
			switch fuzzRand(&state) % 3 {
			case 0:
				envs[q].Schedule(n[q], func() {})
			case 1:
				s.slots[q].inMin[fuzzRand(&state)%uint64(p)] = n[q]
			default:
				envs[q].Schedule(n[q]+Time(fuzzRand(&state)%5), func() {})
				s.slots[q].inMin[0] = n[q]
			}
		}
		want := relaxHorizons(n, look)
		pending := s.computeHorizons()
		idle := true
		for q := range n {
			idle = idle && n[q] >= horizonInf
			if s.nmin[q] != n[q] {
				t.Fatalf("iter %d: n = %v, look %d: nmin[%d] = %d", iter, n, look, q, s.nmin[q])
			}
		}
		if pending == idle {
			t.Fatalf("iter %d: n = %v: computeHorizons reports pending %v", iter, n, pending)
		}
		if !pending {
			continue
		}
		for q := range n {
			if got := s.slots[q].horizon; got != want[q] {
				t.Fatalf("iter %d: n = %v, look %d: horizon[%d] = %d, relaxation %d", iter, n, look, q, got, want[q])
			}
		}
	}
}
