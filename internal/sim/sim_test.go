package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if order[i] != i {
			t.Fatalf("same-time events out of issue order at %d: %v", i, order[:i+1])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEnv()
	var times []Time
	e.Spawn("sleeper", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(100)
		times = append(times, p.Now())
		p.Sleep(50)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 100, 150}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	e := NewEnv()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "a")
			p.Sleep(10)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "b")
			p.Sleep(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSignalWakesWaiters(t *testing.T) {
	e := NewEnv()
	s := NewSignal()
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			s.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Schedule(500, func() { s.Fire() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 500 {
			t.Fatalf("waiter woke at %d, want 500", w)
		}
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	e := NewEnv()
	s := NewSignal()
	s.Fire()
	var at Time = -1
	e.Spawn("late", func(p *Proc) {
		p.Sleep(42)
		s.Wait(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 {
		t.Fatalf("late waiter resumed at %d, want 42", at)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double fire did not panic")
		}
	}()
	s := NewSignal()
	s.Fire()
	s.Fire()
}

func TestCounterWaitFor(t *testing.T) {
	e := NewEnv()
	c := NewCounter()
	var doneAt Time = -1
	e.Spawn("recv", func(p *Proc) {
		c.WaitFor(p, 3)
		doneAt = p.Now()
	})
	e.Schedule(10, func() { c.Add(1) })
	e.Schedule(20, func() { c.Add(1) })
	e.Schedule(30, func() { c.Add(1) })
	e.Schedule(40, func() { c.Add(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 30 {
		t.Fatalf("counter satisfied at %d, want 30", doneAt)
	}
	if c.Value() != 4 {
		t.Fatalf("counter value %d, want 4", c.Value())
	}
}

func TestCounterSatisfiedBeforeWait(t *testing.T) {
	e := NewEnv()
	c := NewCounter()
	c.Add(5)
	ran := false
	e.Spawn("recv", func(p *Proc) {
		c.WaitFor(p, 5)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("waiter never resumed despite satisfied counter")
	}
}

func TestCounterReset(t *testing.T) {
	c := NewCounter()
	c.Add(7)
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("value after reset = %d", c.Value())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	s := NewSignal()
	e.Spawn("stuck", func(p *Proc) {
		s.Wait(p) // never fired
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	var fired []Time
	e.Schedule(10, func() { fired = append(fired, 10) })
	e.Schedule(100, func() { fired = append(fired, 100) })
	e.RunUntil(50)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
	e.RunUntil(200)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want two events", fired)
	}
}

func TestRunUntilReportsAbortAndStall(t *testing.T) {
	// RunUntil ends the way Run does when an event aborts the run or the
	// watchdog sees a stall: at that event, with the error.
	e := NewEnv()
	boom := fmt.Errorf("boom")
	ran := 0
	e.Schedule(10, func() { ran++; e.Abort(boom) })
	e.Schedule(20, func() { ran++ })
	if err := e.RunUntil(50); err != boom || ran != 1 || e.Now() != 10 {
		t.Fatalf("RunUntil past an Abort: err=%v after %d events at t=%d, want boom, 1, 10", err, ran, e.Now())
	}

	e = NewEnv()
	s := NewSignal()
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	var tick func()
	tick = func() { e.After(Millisecond, tick) }
	e.After(Millisecond, tick)
	e.SetWatchdog(10*Millisecond, nil)
	if err := e.RunUntil(Second); err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("RunUntil over a stall returned %v, want the watchdog's diagnostic", err)
	}
	defer e.Shutdown()
}

func TestNestedSpawnFromProcess(t *testing.T) {
	e := NewEnv()
	var childAt Time = -1
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		e.Spawn("child", func(q *Proc) {
			q.Sleep(7)
			childAt = q.Now()
		})
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 12 {
		t.Fatalf("child finished at %d, want 12", childAt)
	}
}

func TestAfterRelativeScheduling(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Schedule(40, func() {
		e.After(5, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 45 {
		t.Fatalf("After fired at %d, want 45", at)
	}
}

func BenchmarkEventDispatch(b *testing.B) {
	e := NewEnv()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventHeap holds the queue at a fixed depth: every executed
// event schedules one successor until b.N have run. Half the successors
// are deliveries that land on shared instants, so their order is decided
// by the packed (sent, src, dseq) key.
func BenchmarkEventHeap(b *testing.B) {
	for _, depth := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEnv()
			left, rng, dseq := b.N, uint32(1), uint32(0)
			var fn func(any)
			fn = func(any) {
				if left == 0 {
					return
				}
				left--
				rng = rng*1664525 + 1013904223
				if rng&(1<<20) != 0 {
					dseq++
					e.ScheduleDelivery(e.Now()/1000*1000+1000, e.Now(), int(rng>>28), dseq, fn, nil)
				} else {
					e.ScheduleArg(e.Now()+1+Time(rng>>16)%Time(2*depth), fn, nil)
				}
			}
			for i := 0; i < depth; i++ {
				e.ScheduleArg(Time(i), fn, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEventLane holds 4096 events pending whose times only grow —
// a backed-up server's queue — and replaces each executed one at the
// tail: through one Lane, where the heap holds the head alone, and
// through plain ScheduleArg, where it holds all 4096.
func BenchmarkEventLane(b *testing.B) {
	for _, mode := range []string{"lane", "plain"} {
		b.Run(mode, func(b *testing.B) {
			e := NewEnv()
			var l Lane
			l.Bind(e)
			sched := e.ScheduleArg
			if mode == "lane" {
				sched = l.Schedule
			}
			left, tail := b.N, Time(0)
			var fn func(any)
			fn = func(any) {
				if left > 0 {
					left--
					tail++
					sched(tail, fn, nil)
				}
			}
			for i := 0; i < 4096; i++ {
				tail++
				sched(tail, fn, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkProcessContextSwitch(b *testing.B) {
	e := NewEnv()
	e.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSignalWake is a Signal ping-pong between two processes: one
// op is a round trip, in which each blocks, is fired and is dispatched.
func BenchmarkSignalWake(b *testing.B) {
	e := NewEnv()
	var ping, pong Signal
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Fire()
			ping.Wait(p)
			ping.Reset()
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Wait(p)
			pong.Reset()
			ping.Fire()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestPropertyHeapOrdering(t *testing.T) {
	// Events scheduled in arbitrary order fire in nondecreasing time,
	// ties broken by issue order.
	e := NewEnv()
	type fired struct {
		t   Time
		seq int
	}
	var log []fired
	seq := 0
	times := []Time{50, 10, 90, 10, 50, 0, 70, 10}
	for _, tm := range times {
		tm := tm
		s := seq
		seq++
		e.Schedule(tm, func() { log = append(log, fired{tm, s}) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(log); i++ {
		if log[i].t < log[i-1].t {
			t.Fatalf("time went backwards: %v", log)
		}
		if log[i].t == log[i-1].t && log[i].seq < log[i-1].seq {
			t.Fatalf("tie broken out of issue order: %v", log)
		}
	}
	if len(log) != len(times) {
		t.Fatalf("fired %d of %d", len(log), len(times))
	}
}

func TestWatchdogFiresOnStall(t *testing.T) {
	// A blocked process plus an endless self-rescheduling event chain
	// (the shape of a retransmission loop for a permanently lost
	// message) must trip the watchdog instead of spinning forever.
	e := NewEnv()
	s := NewSignal()
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	var tick func()
	tick = func() { e.After(Millisecond, tick) }
	e.After(Millisecond, tick)
	e.SetWatchdog(10*Millisecond, func() string { return "extra diagnostic" })
	err := e.Run()
	if err == nil {
		t.Fatal("expected watchdog error")
	}
	if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("watchdog error lacks context: %v", err)
	}
	if !strings.Contains(err.Error(), "extra diagnostic") {
		t.Fatalf("watchdog error lacks the dump: %v", err)
	}
}

func TestWatchdogIgnoresSleepers(t *testing.T) {
	// A process sleeping far past the horizon is scheduled, not stalled:
	// the watchdog must stay quiet.
	e := NewEnv()
	e.SetWatchdog(10*Millisecond, nil)
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	if err := e.Run(); err != nil {
		t.Fatalf("watchdog fired on a long sleeper: %v", err)
	}
}

func TestWatchdogProgressSuppressesFiring(t *testing.T) {
	// Event-level progress marks (network deliveries) keep the watchdog
	// quiet while every process is blocked, for as long as they keep
	// coming; once they stop, the watchdog fires one horizon later.
	e := NewEnv()
	s := NewSignal()
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	var tick func()
	tick = func() { e.After(Millisecond, tick) }
	e.After(Millisecond, tick)
	const marks = 100
	for i := 1; i <= marks; i++ {
		e.Schedule(Time(i)*Millisecond, e.Progress)
	}
	e.SetWatchdog(10*Millisecond, nil)
	err := e.Run()
	if err == nil {
		t.Fatal("expected watchdog error after progress stops")
	}
	var last, now Time
	if _, err2 := fmt.Sscanf(err.Error(), "sim: watchdog: no process progress since t=%dns (now t=%dns", &last, &now); err2 != nil {
		t.Fatalf("cannot parse watchdog error %q: %v", err, err2)
	}
	if last < marks*Millisecond {
		t.Fatalf("watchdog fired at lastProgress=%dns, before progress marks stopped (t=%dns)", last, marks*Millisecond)
	}
}

func TestWatchdogDisarmed(t *testing.T) {
	// Horizon 0 disarms: the run ends in plain deadlock detection once
	// the events run out.
	e := NewEnv()
	s := NewSignal()
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	e.SetWatchdog(0, nil)
	e.Schedule(Second, func() {})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want plain deadlock error, got: %v", err)
	}
}

// refEvent and eventLess are the six-field event order the kernel used
// before the heap packed it into integers, kept as the oracle for the
// packed key: time; locals before deliveries; (sent, src, dseq) among
// deliveries; issue sequence last.
type refEvent struct {
	t     Time
	seq   uint64
	del   bool
	dsent Time
	dsrc  int32
	dseq  uint32
}

func eventLess(a, b *refEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.del != b.del {
		return !a.del
	}
	if a.del {
		if a.dsent != b.dsent {
			return a.dsent < b.dsent
		}
		if a.dsrc != b.dsrc {
			return a.dsrc < b.dsrc
		}
		if a.dseq != b.dseq {
			return a.dseq < b.dseq
		}
	}
	return a.seq < b.seq
}

// TestEventOrderOracle drives every way an event enters the heap —
// Schedule, ScheduleArg, Lane.Schedule, ScheduleDelivery, Sleep and
// Signal wake-ups — from inside executing events, with times and
// delivery keys drawn from tiny ranges so that ties at every level of
// the key are the rule, and demands that the executed order is the sort
// of everything scheduled by the reference order. An executing event
// only schedules what sorts after itself (a delivery schedules strictly
// later), which is what makes the whole run one sorted sequence. Three
// of four ScheduleArg events go through one of sixteen lanes, with no
// care for the lane's order: some become the head, some wait behind it
// (later, or at the tail's own instant), some are issued for a time
// before the tail.
func TestEventOrderOracle(t *testing.T) {
	for _, seed := range []uint64{1, 0xdeadbeef, 0x9e3779b97f4a7c15} {
		t.Run(fmt.Sprintf("seed%x", seed), func(t *testing.T) {
			e := NewEnv()
			defer e.Shutdown()
			rng := seed
			pick := func(n int) int { return int(fuzzRand(&rng) >> 33 % uint64(n)) }

			var want []refEvent // index = id, in issue order
			var got []int
			budget := 12000
			var lanes [16]Lane
			for i := range lanes {
				lanes[i].Bind(e)
			}
			var heads, waited, sameInstant, early int
			// issue records the event the next kernel call will enqueue
			// (its seq is the next one the Env hands out).
			issue := func(ev refEvent) int {
				ev.seq = e.seq + 1
				want = append(want, ev)
				return len(want) - 1
			}

			var sig Signal
			parked, quit, wakeID := false, false, 0
			fire := func() { // wakes the waiter with a dispatch at now
				parked = false
				wakeID = issue(refEvent{t: e.now})
				sig.Fire()
			}
			var fanout func(inDelivery bool)
			run := func(id int, inDelivery bool) {
				got = append(got, id)
				fanout(inDelivery)
			}
			fanout = func(inDelivery bool) {
				if budget == 0 {
					// The first local context to see the budget spent (a
					// sleeper at the latest) releases the waiter.
					if !quit && !inDelivery {
						quit = true
						if parked {
							fire()
						}
					}
					return
				}
				for k := pick(3); k > 0 && budget > 0; k-- {
					budget--
					at := e.now + Time(pick(3))*10
					if inDelivery {
						at = e.now + Time(1+pick(2))*10
					}
					switch pick(4) {
					case 0:
						id := issue(refEvent{t: at})
						e.Schedule(at, func() { run(id, false) })
					case 1:
						id := issue(refEvent{t: at})
						fn := func(a any) { run(a.(int), false) }
						if pick(4) == 0 {
							e.ScheduleArg(at, fn, id)
							break
						}
						l := &lanes[pick(len(lanes))]
						switch {
						case !l.queued:
							heads++
						case at < l.tail:
							early++
						case at == l.tail:
							sameInstant++
						default:
							waited++
						}
						l.Schedule(at, fn, id)
					case 2:
						if parked && !inDelivery {
							fire()
							break
						}
						fallthrough
					default:
						ev := refEvent{t: at, del: true, dsent: Time(pick(2)) * e.now, dsrc: int32(pick(3)), dseq: uint32(pick(2))}
						if pick(8) == 0 {
							ev.dsrc = 1<<31 - 1
						}
						id := issue(ev)
						e.ScheduleDelivery(at, ev.dsent, int(ev.dsrc), ev.dseq, func(a any) { run(a.(int), true) }, id)
					}
				}
			}

			for i := 0; i < 4; i++ {
				id := issue(refEvent{t: 0})
				e.Spawn("sleeper", func(p *Proc) {
					for {
						got = append(got, id)
						fanout(false)
						if budget == 0 {
							return
						}
						d := Time(pick(3)) * 10
						id = issue(refEvent{t: e.now + d})
						p.Sleep(d)
					}
				})
			}
			id := issue(refEvent{t: 0})
			e.Spawn("waiter", func(p *Proc) {
				for {
					got = append(got, id)
					if quit {
						return
					}
					parked = true
					sig.Wait(p)
					sig.Reset()
					id = wakeID
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}

			if len(want) < 10000 || len(got) != len(want) {
				t.Fatalf("scheduled %d events, executed %d, want both equal and >= 10000", len(want), len(got))
			}
			order := make([]int, len(want))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(i, j int) bool { return eventLess(&want[order[i]], &want[order[j]]) })
			ties := 0
			for i := range order {
				if got[i] != order[i] {
					t.Fatalf("executed event %d is id %d (%+v), reference order has id %d (%+v)",
						i, got[i], want[got[i]], order[i], want[order[i]])
				}
				if i > 0 {
					a, b := want[order[i-1]], want[order[i]]
					if a.seq, b.seq = 0, 0; a == b && a.del {
						ties++
					}
				}
			}
			if ties < 100 {
				t.Fatalf("only %d adjacent deliveries differed in seq alone; the generator no longer exercises the payload tie-break", ties)
			}
			t.Logf("lane events: %d heads, %d waiting later, %d at the tail's instant, %d before the tail", heads, waited, sameInstant, early)
			if heads < 100 || waited < 100 || sameInstant < 100 || early < 100 {
				t.Fatalf("lane events: %d heads, %d waiting later, %d waiting at the tail's instant, %d issued before the tail; want >= 100 of each",
					heads, waited, sameInstant, early)
			}
		})
	}
}

// TestHeapLayout pins the sizes the heap's cost rests on: a sift level
// moves one pointer-free 32-byte node, and a queued event costs no more
// than the 80-byte event struct the heap used to hold whole.
func TestHeapLayout(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n > 32 {
		t.Errorf("heap node is %d bytes, want <= 32", n)
	}
	if n := unsafe.Sizeof(node{}) + unsafe.Sizeof(payload{}); n > 80 {
		t.Errorf("node + payload is %d bytes per queued event, want <= 80", n)
	}
}

// TestHeapSteadyState: once the queue has been at a depth, scheduling
// and popping at or below it allocates nothing, the slab stays at that
// high-water mark, and every popped slot is zeroed and back on the free
// list.
func TestHeapSteadyState(t *testing.T) {
	const depth = 1000
	e := NewEnv()
	nop := func(any) {}
	round := func() {
		for i := 0; i < depth; i++ {
			at := e.now + Time(i%7)
			switch i % 3 {
			case 0:
				e.ScheduleArg(at, nop, e)
			case 1:
				e.ScheduleDelivery(at, e.now, i%4, uint32(i%2), nop, e)
			default:
				e.scheduleProc(at, nil) // a dispatch payload; never executed here
			}
		}
		for !e.events.empty() {
			e.events.pop()
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("steady-state schedule+pop allocates %.1f times per %d events, want 0", allocs, depth)
	}
	h := &e.events
	if len(h.slab) != depth {
		t.Errorf("slab holds %d slots after rounds of depth %d", len(h.slab), depth)
	}
	free := 0
	for s := h.free; s != 0; s = uint32(h.slab[s-1].seq) {
		free++
	}
	if free != depth {
		t.Errorf("free list threads %d of %d slots", free, depth)
	}
	for i, pl := range h.slab {
		if pl.afn != nil || pl.arg != nil || pl.fn != nil {
			t.Fatalf("popped slot %d still pins its payload: %+v", i, pl)
		}
	}
}

// laneProgram runs a random self-extending schedule on a fresh Env and
// returns the ids in execution order and the final clock. Events go
// through four issuers, each with a clock that mostly advances (a busy
// server's next free slot) and now and then falls back to Now; with
// useLanes every issuer is a Lane, without it the same calls are plain
// ScheduleArg. Plain events and deliveries are mixed in either way.
// window > 0 runs the schedule as consecutive RunWindow windows.
func laneProgram(t *testing.T, seed uint64, useLanes bool, window Time) ([]int, Time) {
	e := NewEnv()
	var lanes [4]Lane
	var free [4]Time
	for i := range lanes {
		lanes[i].Bind(e)
	}
	rng := seed
	pick := func(n int) int { return int(fuzzRand(&rng) >> 33 % uint64(n)) }
	var got []int
	budget, next := 20000, 0
	var fn func(any)
	issue := func() {
		budget--
		id := next
		next++
		switch k := pick(6); {
		case k < len(lanes):
			if free[k] < e.now || pick(16) == 0 {
				free[k] = e.now // an idle server, or a caller that breaks the lane's order
			}
			free[k] += Time(pick(3)) * 5
			if useLanes {
				lanes[k].Schedule(free[k], fn, id)
			} else {
				e.ScheduleArg(free[k], fn, id)
			}
		case k == len(lanes):
			e.ScheduleArg(e.now+Time(pick(4))*5, fn, id)
		default:
			at := e.now + Time(1+pick(3))*5
			e.ScheduleDelivery(at, e.now, pick(3), uint32(id), fn, id)
		}
	}
	fn = func(a any) {
		got = append(got, a.(int))
		// Bursts, so the issuers back up the way a flooded engine does.
		for k := pick(2) * pick(8); k > 0 && budget > 0; k-- {
			issue()
		}
		if e.events.empty() && budget > 0 {
			issue()
		}
	}
	for i := 0; i < 8; i++ {
		issue()
	}
	if window == 0 {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got, e.Now()
	}
	for limit := window; !e.events.empty(); limit += window {
		if err := e.RunWindow(limit); err != nil {
			t.Fatal(err)
		}
	}
	return got, e.Now()
}

// TestLaneMatchesPlainHeap: the same random schedule executes in the
// same order and ends at the same instant whether its issuers are lanes
// or plain ScheduleArg calls, in one Run and cut into windows.
func TestLaneMatchesPlainHeap(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0x9e3779b97f4a7c15} {
		want, wantNow := laneProgram(t, seed, false, 0)
		if len(want) < 20000 {
			t.Fatalf("seed %#x: the reference run executed %d events, want >= 20000", seed, len(want))
		}
		for _, window := range []Time{0, 1, 7, 40} {
			got, now := laneProgram(t, seed, true, window)
			if now != wantNow || len(got) != len(want) {
				t.Fatalf("seed %#x window %d: lanes executed %d events ending at t=%d, plain heap %d ending at t=%d",
					seed, window, len(got), now, len(want), wantNow)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %#x window %d: event %d is id %d through lanes, id %d through the plain heap",
						seed, window, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLaneSteadyState is TestHeapSteadyState for a lane: once it has
// been at a depth, scheduling through it and popping at or below that
// depth allocates nothing, the whole queue costs one heap node and one
// slab slot, and every consumed ring entry and the slot are zeroed.
func TestLaneSteadyState(t *testing.T) {
	const depth = 1000
	e := NewEnv()
	var l Lane
	l.Bind(e)
	nop := func(any) {}
	round := func() {
		for i := 0; i < depth; i++ {
			l.Schedule(e.now+Time(i/3), nop, e)
			if len(e.events.nodes) != 1 {
				t.Fatalf("heap holds %d nodes with %d events in the lane, want 1", len(e.events.nodes), i+1)
			}
		}
		for i := 0; !e.events.empty(); i++ {
			if at, _ := e.events.pop(); at != e.now+Time(i/3) {
				t.Fatalf("pop %d is for t=%d, want %d", i, at, e.now+Time(i/3))
			}
		}
	}
	// A queue no longer than the lane's own ring never leaves the lane.
	for i := 0; i <= len(l.buf); i++ {
		l.Schedule(e.now, nop, e)
	}
	if int(l.n) != len(l.buf) || &l.ring[0] != &l.buf[0] {
		t.Fatalf("%d events behind the head: %d wait in a ring of %d, want them all in the lane's own %d",
			len(l.buf), l.n, len(l.ring), len(l.buf))
	}
	for !e.events.empty() {
		e.events.pop()
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("steady-state schedule+pop through a lane allocates %.1f times per %d events, want 0", allocs, depth)
	}
	h := &e.events
	if len(h.slab) != 1 || h.free != 1 {
		t.Errorf("slab holds %d slots (free list head %d) after rounds through one lane, want the one slot, free", len(h.slab), h.free)
	}
	if pl := h.slab[0]; pl.afn != nil || pl.arg != nil || pl.fn != nil {
		t.Errorf("the lane's slab slot still pins its payload: %+v", pl)
	}
	if l.queued || l.n != 0 || len(l.ring) != 1024 {
		t.Errorf("drained lane: queued=%v, %d waiting, ring of %d; want idle, 0, 1024", l.queued, l.n, len(l.ring))
	}
	for i, en := range append(l.ring[:len(l.ring):len(l.ring)], l.buf[:]...) {
		if en.t != 0 || en.seq != 0 || en.fn != nil || en.arg != nil {
			t.Fatalf("consumed ring entry %d (past %d: the inline ring it outgrew) still pins its event: %+v", i, len(l.ring), en)
		}
	}
}

func TestDeliveryKeyRange(t *testing.T) {
	nop := func(any) {}
	for _, c := range []struct {
		name    string
		t, sent Time
		src     int
	}{
		{"negative sent", 10, -1, 0},
		{"sent after arrival", 10, 11, 0},
		{"negative src", 10, 5, -1},
		{"src past 31 bits", 10, 5, 1 << 31},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "sim: delivery key out of range") {
					t.Errorf("ScheduleDelivery(t=%d, sent=%d, src=%d) recovered %v, want a key-range panic", c.t, c.sent, c.src, r)
				}
			}()
			NewEnv().ScheduleDelivery(c.t, c.sent, c.src, 0, nop, nil)
		})
	}
	e := NewEnv()
	e.ScheduleDelivery(10, 10, 1<<31-1, 1<<32-1, nop, nil) // the corners are legal
	e.ScheduleDelivery(10, 0, 0, 0, nop, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// leakedGoroutines reports how many goroutines exist beyond before,
// polling while any do: a finished coroutine's goroutine is torn down
// by the runtime just after the switch that ends it. (Fewer than before
// is fine: an earlier test's PDES workers may still have been exiting.)
func leakedGoroutines(before int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > before; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return max(n-before, 0)
}

// TestProcPanicPropagates: a panic in a process body leaves Run on the
// caller's goroutine with its original value, the process is done and
// no longer counted alive, and Shutdown still reaps everyone else.
func TestProcPanicPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	var sig Signal
	bystander := e.Spawn("bystander", func(p *Proc) {
		sig.Wait(p)
		t.Error("bystander ran past a signal nobody fired")
	})
	boom := errors.New("boom")
	bad := e.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic(boom)
	})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		err := e.Run()
		t.Errorf("Run returned %v instead of panicking", err)
	}()
	if recovered != boom {
		t.Fatalf("recovered %v, want the process's own panic value", recovered)
	}
	if !bad.Done() || bystander.Done() {
		t.Errorf("after the panic Done() = %v (bad), %v (bystander), want true, false", bad.Done(), bystander.Done())
	}
	if e.alive != 1 || e.running != nil {
		t.Errorf("after the panic alive = %d, running = %v, want 1, nil", e.alive, e.running)
	}
	e.Shutdown()
	if !bystander.Done() {
		t.Error("Shutdown left the bystander alive")
	}
	if n := leakedGoroutines(before); n != 0 {
		t.Errorf("Shutdown left %d goroutine(s) behind", n)
	}
}

// TestShutdownLifecycle: after Run returns, Shutdown leaves no coroutine
// behind whatever state a process was in — never dispatched, asleep,
// parked on a Signal or a Counter, crashed while parked, crashed while
// running, or finished — and a process that was killed or crashed never
// executes another statement of its body.
func TestShutdownLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	ranOn := map[string]bool{}
	var sig, crashSig Signal
	var ctr Counter

	e.Spawn("finished", func(p *Proc) { p.Sleep(1) })
	e.Spawn("asleep", func(p *Proc) {
		p.Sleep(Second)
		ranOn["asleep"] = true
	})
	e.Spawn("on-signal", func(p *Proc) {
		sig.Wait(p)
		ranOn["on-signal"] = true
	})
	e.Spawn("on-counter", func(p *Proc) {
		ctr.WaitFor(p, 3)
		ranOn["on-counter"] = true
	})
	crashedParked := e.Spawn("crashed-parked", func(p *Proc) {
		crashSig.Wait(p)
		ranOn["crashed-parked"] = true
	})
	e.Spawn("crashed-running", func(p *Proc) {
		p.Sleep(2)
		e.CrashProc(p)
		p.Sleep(1) // unwinds here
		ranOn["crashed-running"] = true
	})
	stop := errors.New("stop")
	e.Schedule(10, func() {
		e.CrashProc(crashedParked)
		crashSig.Fire() // a wake aimed at a crashed process is dropped
		ctr.Add(1)
	})
	e.Schedule(20, func() {
		e.Spawn("never-dispatched", func(p *Proc) { ranOn["never-dispatched"] = true })
		e.Abort(stop)
	})
	if err := e.Run(); err != stop {
		t.Fatalf("Run = %v, want the abort error", err)
	}
	if e.alive != 4 || e.blocked != 2 {
		t.Errorf("after Run alive = %d, blocked = %d, want 4 (asleep, two parked, never-dispatched), 2", e.alive, e.blocked)
	}
	e.Shutdown()
	for _, p := range e.procs {
		if !p.Done() {
			t.Errorf("%s not done after Shutdown", p.Name())
		}
	}
	for name := range ranOn {
		t.Errorf("%s executed a statement after it was killed", name)
	}
	if n := leakedGoroutines(before); n != 0 {
		t.Errorf("Shutdown left %d goroutine(s) behind", n)
	}
	e.Shutdown() // idempotent
}
