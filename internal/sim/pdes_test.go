package sim

import (
	"runtime"
	"strings"
	"testing"
)

// A window's upper edge is exclusive: an event scheduled exactly at t1
// belongs to the NEXT window. The conservative argument depends on
// this — mail injected at a boundary may arrive exactly at the edge,
// so the edge must not have executed yet.
func TestRunWindowEdgeExclusive(t *testing.T) {
	e := NewEnv()
	var ran []Time
	e.Schedule(5, func() { ran = append(ran, 5) })
	e.Schedule(10, func() { ran = append(ran, 10) })
	e.Schedule(15, func() { ran = append(ran, 15) })
	if err := e.RunWindow(10); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != 5 {
		t.Fatalf("window [0,10) executed %v, want [5] — edge event leaked in", ran)
	}
	if e.Now() != 5 {
		t.Fatalf("clock forced to %d; must stay at last executed event (5)", e.Now())
	}
	if err := e.RunWindow(20); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 3 || ran[1] != 10 || ran[2] != 15 {
		t.Fatalf("second window executed %v, want [5 10 15]", ran)
	}
}

// Same-timestamp locals preserve issue order even when a window
// boundary falls between scheduling and execution.
func TestRunWindowSameTimestampOrderAcrossBoundary(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(40, func() { order = append(order, i) })
	}
	e.Schedule(3, func() {}) // something for the first window to run
	if err := e.RunWindow(40); err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 {
		t.Fatalf("t=40 events ran inside window [0,40): %v", order)
	}
	if err := e.RunWindow(41); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events out of issue order across boundary: %v", order)
		}
	}
}

// ScheduleArg arguments survive windows: an event scheduled in one
// window and executed several windows later still carries its payload
// (nothing recycles or truncates pending heap entries at a boundary).
func TestScheduleArgCrossesWindowsIntact(t *testing.T) {
	e := NewEnv()
	type payload struct{ v int }
	got := 0
	e.ScheduleArg(100, func(a any) { got = a.(*payload).v }, &payload{v: 42})
	for _, t1 := range []Time{20, 40, 60, 80, 100, 101} {
		if err := e.RunWindow(t1); err != nil {
			t.Fatal(err)
		}
	}
	if got != 42 {
		t.Fatalf("payload = %d after crossing five windows, want 42", got)
	}
}

// Same-instant deliveries order by the (sent, src, seq) key — not by
// insertion order — and run after same-instant locals.
func TestScheduleDeliveryKeyOrdering(t *testing.T) {
	e := NewEnv()
	var order []string
	rec := func(a any) { order = append(order, a.(string)) }
	// Insert in scrambled order; all execute at t=50.
	e.ScheduleDelivery(50, 30, 2, 0, rec, "sent30-src2")
	e.ScheduleDelivery(50, 10, 7, 1, rec, "sent10-src7-seq1")
	e.Schedule(50, func() { order = append(order, "local") })
	e.ScheduleDelivery(50, 10, 7, 0, rec, "sent10-src7-seq0")
	e.ScheduleDelivery(50, 10, 3, 5, rec, "sent10-src3")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"local", "sent10-src3", "sent10-src7-seq0", "sent10-src7-seq1", "sent30-src2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Cross-partition mail posted through Shards is delivered at its
// arrival time on the destination partition, and the run drains both
// heaps to completion on the inline window loop, the engine's one
// execution path.
func TestShardsCrossPartitionMail(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		envs := []*Env{NewEnv(), NewEnv()}
		s := NewShards(envs, 10)
		defer s.Shutdown()
		var deliveredAt Time
		envs[0].Schedule(5, func() {
			// Send from partition 0 at t=5, arriving t=5+10 on partition 1.
			s.Post(0, 1, 15, 5, 0, 0, func(any) { deliveredAt = envs[1].Now() }, nil)
		})
		// Give partition 1 a same-window event so both partitions are
		// active in one round.
		envs[1].Schedule(6, func() {})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if deliveredAt != 15 {
			t.Fatalf("mail delivered at t=%d on partition 1, want 15", deliveredAt)
		}
		if s.Now() != 15 {
			t.Fatalf("Shards.Now() = %d, want 15", s.Now())
		}
	})
}

// A partition with nothing before its horizon runs no window, whatever
// the host's processor count. Partitions 0 and 1 tick once per
// lookahead at t = 0, 10, 20, 30, 40, so each of those five rounds runs
// exactly their two windows while partition 2 sits idle until its one
// event at t = 1000, which takes one round of its own: 5*2 + 1 = 11.
func TestShardsIdlePartitionRunsNoWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		envs := []*Env{NewEnv(), NewEnv(), NewEnv()}
		s := NewShards(envs, 10)
		for _, env := range envs[:2] {
			for k := Time(0); k < 5; k++ {
				env.Schedule(10*k, func() {})
			}
		}
		envs[2].Schedule(1000, func() {})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		if got := s.Windows(); got != 11 {
			t.Errorf("GOMAXPROCS %d: %d windows, want 11", procs, got)
		}
	}
}

// A cross-partition deadlock is reported with EVERY partition's
// blocked-process state, not just the partition that noticed: with one
// process parked on each of two partitions, the error must name both.
func TestShardsDeadlockDumpsAllPartitions(t *testing.T) {
	envs := []*Env{NewEnv(), NewEnv()}
	s := NewShards(envs, 10)
	defer s.Shutdown()
	for p, name := range []string{"left-waiter", "right-waiter"} {
		sig := NewSignal()
		envs[p].Spawn(name, func(pr *Proc) { sig.Wait(pr) })
	}
	err := s.Run()
	if err == nil {
		t.Fatal("two blocked partitions did not deadlock")
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "partition 0", "partition 1", "left-waiter", "right-waiter"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock error missing %q:\n%s", want, msg)
		}
	}
}

// The coordinator's dump hook output is appended to deadlock errors.
func TestShardsWatchdogDumpAppended(t *testing.T) {
	envs := []*Env{NewEnv(), NewEnv()}
	s := NewShards(envs, 10)
	defer s.Shutdown()
	s.SetWatchdog(0, func() string { return "external-dump-marker" })
	sig := NewSignal()
	envs[0].Spawn("stuck", func(pr *Proc) { sig.Wait(pr) })
	err := s.Run()
	if err == nil {
		t.Fatal("blocked partition did not deadlock")
	}
	if !strings.Contains(err.Error(), "external-dump-marker") {
		t.Fatalf("deadlock error missing dump hook output:\n%s", err)
	}
}

// A partition-level stall (watchdog horizon exceeded while another
// partition keeps generating events) aborts the run with the stalling
// partition identified and all partitions' state attached.
func TestShardsStallDumpsAllPartitions(t *testing.T) {
	envs := []*Env{NewEnv(), NewEnv()}
	s := NewShards(envs, 10)
	defer s.Shutdown()
	s.SetWatchdog(100, func() string { return "stall-dump-marker" })
	sig := NewSignal()
	envs[1].Spawn("parked", func(pr *Proc) { sig.Wait(pr) })
	// Partition 1 only ever sees timer events; its one process never
	// progresses, so its watchdog must fire.
	var tick func()
	next := Time(0)
	tick = func() {
		next += 50
		if next < 1000 {
			envs[1].Schedule(next, tick)
		}
	}
	envs[1].Schedule(0, tick)
	// Partition 0 idles along on its own timers.
	envs[0].Schedule(500, func() {})
	err := s.Run()
	if err == nil {
		t.Fatal("stalled partition did not abort")
	}
	msg := err.Error()
	for _, want := range []string{"watchdog", "partition 1", "parked", "partition 0", "stall-dump-marker"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("stall error missing %q:\n%s", want, msg)
		}
	}
}
