//simlint:concurrent -- processes are iter.Pull coroutines: the scheduler and every process body share one thread of control that next/yield pass back and forth, never two at once; the race detector checks it dynamically

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives two kinds of activity:
//
//   - Events: plain functions scheduled at a virtual time, executed in
//     scheduler context. Protocol message handlers are events.
//   - Processes: coroutines (iter.Pull) that can block on virtual time
//     (Sleep) or on conditions (Signal, Counter). Compute threads of the
//     simulated cluster nodes are processes.
//
// A dispatch is one coroutine switch into the process and one back when
// it blocks or finishes, so the scheduler and the processes are a single
// thread of control. Simultaneous events are ordered by a total key
// (locals by issue sequence, deliveries by their message key). Together
// these rules make every simulation bit-reproducible, which the test
// suite exploits by asserting exact message and miss counts.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Time is virtual time in nanoseconds.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// node is the part of a pending event the heap sifts: its time, its
// tie-break packed into two integers, the slab slot of its payload and,
// for the head of a Lane, the lane (as index+1) its successor waits in.
// Pointer-free and 32 bytes, so a sift level moves half a cache line
// and the collector never scans the heap array.
//
// The packed key reproduces the order (t, locals before deliveries,
// then (sent, src, dseq) among deliveries, then issue seq):
//
//	local:    k1 = 0             k2 = seq
//	delivery: k1 = 1<<63 | sent  k2 = src<<32 | dseq
//
// Issue sequence numbers are unique, so local keys never tie; two
// deliveries that agree on the whole message key fall back to the seq
// kept in their payloads.
type node struct {
	t      Time
	k1, k2 uint64
	slot   uint32
	lane   uint32
}

// payload is what an event does. Three mutually exclusive forms avoid
// per-event closure allocation on the hot paths: argument-style events
// (network delivery) carry a shared function plus its argument, plain
// events a closure, and a process dispatch (Sleep, wake, Spawn) neither
// function, with the *Proc in arg. A free slot holds only the next free
// slot's index (plus one) in seq.
type payload struct {
	afn func(any) // shared function applied to arg
	arg any
	fn  func()
	seq uint64
}

// deliveryKey marks k1 as a delivery's: locals (k1 = 0) sort first.
const deliveryKey = 1 << 63

// eventHeap is an index-free 4-ary min-heap of nodes over a slab of
// payloads. The keys are unique, so the heap order is a total order and
// the pop sequence does not depend on heap shape. Message deliveries
// carry a schedule-independent tie-break — (send time, source id,
// per-source sequence) — instead of relying on insertion order, so two
// executions that schedule the same deliveries in different orders (the
// sequential loop vs the partitioned window scheduler) still pop them
// identically. Of a Lane only the head is a node; pop puts the lane's
// next event in its place.
type eventHeap struct {
	nodes []node
	slab  []payload
	free  uint32  // head of the free-slot list, as slot+1; 0 when empty
	lanes []*Lane // node.lane-1 indexes it
}

func (h *eventHeap) less(a, b *node) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return h.slab[a.slot].seq < h.slab[b.slot].seq
}

func (h *eventHeap) peekTime() Time { return h.nodes[0].t }
func (h *eventHeap) empty() bool    { return len(h.nodes) == 0 }

// push stores pl in a free slab slot and inserts its node — the head of
// lane (as index+1) when that is not 0 — moving the hole up through the
// 4-ary order.
//
//simlint:hotpath
func (h *eventHeap) push(t Time, k1, k2 uint64, lane uint32, pl payload) {
	slot := h.free
	if slot != 0 {
		slot--
		h.free = uint32(h.slab[slot].seq)
		h.slab[slot] = pl
	} else {
		slot = uint32(len(h.slab))
		//simlint:ignore hotalloc -- the slab grows to the queue's high-water mark once per run; steady state recycles slots through the free list
		h.slab = append(h.slab, pl)
	}
	nd := node{t: t, k1: k1, k2: k2, slot: slot, lane: lane}
	//simlint:ignore hotalloc -- the heap grows to its high-water mark once per run; steady state reuses the slice capacity (bench gate holds allocs/op at the PR 3 floor)
	ns := append(h.nodes, nd)
	i := len(ns) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h.less(&nd, &ns[p]) {
			break
		}
		ns[i] = ns[p]
		i = p
	}
	ns[i] = nd
	h.nodes = ns
}

// pop removes the minimum event and moves the hole it leaves at the
// root down to where its replacement fits. The head of a lane with
// events waiting is replaced by the lane's next event, which takes over
// its slab slot under the key it was issued with: the heap keeps its
// length and the free list is not touched. Any other event gives its
// place to the tail node and frees its slab slot (zeroed, so the slab
// pins neither the function nor its argument).
//
//simlint:hotpath
func (h *eventHeap) pop() (Time, payload) {
	ns := h.nodes
	top := ns[0]
	pl := h.slab[top.slot]
	n := len(ns)
	var nd node
	if l := h.successor(top.lane); l != nil {
		en := &l.ring[l.head]
		h.slab[top.slot] = payload{afn: en.fn, arg: en.arg}
		nd = node{t: en.t, k2: en.seq, slot: top.slot, lane: top.lane}
		*en = laneEntry{}
		l.head = (l.head + 1) & uint32(len(l.ring)-1)
		l.n--
	} else {
		n--
		nd = ns[n]
		ns = ns[:n]
		h.nodes = ns
		h.slab[top.slot] = payload{seq: uint64(h.free)}
		h.free = top.slot + 1
		if n == 0 {
			return top.t, pl
		}
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h.less(&ns[j], &ns[m]) {
				m = j
			}
		}
		if !h.less(&ns[m], &nd) {
			break
		}
		ns[i] = ns[m]
		i = m
	}
	ns[i] = nd
	return top.t, pl
}

// successor is called with the lane tag of the node just popped (0: not
// a lane's head). It returns the lane if an event is waiting in it to
// take the head's place, and marks the lane idle if none is.
//
//simlint:hotpath
func (h *eventHeap) successor(lane uint32) *Lane {
	if lane == 0 {
		return nil
	}
	l := h.lanes[lane-1]
	if l.n == 0 {
		l.queued = false
		return nil
	}
	return l
}

// A Lane is a FIFO of events into the heap for a caller that issues
// them in non-decreasing time, such as a server that runs one job at a
// time: only the lane's earliest pending event is a heap node, the rest
// wait in a ring and enter the heap one by one as pop consumes the head
// (eventHeap.pop). Every event still gets its issue sequence number
// when it is scheduled and is ordered by the (t, seq) key it would have
// had as a plain ScheduleArg, and within a lane those keys only grow,
// so the heap always holds the smallest key of every lane: the pop
// sequence is the one scheduling each event directly gives, in every
// run loop. An event issued for an earlier time than the lane's latest
// simply goes to the heap as a plain event, so the order does not rest
// on the caller's monotonicity either.
//
// A Lane is embedded by value in its owner and bound, where it will
// stay, to one Env. A queue as short as most are lives in the lane
// itself, so that a machine of many nodes pays no allocation per lane;
// the ring moves to the heap when more events wait than buf holds.
type Lane struct {
	env    *Env
	id     uint32      // index+1 in env.events.lanes
	queued bool        // the head is in the heap
	tail   Time        // time of the latest event issued through the lane
	head   uint32      // ring index of the next event to enter the heap
	n      uint32      // events waiting in the ring
	ring   []laneEntry // a power of two long: buf, until it overflows
	buf    [16]laneEntry
}

// laneEntry is a waiting event: its key and its ScheduleArg payload.
type laneEntry struct {
	t   Time
	seq uint64
	fn  func(any)
	arg any
}

// Bind attaches the lane to e. A lane is bound once, before its first
// Schedule, and must not be copied or moved afterwards: e keeps its
// address.
func (l *Lane) Bind(e *Env) {
	if l.env != nil {
		panic("sim: lane bound twice")
	}
	e.events.lanes = append(e.events.lanes, l)
	l.env, l.id, l.ring = e, uint32(len(e.events.lanes)), l.buf[:]
}

// Schedule runs fn(arg) at absolute virtual time t, exactly as
// Env.ScheduleArg would.
//
//simlint:hotpath
func (l *Lane) Schedule(t Time, fn func(any), arg any) {
	e := l.env
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: t=%d now=%d", t, e.now))
	}
	e.seq++
	switch {
	case !l.queued:
		l.queued, l.tail = true, t
		e.events.push(t, 0, e.seq, l.id, payload{afn: fn, arg: arg})
	case t < l.tail:
		e.events.push(t, 0, e.seq, 0, payload{afn: fn, arg: arg})
	default:
		l.tail = t
		l.wait(laneEntry{t: t, seq: e.seq, fn: fn, arg: arg})
	}
}

// wait appends en to the ring.
//
//simlint:hotpath
func (l *Lane) wait(en laneEntry) {
	if int(l.n) == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&uint32(len(l.ring)-1)] = en
	l.n++
}

// grow doubles a full ring, unrolling it so the oldest entry is at
// index 0. Once the ring has left buf, buf pins nothing.
func (l *Lane) grow() {
	ring := make([]laneEntry, 2*len(l.ring))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
	l.buf = [len(l.buf)]laneEntry{}
}

// Env is a simulation environment: an event queue plus a virtual clock.
// An Env is not safe for concurrent use; all interaction must come from
// the goroutine running Run (for events) or from the currently scheduled
// process (for process operations).
type Env struct {
	now     Time
	events  eventHeap
	seq     uint64
	blocked int     // processes alive but not schedulable
	alive   int     // processes spawned and not yet finished
	procs   []*Proc // all spawned processes (diagnostics, Shutdown)

	// Stall watchdog (SetWatchdog): if every live process stays blocked
	// with no dispatch for wdHorizon of virtual time while events keep
	// firing (e.g. endless retransmission timers), Run aborts with a
	// diagnostic instead of spinning forever.
	wdHorizon    Time
	wdDump       func() string
	lastProgress Time

	running  *Proc // process currently dispatched (nil in event context)
	abortErr error // set by Abort; Run returns it after the current event

	stats EventStats // executed-event counters (see Events)
}

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{}
}

// NewEnvAt returns an empty environment with the clock preset to t.
// Used when a recovered cluster resumes a run mid-flight: the new
// environment continues the crashed run's virtual clock so elapsed
// times include the lost work and the recovery delay.
func NewEnvAt(t Time) *Env {
	e := NewEnv()
	e.now = t
	e.lastProgress = t
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Schedule runs fn at absolute virtual time t (>= Now) in scheduler context.
//
//simlint:hotpath
func (e *Env) Schedule(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: t=%d now=%d", t, e.now))
	}
	e.seq++
	e.events.push(t, 0, e.seq, 0, payload{fn: fn})
}

// ScheduleArg runs fn(arg) at absolute virtual time t. It is the
// allocation-free variant of Schedule for hot paths: fn is typically a
// shared package-level function and arg a pointer, so no closure is
// built per event.
//
//simlint:hotpath
func (e *Env) ScheduleArg(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: t=%d now=%d", t, e.now))
	}
	e.seq++
	e.events.push(t, 0, e.seq, 0, payload{afn: fn, arg: arg})
}

// ScheduleDelivery runs fn(arg) at absolute virtual time t, ordered
// among same-instant events by an explicit message-delivery key rather
// than by insertion order: at equal t, locals (Schedule/ScheduleArg/
// process dispatches) run first, then deliveries in (sent, src, dseq)
// order. sent is the virtual time the source issued the send, src its
// node id, and dseq a per-source sequence number — all three are
// properties of the message itself, so the sequential event loop and
// the partitioned window scheduler compute the identical pop order no
// matter when the event was inserted. The packed heap key needs
// 0 <= sent <= t and 0 <= src < 2^31.
//
//simlint:hotpath
func (e *Env) ScheduleDelivery(t, sent Time, src int, dseq uint32, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: t=%d now=%d", t, e.now))
	}
	if sent < 0 || sent > t || uint64(src) >= 1<<31 {
		panic(fmt.Sprintf("sim: delivery key out of range: sent=%d t=%d src=%d", sent, t, src))
	}
	e.seq++
	e.events.push(t, deliveryKey|uint64(sent), uint64(src)<<32|uint64(dseq), 0,
		payload{afn: fn, arg: arg, seq: e.seq})
}

// scheduleProc enqueues a dispatch of p at time t without allocating.
//
//simlint:hotpath
func (e *Env) scheduleProc(t Time, p *Proc) {
	e.seq++
	e.events.push(t, 0, e.seq, 0, payload{arg: p})
}

// exec executes one popped event. This is the event-dispatch loop's
// body: every simulated action in the model funnels through here.
//
//simlint:hotpath
func (e *Env) exec(pl *payload) {
	switch {
	case pl.afn != nil:
		e.stats.ArgEvents++
		pl.afn(pl.arg)
	case pl.fn != nil:
		e.stats.FnEvents++
		pl.fn()
	default:
		e.stats.Dispatches++
		e.dispatch(pl.arg.(*Proc))
	}
}

// EventStats counts executed events by dispatch class: process
// dispatches, allocation-free ScheduleArg events, and closure events.
// The counters are always on (three integer increments per event) and
// feed the trace exporter's metadata; they never influence timing.
type EventStats struct {
	Dispatches int64 // process dispatches
	ArgEvents  int64 // ScheduleArg (closure-free) events
	FnEvents   int64 // Schedule (closure) events
}

// Total returns the total number of executed events.
func (s EventStats) Total() int64 { return s.Dispatches + s.ArgEvents + s.FnEvents }

// Events returns the event-dispatch counters accumulated so far.
func (e *Env) Events() EventStats { return e.stats }

// After runs fn after delay d.
func (e *Env) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// SetWatchdog arms the stall watchdog: Run returns an error if every
// live process remains blocked on conditions, with no process dispatch,
// for more than horizon of virtual time while events continue to fire.
// (An empty event queue with blocked processes is still reported as a
// deadlock, watchdog or not.) dump, if non-nil, contributes extra
// diagnostic lines to the error. A horizon of 0 disarms the watchdog.
func (e *Env) SetWatchdog(horizon Time, dump func() string) {
	e.wdHorizon = horizon
	e.wdDump = dump
}

// Progress records that the simulation made externally visible forward
// progress (e.g. the network delivered a message to a handler) even
// though no process was dispatched. It keeps the stall watchdog from
// firing while long event-level work — such as draining thousands of
// outstanding protocol transactions — proceeds with every process
// legitimately blocked at a sync point.
func (e *Env) Progress() { e.lastProgress = e.now }

// stalled reports whether the watchdog condition holds: armed, every
// live process condition-blocked (a sleeping or runnable process always
// has a pending dispatch event, so blocked == alive means none exists),
// and no dispatch or Progress mark for over a horizon.
func (e *Env) stalled() bool {
	return e.wdHorizon > 0 && e.alive > 0 && e.blocked == e.alive &&
		e.now-e.lastProgress > e.wdHorizon
}

func (e *Env) stallError() error {
	msg := fmt.Sprintf("sim: watchdog: no process progress since t=%dns (now t=%dns, horizon %dns): %d process(es) blocked: %s",
		e.lastProgress, e.now, e.wdHorizon, e.blocked, e.blockedNames())
	if e.wdDump != nil {
		if d := e.wdDump(); d != "" {
			msg += "\n" + d
		}
	}
	return fmt.Errorf("%s", msg)
}

// step executes the earliest pending event: the one place the clock
// advances and an event runs, shared by every run loop. It returns the
// Abort error, or the stall watchdog's diagnostic, once that event has
// finished.
//
//simlint:hotpath
func (e *Env) step() error {
	at, pl := e.events.pop()
	e.now = at
	e.exec(&pl)
	if e.abortErr != nil {
		return e.abortErr
	}
	if e.stalled() {
		return e.stallError()
	}
	return nil
}

// Run executes events until the queue is empty. If processes remain
// blocked with no pending events, Run returns an error describing the
// deadlock; if a watchdog is armed and the simulation stalls (events
// fire but no process runs past the horizon), Run returns the
// watchdog's diagnostic.
//
//simlint:hotpath
func (e *Env) Run() error {
	for !e.events.empty() {
		if err := e.step(); err != nil {
			return err
		}
	}
	if e.blocked > 0 {
		msg := fmt.Sprintf("sim: deadlock at t=%d: %d process(es) blocked forever: %s",
			e.now, e.blocked, e.blockedNames())
		if e.wdDump != nil {
			if d := e.wdDump(); d != "" {
				msg += "\n" + d
			}
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// Abort makes Run return err as soon as the current event finishes.
// Pending events are left unexecuted; the environment is expected to be
// abandoned (after Shutdown) once Run returns. Used by the failure
// detector to stop a doomed run the instant a peer is declared dead.
func (e *Env) Abort(err error) {
	if e.abortErr == nil {
		e.abortErr = err
	}
}

// Shutdown force-terminates every unfinished process so the environment
// can be abandoned without leaking coroutines. A suspended process's
// pending yield reports the stop and unwinds with a private sentinel
// that the spawn wrapper recovers; one never dispatched never starts.
// Must be called after Run has returned; the environment is unusable
// afterwards.
func (e *Env) Shutdown() {
	for _, p := range e.procs {
		p.stop() // a no-op once the body has returned or panicked
		p.done = true
	}
}

// CrashProc removes p from the simulation: it is never dispatched or
// woken again, and pending dispatch events for it become no-ops. If p
// is the currently running process it unwinds at its next kernel call
// instead. The coroutine itself stays suspended until Shutdown reaps it.
func (e *Env) CrashProc(p *Proc) {
	if p == nil || p.done || p.crashed {
		return
	}
	p.crashed = true
	if p == e.running {
		return // accounting settles when it unwinds and yields
	}
	if p.waiting {
		p.waiting = false
		e.blocked--
	}
	e.alive--
}

// RunUntil executes events with time <= t, then sets the clock to t. It
// stops early, leaving the clock at the event that ended the run, with
// the abort error or the stall watchdog's diagnostic, exactly like Run.
func (e *Env) RunUntil(t Time) error {
	for !e.events.empty() && e.events.peekTime() <= t {
		if err := e.step(); err != nil {
			return err
		}
	}
	if t > e.now {
		e.now = t
	}
	return nil
}

// RunWindow executes events with time strictly below limit. Windows are
// half-open [start, limit): an event scheduled exactly at the edge
// belongs to the next window, so consecutive windows partition the
// timeline without executing an edge event early or twice. Unlike
// RunUntil the clock is never forced forward — virtual time advances
// only through executed events, so the final Now() of a windowed run
// equals the sequential loop's. Returns the abort error or the stall
// watchdog's diagnostic exactly like Run. Running dry, or having only
// events at or past limit, is not an error: under the window scheduler
// (Shards) deadlock is a global condition decided by the coordinator,
// not by any one partition.
//
//simlint:hotpath
func (e *Env) RunWindow(limit Time) error {
	for !e.events.empty() && e.events.peekTime() < limit {
		if err := e.step(); err != nil {
			return err
		}
	}
	return nil
}

// NextEventTime returns the time of the earliest pending event and
// whether one exists. Scheduler-context diagnostics and the window
// coordinator only.
func (e *Env) NextEventTime() (Time, bool) {
	if e.events.empty() {
		return 0, false
	}
	return e.events.peekTime(), true
}

// HeapLen returns the number of nodes the event heap holds: every
// pending event but those waiting behind the head of a Lane.
// Scheduler-context diagnostics only.
func (e *Env) HeapLen() int { return len(e.events.nodes) }

func (e *Env) blockedNames() string {
	var names []string
	for _, p := range e.procs {
		if !p.done && p.waiting {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// Proc is a simulated process: a coroutine that runs only when the
// scheduler resumes it, and always returns control by blocking on a
// kernel operation or by finishing.
type Proc struct {
	env     *Env
	name    string
	next    func() (struct{}, bool) // scheduler side: run the body to its next yield; false once it has returned
	yield   func(struct{}) bool     // process side: suspend until the next dispatch; false after Shutdown
	stop    func()                  // Shutdown: make the pending (or first) yield return false
	done    bool
	waiting bool // blocked on a condition (not a timer)
	crashed bool // removed by CrashProc; never runs again
}

// procKilled is the panic sentinel that unwinds a process body after
// Shutdown or CrashProc; the spawn wrapper recovers it.
var procKilled = new(struct{})

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Waiting reports whether the process is blocked on a condition (not a
// timer). Scheduler-context diagnostics only.
func (p *Proc) Waiting() bool { return p.waiting }

// Done reports whether the process has finished. Scheduler-context
// diagnostics only.
func (p *Proc) Done() bool { return p.done }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns current virtual time (valid while the process is running).
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a process that will begin executing body at the current
// virtual time. body runs on its own coroutine, only while dispatched.
func (e *Env) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	e.procs = append(e.procs, p)
	e.alive++
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != procKilled {
				// The panic leaves Run through next() in dispatch, whose
				// epilogue never runs: settle p here, so the caller can
				// recover and still shut the environment down.
				p.done, e.running = true, nil
				e.alive--
				panic(r)
			}
		}()
		body(p)
	})
	e.scheduleProc(e.now, p)
	return p
}

// dispatch hands the scheduler's control to p until p yields or finishes.
// Must be called from scheduler context.
//
//simlint:hotpath
func (e *Env) dispatch(p *Proc) {
	if p.crashed {
		return // stale dispatch event for a crashed process
	}
	if p.done {
		panic("sim: dispatching a finished process: " + p.name)
	}
	e.lastProgress = e.now
	e.running = p
	_, suspended := p.next()
	e.running = nil
	if !suspended {
		p.done = true
		e.alive--
	}
}

// yieldToScheduler suspends the calling process until re-dispatched.
// Must be called from p's own body while it is the running process.
func (p *Proc) yieldToScheduler() {
	if !p.yield(struct{}{}) {
		panic(procKilled)
	}
}

// Sleep advances the process by d virtual nanoseconds.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if p.crashed {
		panic(procKilled) // crashed while running; unwind here
	}
	e := p.env
	e.scheduleProc(e.now+d, p)
	p.yieldToScheduler()
}

// block suspends the process on an external condition. The waker must
// eventually call wake (via scheduling), or the run ends in deadlock.
func (p *Proc) block() {
	if p.crashed {
		panic(procKilled) // crashed while running; unwind here
	}
	p.waiting = true
	p.env.blocked++
	p.yieldToScheduler()
}

// wake schedules p to resume at the current virtual time.
// Must be called from scheduler context (e.g. inside an event or while
// another process runs).
func (p *Proc) wake() {
	if p.crashed {
		return // wakes aimed at a crashed process are dropped
	}
	if !p.waiting {
		panic("sim: waking a process that is not blocked: " + p.name)
	}
	p.waiting = false
	p.env.blocked--
	p.env.scheduleProc(p.env.now, p)
}

// A Signal is a one-shot level-triggered condition. Waiting on a fired
// signal returns immediately; firing wakes all current waiters. The
// first waiter lives in an inline slot: almost every signal (a miss
// fill, a barrier release) has exactly one, and the common case must
// not allocate a slice.
type Signal struct {
	fired  bool
	waiter *Proc   // first waiter
	more   []*Proc // rare extra waiters
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Reset rearms a fired signal for reuse. Only legal when no waiter is
// pending — i.e. strictly between one fire-and-wake cycle and the
// next, as with a node's barrier-park signal.
func (s *Signal) Reset() {
	if s.waiter != nil || len(s.more) > 0 {
		panic("sim: resetting a signal with pending waiters")
	}
	s.fired = false
}

// Wait blocks p until the signal fires.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	if s.waiter == nil {
		s.waiter = p
	} else {
		s.more = append(s.more, p)
	}
	p.block()
}

// Fire marks the signal fired and wakes all waiters. Firing twice panics:
// a signal represents the completion of exactly one transaction.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	if s.waiter != nil {
		s.waiter.wake()
		s.waiter = nil
	}
	for _, p := range s.more {
		p.wake()
	}
	s.more = nil
}

// A Counter is a counting semaphore used for "wait until N things have
// arrived" conditions (e.g. the protocol's ready_to_recv). Add may be
// called before or after WaitFor.
type Counter struct {
	have   int64
	need   int64
	waiter *Proc
}

// NewCounter returns a counter at zero.
func NewCounter() *Counter { return &Counter{} }

// Value returns the accumulated count.
func (c *Counter) Value() int64 { return c.have }

// Add increments the count and wakes a waiter whose target is reached.
func (c *Counter) Add(n int64) {
	c.have += n
	if c.waiter != nil && c.have >= c.need {
		w := c.waiter
		c.waiter = nil
		w.wake()
	}
}

// WaitFor blocks p until the counter has reached at least need since the
// counter's creation (or last Reset). Only one process may wait at a time.
func (c *Counter) WaitFor(p *Proc, need int64) {
	if c.have >= need {
		return
	}
	if c.waiter != nil {
		panic("sim: Counter supports a single waiter")
	}
	c.need = need
	c.waiter = p
	p.block()
}

// Reset returns the counter to zero. It panics if a process is waiting.
func (c *Counter) Reset() {
	if c.waiter != nil {
		panic("sim: resetting a Counter with a waiter")
	}
	c.have = 0
}
