// Conservative parallel discrete-event simulation (PDES) over a set of
// per-partition Envs.
//
// Horizons. The machine's minimum message latency L (wire latency
// plus header serialization, the same on every link) is the lookahead:
// nothing executed at time s on one partition reaches another before
// s + L. Each epoch gives every partition a private horizon,
//
//	n[q]       = min(q's earliest pending event, q's earliest undrained mail)
//	m          = min over q of n[q]
//	horizon[p] = min(min over q != p of n[q], m + L) + L
//
// the closed form of CMB channel clocks with L on every link: a relay
// chain of k hops adds kL, so one hop from m is as early as any event
// another partition can cause (DESIGN §13). The owner of m always has
// horizon > n, so every epoch makes progress; a lone partition's
// horizon is unbounded.
//
// Epochs. Workers meet at a coordinator-free sense-reversing barrier
// (an atomic arrival counter plus an epoch counter whose parity is the
// sense). The LAST worker to arrive runs the serial boundary phase —
// error collection, mailbox hand-off, horizon computation, and
// termination detection — then flips the epoch to release the others;
// waiters spin briefly and then park on a per-worker channel, so an
// idle partition costs one channel send per epoch, not a coordinator
// handshake. Stretches where only one partition is active (the
// effectively sequential phases of a program) are executed inline by
// the boundary runner itself, window after window, without releasing
// the barrier at all: a sequential phase pays zero handoffs.
//
// Mail. Cross-partition sends are not scheduled directly on the
// destination heap (that would race with the destination worker). They
// are appended to a per-(src,dst) outbox row — single writer, the
// source worker — and handed to the destination at the boundary by
// swapping row slices (no copying, no per-message allocation; rows
// keep their capacity across epochs). Each destination drains its own
// inbox rows in parallel after release via ScheduleDelivery, which
// orders same-instant deliveries by the schedule-independent key
// (arrival, sent, srcNode, per-source seq) that the sequential loop
// uses for the same events. Pop order therefore does not depend on
// which worker finished first or on when the mail was injected, which
// is what makes the parallel run's statistics bit-identical to the
// sequential loop's.
package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
)

// horizonInf is the "no bound" horizon sentinel. It is far above any
// reachable virtual time but low enough that adding the lookahead
// cannot overflow; values at or past it are treated as infinite.
const horizonInf = Time(1) << 62

// mail is one cross-partition message in flight between epochs. The
// (arrival, sent, srcNode, seq) tuple is the delivery key handed to
// ScheduleDelivery at injection — identical to the key the source
// would have used scheduling the delivery directly.
type mail struct {
	arrival Time      // virtual delivery time at the destination
	sent    Time      // virtual time the source executed the send
	srcNode int       // simulated source node
	seq     uint32    // per-source message sequence (caller-assigned)
	afn     func(any) // delivery function (closure-free, as ScheduleArg)
	arg     any
}

// shardSlot is one partition's hot state. Each partition's worker
// writes its own slot (err after a window, outbox rows and mins during
// it, inbox rows while draining); the boundary phase reads and writes
// slots only while every worker is stopped at the barrier. The
// trailing pad keeps neighboring partitions' fields off one cache
// line, so a worker hammering its outbox min never invalidates the
// line another worker's horizon lives on.
type shardSlot struct {
	horizon Time   // this epoch's private execution bound (boundary-written)
	err     error  // last window's error (worker-written, boundary-read)
	posted  bool   // any outbox row appended to since the last boundary
	wins    uint64 // windows executed on this partition (worker-owned)

	outRows [][]mail // outRows[dst]: mail posted this epoch; writer = this partition
	outMin  []Time   // per-row minimum arrival (horizonInf when empty)
	inRows  [][]mail // inRows[src]: mail awaiting drain; writer = this partition (+ boundary)
	inMin   []Time   // per-row minimum arrival of undrained mail

	_pad [64]byte // cache-line isolation between adjacent slots
}

// parkSlot is one worker's barrier wait state, padded apart from its
// neighbors for the same false-sharing reason as shardSlot.
//
//simlint:concurrent -- the park flag and wake channel implement the barrier's spin-then-park wait; every access is confined to awaitEpoch and release, and the six-app differential suite runs them under -race
type parkSlot struct {
	// parked holds the epoch number the worker is parked (or about to
	// park) for, 0 when not parked. Storing the epoch rather than a
	// boolean is what makes the hand-off safe when a released worker
	// laps the releaser: it can finish its next window and re-park for
	// epoch e+2 while the epoch-e+1 wake loop is still scanning, and a
	// boolean flag would let that stale scan claim the new park and
	// wake the worker one epoch early.
	parked atomic.Uint64
	wake   chan struct{} // buffered(1) token from the releasing worker
	_pad   [40]byte
}

// Shards runs P partition Envs under private conservative horizons.
// All methods except Post must be called from the goroutine that calls
// Run (or before Run); Post is called by partition workers while their
// window executes, each writing only its own partition's outbox rows.
//
//simlint:concurrent -- the barrier counters and per-worker park slots are the epoch hand-off; all other fields are single-writer by partition or touched only in the serial boundary phase with every worker stopped at the barrier, proven under -race by the differential suites
type Shards struct {
	envs      []*Env
	lookahead Time // minimum cross-partition message latency, every link

	slots []shardSlot

	// Boundary-phase scratch, sized once at construction: each
	// partition's earliest pending event or undrained mail.
	nmin []Time

	// Sense-reversing barrier: arrivals counts workers into the epoch
	// boundary; the last one runs the serial phase and bumps epoch (the
	// release — its parity is the classic reversing sense). Both sit in
	// padded slots so barrier traffic stays off the data lines.
	arrivals atomic.Int32
	_pad0    [56]byte
	epoch    atomic.Uint64
	_pad1    [56]byte
	park     []parkSlot

	// stop/stopErr are the boundary phase's termination verdict,
	// published before the epoch flip that releases the workers.
	stop    bool
	stopErr error

	// inline: run the whole simulation on the calling goroutine, in
	// partition order, with no barrier and no workers. Chosen at
	// construction when the host cannot run two workers at once
	// (GOMAXPROCS < 2): the barrier would buy no overlap, only latency.
	// The simulated results are identical either way — the delivery-key
	// heap order makes execution independent of epoch structure — so
	// this is a wall-clock decision only, and SetInline allows tests to
	// force either path.
	inline bool

	wdDump func() string // extra diagnostic lines for stall/deadlock errors
}

// NewShards wraps envs (one per partition, all sharing a start time)
// in an epoch scheduler with the given conservative lookahead: the
// minimum virtual latency of any cross-partition message. lookahead
// must be positive, or horizons could not make guaranteed progress.
//
//simlint:concurrent -- allocates the per-worker park channels; the barrier itself lives in runWorker/awaitEpoch/release
func NewShards(envs []*Env, lookahead Time) *Shards {
	if len(envs) == 0 {
		panic("sim: NewShards with no partitions")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewShards lookahead must be positive, got %d", lookahead))
	}
	p := len(envs)
	s := &Shards{
		envs:      envs,
		lookahead: lookahead,
		slots:     make([]shardSlot, p),
		nmin:      make([]Time, p),
		park:      make([]parkSlot, p),
	}
	for i := range s.slots {
		sl := &s.slots[i]
		sl.outRows = make([][]mail, p)
		sl.outMin = make([]Time, p)
		sl.inRows = make([][]mail, p)
		sl.inMin = make([]Time, p)
		for j := 0; j < p; j++ {
			sl.outMin[j] = horizonInf
			sl.inMin[j] = horizonInf
		}
		s.park[i].wake = make(chan struct{}, 1)
	}
	s.inline = runtime.GOMAXPROCS(0) < 2
	return s
}

// SetInline overrides the automatic inline decision (see the inline
// field). Simulated results do not depend on it.
func (s *Shards) SetInline(v bool) { s.inline = v }

// Env returns partition p's environment. Interact with it only between
// Run calls or before Run (e.g. to Spawn processes).
func (s *Shards) Env(p int) *Env { return s.envs[p] }

// Partitions returns the partition count.
func (s *Shards) Partitions() int { return len(s.envs) }

// SetWatchdog arms each partition's stall watchdog (see Env.SetWatchdog)
// and records dump as the extra diagnostic for stall and deadlock
// errors. The per-Env dump stays nil: when a partition stalls, the
// boundary phase appends every partition's blocked-process state, so a
// cross-partition deadlock is diagnosable from any one partition's
// error.
func (s *Shards) SetWatchdog(horizon Time, dump func() string) {
	s.wdDump = dump
	for _, env := range s.envs {
		env.SetWatchdog(horizon, nil)
	}
}

// Post queues a cross-partition delivery: fn(arg) runs on partition
// dstPart's Env at virtual time arrival. Called by partition srcPart's
// worker while its window executes; arrival must be at or past every
// horizon the destination could be running (guaranteed by the
// lookahead if sent is inside srcPart's window). sent, srcNode, and seq
// are the delivery key the destination heap orders by — the same key
// the source would pass to ScheduleDelivery for an intra-partition
// send.
//
//simlint:hotpath
func (s *Shards) Post(srcPart, dstPart int, arrival, sent Time, srcNode int, seq uint32, fn func(any), arg any) {
	sl := &s.slots[srcPart]
	//simlint:ignore hotalloc -- outbox rows grow to their high-water mark once; boundary hand-offs swap the slices and drains truncate to length zero, so steady state reuses capacity
	sl.outRows[dstPart] = append(sl.outRows[dstPart], mail{
		arrival: arrival,
		sent:    sent,
		srcNode: srcNode,
		seq:     seq,
		afn:     fn,
		arg:     arg,
	})
	if arrival < sl.outMin[dstPart] {
		sl.outMin[dstPart] = arrival
	}
	sl.posted = true
}

// moveMail hands every non-empty outbox row to its destination's inbox.
// Serial (boundary phase only). The common case is a pointer swap with
// the destination's drained (empty) row — zero copying, both slices
// keep their grown capacity. Only when the destination has not drained
// the previous batch (possible during the boundary's inline
// single-active stretches) are the values appended behind it.
//
//simlint:hotpath
func (s *Shards) moveMail() {
	p := len(s.envs)
	for src := 0; src < p; src++ {
		sl := &s.slots[src]
		if !sl.posted {
			continue
		}
		sl.posted = false
		for dst := 0; dst < p; dst++ {
			row := sl.outRows[dst]
			if len(row) == 0 {
				continue
			}
			dl := &s.slots[dst]
			if len(dl.inRows[src]) == 0 {
				dl.inRows[src], sl.outRows[dst] = row, dl.inRows[src][:0]
			} else {
				//simlint:ignore hotalloc -- append fallback only when the destination sat out an inline stretch without draining; bounded by the same high-water mark as the rows themselves
				dl.inRows[src] = append(dl.inRows[src], row...)
				sl.outRows[dst] = row[:0]
			}
			if sl.outMin[dst] < dl.inMin[src] {
				dl.inMin[src] = sl.outMin[dst]
			}
			sl.outMin[dst] = horizonInf
		}
	}
}

// drainInbox injects partition p's undrained mail into its Env via
// ScheduleDelivery. Runs on p's worker after release (in parallel with
// other partitions' drains — every row here is owned by p), or
// serially in the boundary's single-active stretch. The heap orders
// same-instant deliveries by the (sent, srcNode, seq) key, so the
// injection order across rows is immaterial.
//
//simlint:hotpath
func (s *Shards) drainInbox(p int) {
	sl := &s.slots[p]
	env := s.envs[p]
	for src := range sl.inRows {
		row := sl.inRows[src]
		if len(row) == 0 {
			continue
		}
		for i := range row {
			m := &row[i]
			if m.arrival < env.now {
				panic(fmt.Sprintf("sim: pdes lookahead violated: mail from node %d sent t=%d arrives t=%d behind partition clock t=%d",
					m.srcNode, m.sent, m.arrival, env.now))
			}
			env.ScheduleDelivery(m.arrival, m.sent, m.srcNode, m.seq, m.afn, m.arg)
			m.afn = nil
			m.arg = nil // drop the reference; the heap owns it now
		}
		sl.inRows[src] = row[:0]
		sl.inMin[src] = horizonInf
	}
}

// computeHorizons fills nmin (each partition's earliest pending event
// or undrained mail) and writes every slot's horizon by the closed form
// in the package comment. Returns false when no partition has anything
// pending — the termination condition. Serial (boundary phase only).
//
//simlint:hotpath
func (s *Shards) computeHorizons() bool {
	// m is the least n, at partition first; m2 the least n of the rest.
	m, m2, first := horizonInf, horizonInf, -1
	for q, env := range s.envs {
		n := horizonInf
		if t, ok := env.NextEventTime(); ok {
			n = t
		}
		for _, t := range s.slots[q].inMin {
			n = min(n, t)
		}
		s.nmin[q] = n
		if n < m {
			m, m2, first = n, m, q
		} else {
			m2 = min(m2, n)
		}
	}
	if m >= horizonInf {
		return false
	}
	for p := range s.slots {
		h := horizonInf
		if len(s.envs) > 1 {
			others := m // the least n over q != p
			if p == first {
				others = m2
			}
			h = min(others, m+s.lookahead) + s.lookahead
		}
		s.slots[p].horizon = h
	}
	return true
}

// fail records the deterministic run verdict for a partition error:
// the lowest-indexed failing partition wins, annotated with every
// partition's state. Serial (boundary phase only).
func (s *Shards) fail(part int, err error) {
	s.stop = true
	s.stopErr = fmt.Errorf("sim: partition %d: %w\n%s", part, err, s.dumpAll())
}

// boundary is the serial epoch-boundary phase, run by the last worker
// to arrive at the barrier while every other worker waits: collect
// window errors (lowest partition wins, a deterministic choice), hand
// mail over, compute horizons, and detect termination. Stretches where
// exactly one partition is active are executed right here, window
// after window, without releasing the barrier — an effectively
// sequential phase pays zero handoffs.
func (s *Shards) boundary() {
	for p := range s.slots {
		if err := s.slots[p].err; err != nil {
			s.fail(p, err)
			return
		}
	}
	s.moveMail()
	for {
		if !s.computeHorizons() {
			if s.totalBlocked() > 0 {
				s.stop, s.stopErr = true, s.deadlockError()
			} else {
				s.stop = true
			}
			return
		}
		active, last := 0, -1
		for p := range s.envs {
			if s.nmin[p] < s.slots[p].horizon {
				active++
				last = p
			}
		}
		if active != 1 {
			// Two or more active partitions: release the barrier and let
			// the workers run the epoch in parallel. (Zero is impossible:
			// the global-minimum owner's horizon always exceeds its next
			// event by at least the lookahead.)
			return
		}
		s.drainInbox(last)
		s.slots[last].wins++
		if err := s.envs[last].RunWindow(s.slots[last].horizon); err != nil {
			s.fail(last, err)
			return
		}
		s.moveMail()
	}
}

// runInline drives the whole simulation on the calling goroutine: the
// boundary logic in a loop, with every active partition's window run
// in ascending partition order. Bit-identical to the worker path by
// the delivery-key argument.
func (s *Shards) runInline() error {
	for {
		s.moveMail()
		if !s.computeHorizons() {
			if s.totalBlocked() > 0 {
				return s.deadlockError()
			}
			return nil
		}
		for p, env := range s.envs {
			if s.nmin[p] >= s.slots[p].horizon {
				continue
			}
			s.drainInbox(p)
			s.slots[p].wins++
			if err := env.RunWindow(s.slots[p].horizon); err != nil {
				return fmt.Errorf("sim: partition %d: %w\n%s", p, err, s.dumpAll())
			}
		}
	}
}

// spinIters bounds the barrier's busy-wait before a worker parks on
// its channel. The spin absorbs the common case — all workers reaching
// the barrier within a window's tail — without a kernel transition;
// the later iterations yield the processor so an oversubscribed host
// (more partitions than cores) cannot starve the boundary runner.
const spinIters = 128

// awaitEpoch blocks worker p until the epoch counter moves past cur:
// spin briefly, then park on the worker's wake channel with the
// awaited epoch recorded in the park flag. The releasing worker flips
// the epoch first and then claims exactly the flags tagged with the
// new epoch, so a worker that observes the old epoch after setting its
// flag is guaranteed a wake token (sequentially consistent atomics
// order the flag write before the flip-check on one side and the flip
// before the flag-claim on the other), and a stale wake scan can never
// claim a park armed for a later epoch.
//
//simlint:concurrent -- the spin-then-park wait side of the epoch barrier; the epoch-tagged CAS handshake with release ensures no lost or premature wakeup, exercised under -race by the differential suites
func (s *Shards) awaitEpoch(p int, cur uint64) {
	for i := 0; i < spinIters; i++ {
		if s.epoch.Load() != cur {
			return
		}
		if i >= 32 {
			runtime.Gosched()
		}
	}
	ps := &s.park[p]
	target := cur + 1
	ps.parked.Store(target)
	if s.epoch.Load() != cur {
		// Released between the spin and the flag: either un-park
		// ourselves, or — if the releaser already claimed the flag —
		// consume the token it is committed to sending.
		if ps.parked.CompareAndSwap(target, 0) {
			return
		}
	}
	<-ps.wake
}

// release opens the next epoch: reset the arrival counter, flip the
// epoch (the sense reversal), and hand a token to every worker parked
// for the epoch just opened.
//
//simlint:concurrent -- the release side of the epoch barrier: counter reset, sense flip, and parked-worker wakeups
func (s *Shards) release() {
	s.arrivals.Store(0)
	next := s.epoch.Add(1)
	for i := range s.park {
		if s.park[i].parked.CompareAndSwap(next, 0) {
			s.park[i].wake <- struct{}{}
		}
	}
}

// arrive counts the worker into the barrier and reports whether it was
// the last one in — the one that must run the boundary phase and
// release the rest.
//
//simlint:concurrent -- the arrival side of the epoch barrier; the atomic add's ordering hands every worker's window writes to the boundary runner
func (s *Shards) arrive() bool {
	return int(s.arrivals.Add(1)) == len(s.envs)
}

// runWorker is one partition's epoch loop: meet the barrier (running
// the serial boundary phase if last in), check the run verdict, drain
// inbound mail, execute one window up to the private horizon, repeat.
// Workers never touch another partition's state outside the barrier.
func (s *Shards) runWorker(p int) error {
	cur := uint64(0)
	for {
		if s.arrive() {
			s.boundary()
			s.release()
		} else {
			s.awaitEpoch(p, cur)
		}
		cur++
		if s.stop {
			return s.stopErr
		}
		s.drainInbox(p)
		s.slots[p].wins++
		s.slots[p].err = s.envs[p].RunWindow(s.slots[p].horizon)
	}
}

// Run drives the simulation to completion and returns nil when every
// heap and mailbox drains with no process blocked; a deadlock error
// (with all partitions' blocked-process state) otherwise; or the
// lowest-indexed partition's window error — a deterministic choice —
// annotated with every partition's state. In worker mode the calling
// goroutine doubles as partition 0's worker; Run must not be called
// twice on the same Shards.
//
//simlint:concurrent -- spawns the P-1 partition worker goroutines; they synchronize exclusively through the epoch barrier and exit on its stop verdict before Run returns
func (s *Shards) Run() error {
	if s.inline {
		return s.runInline()
	}
	for i := 1; i < len(s.envs); i++ {
		go func(p int) { _ = s.runWorker(p) }(i)
	}
	return s.runWorker(0)
}

// Windows returns the total window executions summed over partitions
// (idle windows included — a released worker with nothing before its
// horizon still pays the call). Read only after Run returns.
func (s *Shards) Windows() uint64 {
	var n uint64
	for i := range s.slots {
		n += s.slots[i].wins
	}
	return n
}

// Handoffs returns how many barrier releases the run performed — the
// epochs that actually paid a parallel hand-off. Inline stretches and
// inline mode contribute zero. Read only after Run returns.
//
//simlint:concurrent -- reads the barrier's epoch counter after every worker has exited; post-Run there is no concurrent writer
func (s *Shards) Handoffs() uint64 { return s.epoch.Load() }

// totalBlocked sums condition-blocked processes across partitions.
func (s *Shards) totalBlocked() int {
	n := 0
	for _, env := range s.envs {
		n += env.blocked
	}
	return n
}

func (s *Shards) deadlockError() error {
	msg := fmt.Sprintf("sim: deadlock at t=%d: %d process(es) blocked forever across %d partition(s)\n%s",
		s.Now(), s.totalBlocked(), len(s.envs), s.dumpAll())
	return fmt.Errorf("%s", msg)
}

// dumpAll renders every partition's clock and blocked-process state
// (reusing blockedNames), plus the external dump hook if set. Called
// only from the boundary phase or after Run returns, with every worker
// stopped.
func (s *Shards) dumpAll() string {
	var b strings.Builder
	b.WriteString("partition state:")
	for p, env := range s.envs {
		fmt.Fprintf(&b, "\n  partition %d: t=%dns, %d/%d process(es) blocked", p, env.now, env.blocked, env.alive)
		if env.blocked > 0 {
			fmt.Fprintf(&b, ": %s", env.blockedNames())
		}
	}
	if s.wdDump != nil {
		if d := s.wdDump(); d != "" {
			b.WriteString("\n")
			b.WriteString(d)
		}
	}
	return b.String()
}

// Now returns the maximum partition clock: the virtual time the merged
// run has reached. Matches the sequential loop's final Now() because
// window execution never forces a clock past its last executed event.
func (s *Shards) Now() Time {
	max := s.envs[0].now
	for _, env := range s.envs[1:] {
		if env.now > max {
			max = env.now
		}
	}
	return max
}

// Events returns the event-dispatch counters summed across partitions.
func (s *Shards) Events() EventStats {
	var total EventStats
	for _, env := range s.envs {
		st := env.Events()
		total.Dispatches += st.Dispatches
		total.ArgEvents += st.ArgEvents
		total.FnEvents += st.FnEvents
	}
	return total
}

// Shutdown force-terminates every partition's unfinished processes.
// Must be called after Run has returned (the workers exit with the
// boundary phase's stop verdict before Run does); the shards are
// unusable afterwards.
func (s *Shards) Shutdown() {
	for _, env := range s.envs {
		env.Shutdown()
	}
}
