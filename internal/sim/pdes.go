// Conservative parallel discrete-event simulation (PDES) over a set of
// per-partition Envs, run window by window on the calling goroutine.
//
// Horizons. The machine's minimum message latency L (wire latency
// plus header serialization, the same on every link) is the lookahead:
// nothing executed at time s on one partition reaches another before
// s + L. Each round gives every partition a private horizon,
//
//	n[q]       = min(q's earliest pending event, q's earliest undrained mail)
//	m          = min over q of n[q]
//	horizon[p] = min(min over q != p of n[q], m + L) + L
//
// the closed form of CMB channel clocks with L on every link: a relay
// chain of k hops adds kL, so one hop from m is as early as any event
// another partition can cause (DESIGN §13). The owner of m always has
// horizon > n, so every round makes progress; a lone partition's
// horizon is unbounded.
//
// Rounds. Run hands the mail posted in the last round to its
// destinations, computes the horizons, and runs one window on every
// partition with something before its horizon, in ascending partition
// order; a partition with nothing to do pays no window.
//
// Mail. Cross-partition sends are not scheduled directly on the
// destination heap: the destination may already have run its window
// this round. They are appended to a per-(src,dst) outbox row and
// handed to the destination at the next round by swapping row slices
// (no copying, no per-message allocation; rows keep their capacity).
// The destination drains its inbox rows into its heap via
// ScheduleDelivery just before its next window, which orders
// same-instant deliveries by the schedule-independent key (arrival,
// sent, srcNode, per-source seq) that the sequential loop uses for the
// same events. Pop order therefore does not depend on when the mail was
// injected, which is what makes the partitioned run's statistics
// bit-identical to the sequential loop's.
package sim

import (
	"fmt"
	"strings"
)

// horizonInf is the "no bound" horizon sentinel. It is far above any
// reachable virtual time but low enough that adding the lookahead
// cannot overflow; values at or past it are treated as infinite.
const horizonInf = Time(1) << 62

// mail is one cross-partition message in flight between rounds. The
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

// shardSlot is one partition's window state: its horizon, its window
// count, and its mail rows in both directions.
type shardSlot struct {
	horizon Time   // this round's private execution bound
	posted  bool   // any outbox row appended to since the last hand-off
	wins    uint64 // windows executed on this partition

	outRows [][]mail // outRows[dst]: mail posted this round
	outMin  []Time   // per-row minimum arrival (horizonInf when empty)
	inRows  [][]mail // inRows[src]: mail awaiting drain
	inMin   []Time   // per-row minimum arrival of undrained mail
}

// Shards runs P partition Envs under private conservative horizons,
// one window at a time on the goroutine that calls Run.
type Shards struct {
	envs      []*Env
	lookahead Time // minimum cross-partition message latency, every link

	slots []shardSlot

	// Each partition's earliest pending event or undrained mail,
	// refilled every round by computeHorizons.
	nmin []Time

	wdDump func() string // extra diagnostic lines for stall/deadlock errors
}

// NewShards wraps envs (one per partition, all sharing a start time)
// in a window scheduler with the given conservative lookahead: the
// minimum virtual latency of any cross-partition message. lookahead
// must be positive, or horizons could not make guaranteed progress.
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
	}
	return s
}

// SetInline does nothing: Run always executes every window on the
// calling goroutine. It is kept for callers written when a second,
// threaded execution mode existed.
func (s *Shards) SetInline(bool) {}

// Env returns partition p's environment. Interact with it only between
// Run calls or before Run (e.g. to Spawn processes).
func (s *Shards) Env(p int) *Env { return s.envs[p] }

// Partitions returns the partition count.
func (s *Shards) Partitions() int { return len(s.envs) }

// SetWatchdog arms each partition's stall watchdog (see Env.SetWatchdog)
// and records dump as the extra diagnostic for stall and deadlock
// errors. The per-Env dump stays nil: when a partition stalls, Run
// appends every partition's blocked-process state, so a
// cross-partition deadlock is diagnosable from any one partition's
// error.
func (s *Shards) SetWatchdog(horizon Time, dump func() string) {
	s.wdDump = dump
	for _, env := range s.envs {
		env.SetWatchdog(horizon, nil)
	}
}

// Post queues a cross-partition delivery: fn(arg) runs on partition
// dstPart's Env at virtual time arrival. Called while partition
// srcPart's window executes; arrival must be at or past every horizon
// the destination could be running (guaranteed by the lookahead if
// sent is inside srcPart's window). sent, srcNode, and seq are the
// delivery key the destination heap orders by — the same key the
// source would pass to ScheduleDelivery for an intra-partition send.
//
//simlint:hotpath
func (s *Shards) Post(srcPart, dstPart int, arrival, sent Time, srcNode int, seq uint32, fn func(any), arg any) {
	sl := &s.slots[srcPart]
	//simlint:ignore hotalloc -- outbox rows grow to their high-water mark once; hand-offs swap the slices and drains truncate to length zero, so steady state reuses capacity
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
// The common case is a pointer swap with the destination's drained
// (empty) row — zero copying, both slices keep their grown capacity.
// Only when the destination has not drained the previous batch (it sat
// out a round with nothing before its horizon) are the values appended
// behind it.
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
				//simlint:ignore hotalloc -- append fallback only when the destination sat out a round without draining; bounded by the same high-water mark as the rows themselves
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
// ScheduleDelivery, just before p's window. The heap orders
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
// pending — the termination condition.
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

// Run drives the simulation to completion, round after round: hand the
// mail over, compute the horizons, and run the window of every
// partition with something before its horizon, in ascending partition
// order. It returns nil when every heap and mailbox drains with no
// process blocked; a deadlock error (with all partitions'
// blocked-process state) otherwise; or the first failing window's
// error, annotated with every partition's state. Run must not be
// called twice on the same Shards.
func (s *Shards) Run() error {
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

// Windows returns the window executions summed over partitions; a
// partition with nothing before its horizon runs no window. Read only
// after Run returns.
func (s *Shards) Windows() uint64 {
	var n uint64
	for i := range s.slots {
		n += s.slots[i].wins
	}
	return n
}

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
// between windows or after Run returns.
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
// Must be called after Run has returned; the shards are unusable
// afterwards.
func (s *Shards) Shutdown() {
	for _, env := range s.envs {
		env.Shutdown()
	}
}
