package compiler

import (
	"fmt"
	"slices"
	"sync"
)

// Plan is the cluster-wide part of one loop instance's communication:
// which live read transfers partial-redundancy elimination skips this
// time, and how many live transfers are left over all nodes. The counts
// decide which barriers the instance takes, so every node must see the
// same ones; a node's own part of the instance is its View.
type Plan struct {
	Sched      *Schedule
	LiveReads  int      // live reads left after PRE, over all nodes
	LiveWrites int      // live writes, over all nodes (PRE never skips one)
	skip       []uint64 // bit i set: Reads[i] is skipped; nil when none is
}

// Skips reports whether PRE skips read transfer i in this instance.
func (pl *Plan) Skips(i int32) bool {
	return pl.skip != nil && pl.skip[i>>6]&(1<<(uint(i)&63)) != 0
}

// LiveReadIndexes returns every live read of the plan's schedule,
// ascending, including the ones this instance skips.
func (pl *Plan) LiveReadIndexes() []int32 { return pl.Sched.liveIndex().liveReads }

// Planner hands all executors of one attempt the same Plan for the same
// loop instance. Every node executes the same sequence of loop
// instances, so instance k's plan is a function of the schedules of
// instances 0..k alone: the first node to reach k computes it and the
// others read it. That holds wherever the nodes are relative to each
// other — executors of different PDES partitions arrive concurrently
// (hence the lock), and after a crash each executor ghost-walks the
// whole sequence from instance 0 on its own (hence every instance's
// plan is kept for the length of the attempt).
//
// A redundant read (see markRedundant) is skipped once its section has
// been delivered, by this or an earlier loop: delivered holds the keys
// of the sections delivered by the instances planned so far. Write
// transfers are never redundant and take no part.
type Planner struct {
	mu        sync.Mutex
	pre       bool
	delivered map[string]bool
	plans     []*Plan
	// last is the most recent plan with a skip set of each schedule. A
	// loop in steady state skips the same transfers every time, so its
	// instances share one.
	last    map[*Schedule]*Plan
	scratch []uint64
}

// NewPlanner returns the planner for one attempt at the given level.
func NewPlanner(level Level) *Planner {
	return &Planner{
		pre:       level >= OptPRE,
		delivered: map[string]bool{},
		last:      map[*Schedule]*Plan{},
	}
}

// Plans returns the plans of the loop instances planned so far, in
// instance order.
func (pn *Planner) Plans() []*Plan {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	return slices.Clone(pn.plans)
}

// At returns the plan of loop instance k, whose schedule the caller
// instantiated as s. A node asks for instance k only after asking for
// every earlier one.
func (pn *Planner) At(k int, s *Schedule) *Plan {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	switch {
	case k > len(pn.plans):
		panic(fmt.Sprintf("compiler: plan of loop instance %d requested when only %d are planned", k, len(pn.plans)))
	case k == len(pn.plans):
		pn.plans = append(pn.plans, pn.plan(s))
	case pn.plans[k].Sched != s:
		panic(fmt.Sprintf("compiler: two nodes instantiated different schedules for loop instance %d", k))
	}
	return pn.plans[k]
}

func (pn *Planner) plan(s *Schedule) *Plan {
	x := s.liveIndex()
	base := &x.base
	if !pn.pre || len(x.liveReads) == 0 {
		return base
	}
	pn.scratch = append(pn.scratch[:0], make([]uint64, (len(s.Reads)+63)/64)...)
	skip, left := pn.scratch, base.LiveReads
	for _, i := range x.liveReads {
		t := &s.Reads[i]
		if t.Redundant && pn.delivered[t.Key] {
			skip[i>>6] |= 1 << (uint(i) & 63)
			left--
			continue
		}
		pn.delivered[t.Key] = true
	}
	if left == base.LiveReads {
		return base
	}
	if pl := pn.last[s]; pl != nil && slices.Equal(pl.skip, skip) {
		return pl
	}
	pl := &Plan{Sched: s, LiveReads: left, LiveWrites: base.LiveWrites, skip: slices.Clone(skip)}
	pn.last[s] = pl
	return pl
}
