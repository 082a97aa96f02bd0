package compiler

import (
	"fmt"
	"slices"
	"sync"
)

// Plan is the cluster-wide part of one loop instance's communication:
// which live read transfers partial-redundancy elimination skips this
// time, how many live transfers are left over all nodes, and whether the
// loop's previous instance had this same schedule. These decide which
// barriers the instance takes (see Emitter), so every node must see the
// same ones; a node's own part of the instance is its View.
type Plan struct {
	Sched      *Schedule
	LiveReads  int      // live reads left after PRE, over all nodes
	LiveWrites int      // live writes, over all nodes (PRE never skips one)
	Repeat     bool     // the loop's last instance was planned on Sched too
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
// instances, so instance k's plan is a function of the loops and
// schedules of instances 0..k alone: the first node to reach k computes
// it and the others read it. That holds wherever the nodes are relative
// to each other — executors of different PDES partitions arrive
// concurrently (hence the lock), and after a crash each executor
// ghost-walks the whole sequence from instance 0 on its own (hence
// every instance's plan is kept for the length of the attempt).
//
// A redundant read (see markRedundant) is skipped once its section has
// been delivered, by this or an earlier loop: delivered holds the keys
// of the sections delivered by the instances planned so far. Write
// transfers are never redundant and take no part.
type Planner struct {
	mu        sync.Mutex
	pre       bool
	delivered map[string]bool
	planned   []Instance
	// lastSched is the schedule each loop was last planned on.
	lastSched map[any]*Schedule
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
		lastSched: map[any]*Schedule{},
		last:      map[*Schedule]*Plan{},
	}
}

// Instance is one planned loop instance: the loop's key and the plan.
type Instance struct {
	Key  any
	Plan *Plan
}

// Instances returns the loop instances planned so far, in order.
func (pn *Planner) Instances() []Instance {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	return slices.Clone(pn.planned)
}

// At returns the plan of loop instance k, an instance of the loop
// identified by key whose schedule the caller instantiated as s. A node
// asks for instance k only after asking for every earlier one.
func (pn *Planner) At(k int, key any, s *Schedule) *Plan {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	switch {
	case k > len(pn.planned):
		panic(fmt.Sprintf("compiler: plan of loop instance %d requested when only %d are planned", k, len(pn.planned)))
	case k == len(pn.planned):
		pn.planned = append(pn.planned, Instance{key, pn.plan(key, s)})
	case pn.planned[k].Plan.Sched != s:
		panic(fmt.Sprintf("compiler: two nodes instantiated different schedules for loop instance %d", k))
	}
	return pn.planned[k].Plan
}

func (pn *Planner) plan(key any, s *Schedule) *Plan {
	repeat := pn.lastSched[key] == s
	pn.lastSched[key] = s
	x := s.liveIndex()
	base := &x.first
	if repeat {
		base = &x.again
	}
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
	if pl := pn.last[s]; pl != nil && pl.Repeat == repeat && slices.Equal(pl.skip, skip) {
		return pl
	}
	pl := &Plan{Sched: s, LiveReads: left, LiveWrites: base.LiveWrites, Repeat: repeat, skip: slices.Clone(skip)}
	pn.last[s] = pl
	return pl
}
