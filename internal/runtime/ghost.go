package runtime

import (
	"fmt"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sim"
)

// ghostState is an executor's fast-forward after a crash. A restored
// run replays the program's control flow from the beginning with every
// side effect suppressed — no protocol calls, no compute cost, no
// cluster barriers — while counting the synchronization epochs the
// original run completed. When the local count reaches resumeEpoch (the
// checkpoint's epoch) the executor flips live, possibly in the middle of
// a loop's communication sequence, and continues exactly where the
// restored protocol state says the machine stands. Replicated executor
// state (scalars) and the attempt's shared plans are reconstructed by
// the walk itself; reduction results are replayed from the checkpoint's
// journal instead of being recomputed.
type ghostState struct {
	ghost       bool
	ghostEpoch  int64
	resumeEpoch int64
	journal     []float64 // completed reductions, generation order
	ghostGen    int       // next journal entry to replay
}

// setResume arms ghost fast-forward up to the checkpoint epoch.
func (e *exec) setResume(epoch int64, journal []float64) {
	if epoch <= 0 {
		return // initial-state checkpoint: run live from the start
	}
	e.ghost = true
	e.resumeEpoch = epoch
	e.journal = journal
}

// barrier enters a cluster-wide barrier — or, while ghosting, merely
// counts the epoch the original run completed here.
func (e *exec) barrier(p *sim.Proc) {
	if e.ghost {
		e.ghostTick()
		return
	}
	e.cluster.Barrier(p, e.n)
}

func (e *exec) ghostTick() {
	e.ghostEpoch++
	if e.ghostEpoch >= e.resumeEpoch {
		e.ghost = false
	}
}

// ghostReduce replays a completed reduction from the checkpoint
// journal and counts its epoch.
func (e *exec) ghostReduce() float64 {
	if e.ghostGen >= len(e.journal) {
		panic(fmt.Sprintf("runtime: ghost replay needs reduction %d but the checkpoint journal holds %d", e.ghostGen, len(e.journal)))
	}
	v := e.journal[e.ghostGen]
	e.ghostGen++
	e.ghostTick()
	return v
}

// calls is the sink for the next walk of the communication sequence.
func (e *exec) calls() compiler.Calls {
	if e.ghost {
		return &ghostCalls{noCalls{}, e}
	}
	return e.live
}

// ghostCalls is the sink of a walk that starts while ghosting: the same
// sequence, in which a barrier counts its epoch and every other call goes
// nowhere — its effect is already in the restored state — until a
// barrier flips the executor live. From there on the checkpoint holds
// the state before the next call, and the rest of the walk goes to the
// live sink.
type ghostCalls struct {
	compiler.Calls // where the calls go: nowhere, then to the live sink
	e              *exec
}

func (g *ghostCalls) Barrier() {
	if !g.e.ghost {
		g.Calls.Barrier()
		return
	}
	if g.e.ghostTick(); !g.e.ghost {
		g.Calls = g.e.live
	}
}

// noCalls is the sink that drops everything.
type noCalls struct{}

func (noCalls) MkWritable([]protocol.BlockRun)         {}
func (noCalls) ImplicitWritable([]protocol.BlockRun)   {}
func (noCalls) ImplicitInvalidate([]protocol.BlockRun) {}
func (noCalls) Expect(int)                             {}
func (noCalls) Send(*compiler.Transfer)                {}
func (noCalls) Flush(*compiler.Transfer)               {}
func (noCalls) ReadyToRecv()                           {}
func (noCalls) Barrier()                               {}
func (noCalls) Drain()                                 {}
