package runtime

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/trace"
)

// crashRun executes one app with the given fault config (crash specs
// included) at the given opt level, with the barrier audit armed.
func crashRun(t *testing.T, a *apps.App, f config.Faults, lvl compiler.Level) *Result {
	t.Helper()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default().WithNodes(4).WithFaults(f)
	res, err := Run(prog, Options{Machine: mc, Opt: lvl, Check: true})
	if err != nil {
		t.Fatalf("%s under faults %+v: %v", a.Name, f, err)
	}
	return res
}

// TestCrashRecoveryMatchesFaultFree kills a node at a barrier epoch and
// demands the recovered run's final arrays be bit-identical to the
// fault-free run: barrier-consistent rollback plus ghost replay must be
// invisible in the data.
func TestCrashRecoveryMatchesFaultFree(t *testing.T) {
	a := apps.Jacobi()
	ref := crashRun(t, a, config.Faults{}, compiler.OptRTElim)
	refArrays := map[string][]float64{}
	for _, name := range a.CheckArrays {
		refArrays[name] = ref.ArrayData(name)
	}

	f := config.Faults{Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}}
	res := crashRun(t, a, f, compiler.OptRTElim)
	if res.Recoveries != 1 {
		t.Fatalf("expected exactly one detected crash and recovery, got %d", res.Recoveries)
	}
	if res.CheckpointsTaken == 0 || res.CheckpointBytes == 0 {
		t.Fatalf("recovery ran without checkpoints (taken=%d bytes=%d)",
			res.CheckpointsTaken, res.CheckpointBytes)
	}
	for _, name := range a.CheckArrays {
		got, want := res.ArrayData(name), refArrays[name]
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s[%d] = %v after recovery, want %v (bit-identical)",
					name, k, got[k], want[k])
			}
		}
	}
}

// TestCrashAtTimeRecovers triggers the crash by simulated time instead
// of epoch, exercising the scheduled-injection path and the
// retransmit-exhaustion detector under mid-epoch death.
func TestCrashAtTimeRecovers(t *testing.T) {
	a := apps.Jacobi()
	ref := crashRun(t, a, config.Faults{}, compiler.OptBulk)
	want := ref.ArrayData(a.CheckArrays[0])

	f := config.Faults{Crashes: []config.CrashSpec{{Node: 1, At: 2 * sim.Millisecond}}}
	res := crashRun(t, a, f, compiler.OptBulk)
	if res.Recoveries != 1 {
		t.Fatalf("expected one recovery, got %d", res.Recoveries)
	}
	got := res.ArrayData(a.CheckArrays[0])
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s[%d] = %v after timed-crash recovery, want %v",
				a.CheckArrays[0], k, got[k], want[k])
		}
	}
}

// TestCrashRunsAreDeterministic reruns an identical crash configuration
// and demands the same elapsed time and the same recovery accounting.
func TestCrashRunsAreDeterministic(t *testing.T) {
	a := apps.Jacobi()
	f := config.Faults{Crashes: []config.CrashSpec{{Node: 3, Epoch: 7}}}
	r1 := crashRun(t, a, f, compiler.OptRTElim)
	r2 := crashRun(t, a, f, compiler.OptRTElim)
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("elapsed %d vs %d: crash recovery not deterministic", r1.Elapsed, r2.Elapsed)
	}
	if r1.CheckpointsTaken != r2.CheckpointsTaken || r1.CheckpointBytes != r2.CheckpointBytes ||
		r1.RecoveryTime != r2.RecoveryTime {
		t.Fatalf("recovery accounting differs between identical runs: %d/%d/%d vs %d/%d/%d",
			r1.CheckpointsTaken, r1.CheckpointBytes, r1.RecoveryTime,
			r2.CheckpointsTaken, r2.CheckpointBytes, r2.RecoveryTime)
	}
}

// TestCheckpointOnlyRunIsInert pins the zero-overhead requirement:
// checkpointing enabled with no crashes configured must not change the
// simulated schedule at all — capture happens outside virtual time.
func TestCheckpointOnlyRunIsInert(t *testing.T) {
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range []config.Machine{
		config.Default().WithNodes(4),
		config.Default().WithNodes(16).WithTopology(config.TreeTopo),
	} {
		t.Run(mc.Topology.String(), func(t *testing.T) {
			base, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim})
			if err != nil {
				t.Fatal(err)
			}
			ck, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim, Checkpoint: true})
			if err != nil {
				t.Fatal(err)
			}
			if ck.CheckpointsTaken == 0 {
				t.Fatal("Checkpoint option did not capture anything")
			}
			if base.Elapsed != ck.Elapsed ||
				base.Stats.TotalMessages() != ck.Stats.TotalMessages() ||
				base.Stats.TotalBytes() != ck.Stats.TotalBytes() ||
				base.Stats.TotalMisses() != ck.Stats.TotalMisses() {
				t.Fatalf("checkpointing perturbed the run: elapsed %d vs %d, msgs %d vs %d, bytes %d vs %d",
					base.Elapsed, ck.Elapsed, base.Stats.TotalMessages(), ck.Stats.TotalMessages(),
					base.Stats.TotalBytes(), ck.Stats.TotalBytes())
			}
			want := base.ArrayData(a.CheckArrays[0])
			got := ck.ArrayData(a.CheckArrays[0])
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s[%d] differs with checkpointing on", a.CheckArrays[0], k)
				}
			}
		})
	}
}

// TestCkptDirErrorsAreReported: a checkpoint directory that cannot be
// made fails the run before it simulates, and a checkpoint that cannot
// be written fails it at the end — both used to be dropped without a
// word, leaving nothing on disk.
func TestCkptDirErrorsAreReported(t *testing.T) {
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	blocked := filepath.Join(tmp, "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// The blob's own path is a directory: every write of it fails.
	unwritable := filepath.Join(tmp, "dir")
	if err := os.MkdirAll(filepath.Join(unwritable, prog.Name+".ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ dir, want string }{
		{filepath.Join(blocked, "sub"), "runtime: checkpoint directory " + filepath.Join(blocked, "sub") + ": "},
		{unwritable, "runtime: checkpoint: open " + filepath.Join(unwritable, prog.Name+".ckpt") + ": "},
	} {
		_, err := Run(prog, Options{Machine: config.Default(), Opt: compiler.OptRTElim, Checkpoint: true, CkptDir: c.dir})
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("-ckpt-dir %s: error %v, want one starting %q", c.dir, err, c.want)
		}
	}
	dir := filepath.Join(tmp, "made", "here")
	if _, err := Run(prog, Options{Machine: config.Default(), Opt: compiler.OptRTElim, Checkpoint: true, CkptDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, prog.Name+".ckpt")); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRejectedOnMessagePassing: the recovery protocol is a
// shared-memory facility; the MP backend must refuse crash plans.
func TestCrashRejectedOnMessagePassing(t *testing.T) {
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default().WithNodes(4).WithFaults(
		config.Faults{Crashes: []config.CrashSpec{{Node: 1, Epoch: 2}}})
	if _, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim, Backend: MessagePassing}); err == nil {
		t.Fatal("crash injection on the message-passing backend did not error")
	}
}

// TestCrashNodeZeroRejected: node 0 hosts the synchronization master
// and is outside the failure model.
func TestCrashNodeZeroRejected(t *testing.T) {
	mc := config.Default().WithNodes(4).WithFaults(
		config.Faults{Crashes: []config.CrashSpec{{Node: 0, Epoch: 2}}})
	if err := mc.Validate(); err == nil {
		t.Fatal("crash spec for node 0 passed validation")
	}
}

// TestCkptDirAloneCheckpoints: a checkpoint directory is enough to turn
// capture on; the run used to capture and write nothing unless
// Checkpoint was set as well. Like Checkpoint, it is refused under
// partitioned simulation.
func TestCkptDirAloneCheckpoints(t *testing.T) {
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := Run(prog, Options{Machine: config.Default(), Opt: compiler.OptRTElim, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsTaken == 0 {
		t.Error("no checkpoint taken")
	}
	if _, err := os.Stat(filepath.Join(dir, prog.Name+".ckpt")); err != nil {
		t.Error(err)
	}
	_, err = Run(prog, Options{Machine: config.Default(), Opt: compiler.OptRTElim, CkptDir: dir, Partitions: 2})
	if err == nil || !strings.Contains(err.Error(), "incompatible with checkpointing") {
		t.Errorf("CkptDir under 2 partitions: %v, want the checkpointing refusal", err)
	}
}

// TestBarrierChecksCountEveryAttempt: Result.BarrierChecks sums the
// audits of every attempt. Node 2 is lost at epoch 5, after that
// epoch's audit, so the first attempt audits epochs 1 to 5; the second
// resumes from the last checkpoint, at epoch e0 (the trace's
// recovery:restore instant says which), and audits every epoch after
// it that the fault-free run has. The last attempt alone would be 5
// short.
func TestBarrierChecksCountEveryAttempt(t *testing.T) {
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	clean := crashRun(t, a, config.Faults{}, compiler.OptRTElim)
	mc := config.Default().WithNodes(4).WithFaults(config.Faults{Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}})
	tr := trace.New(mc.Nodes)
	res, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim, Check: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	e0 := int64(-1)
	for _, e := range tr.Events() {
		if e.Name == "recovery:restore" {
			e0, _ = strconv.ParseInt(e.Args[0].J, 10, 64)
		}
	}
	if res.Recoveries != 1 || e0 < 0 || e0 > 5 {
		t.Fatalf("%d recoveries, restored at epoch %d; want 1, at most 5", res.Recoveries, e0)
	}
	if want := 5 + clean.BarrierChecks - e0; res.BarrierChecks != want {
		t.Errorf("%d audits across the recovered run's attempts, want 5 + %d - %d = %d", res.BarrierChecks, clean.BarrierChecks, e0, want)
	}
}
