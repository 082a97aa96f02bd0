// Package hpfdsm reproduces Chandra & Larus, "Optimizing Communication
// in HPF Programs for Fine-Grain Distributed Shared Memory" (PPoPP
// 1997): a mini-HPF compiler whose communication analysis drives
// compiler-directed coherence-protocol optimizations, running on a
// deterministic simulation of a Tempest-style fine-grain DSM cluster.
//
// This package is the public facade. A typical use:
//
//	prog, err := hpfdsm.Compile(source, nil)
//	res, err := hpfdsm.Run(prog, hpfdsm.Options{
//	        Machine: hpfdsm.DefaultMachine(),
//	        Opt:     hpfdsm.OptRTElim,
//	})
//	fmt.Println(res.Elapsed, res.Stats.TotalMisses())
//
// The building blocks live under internal/: the simulation kernel
// (sim), the network and node models (network, tempest), fine-grain
// access control (memory), the default and compiler-directed coherence
// protocols (protocol), the section algebra and HPF distributions
// (sections, distribute), the front end (lang), the IR and analysis
// (ir, compiler), and the shared-memory and message-passing executors
// (runtime).
package hpfdsm

import (
	"hpfdsm/internal/apps"
	"hpfdsm/internal/bench"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/runtime"
)

// Machine is a simulated cluster configuration (see DefaultMachine).
type Machine = config.Machine

// CPUMode selects dedicated vs interleaved protocol processing.
type CPUMode = config.CPUMode

// CPU modes.
const (
	DualCPU   = config.DualCPU
	SingleCPU = config.SingleCPU
)

// DefaultMachine returns the paper's Table 1 cluster: 8 dual-processor
// nodes, Myrinet-class network, 128-byte coherence blocks.
func DefaultMachine() Machine { return config.Default() }

// OptLevel is the cumulative compiler/protocol optimization level.
type OptLevel = compiler.Level

// Optimization levels.
const (
	// OptNone: default invalidation protocol only.
	OptNone = compiler.OptNone
	// OptBase: compiler-orchestrated sender-initiated transfers.
	OptBase = compiler.OptBase
	// OptBulk: plus bulk transfer of contiguous blocks.
	OptBulk = compiler.OptBulk
	// OptRTElim: plus run-time call and barrier elimination.
	OptRTElim = compiler.OptRTElim
	// OptPRE: plus redundant-communication elimination.
	OptPRE = compiler.OptPRE
)

// ParseOptLevel converts a level name ("none", "base", "bulk",
// "rtelim", "pre") to an OptLevel.
func ParseOptLevel(s string) (OptLevel, error) { return compiler.ParseLevel(s) }

// Backend selects the execution substrate.
type Backend = runtime.Backend

// Backends.
const (
	// SharedMemory is the fine-grain DSM (the paper's system).
	SharedMemory = runtime.SharedMemory
	// MessagePassing is the explicit-messaging baseline.
	MessagePassing = runtime.MessagePassing
)

// Options configures a run.
type Options = runtime.Options

// Result is a completed run: simulated elapsed time, per-node
// statistics, final scalars, and access to final array contents.
type Result = runtime.Result

// Program is a compiled data-parallel program.
type Program = ir.Program

// App is one of the paper's six benchmark applications.
type App = apps.App

// Compile parses a mini-HPF program. overrides, if non-nil, replaces
// PARAM values (problem scaling); names match case-insensitively, and
// one naming no PARAM of the program is an error.
func Compile(source string, overrides map[string]int) (*Program, error) {
	return lang.ParseWithOverrides(source, overrides)
}

// PrintSource pretty-prints a compiled program as canonical mini-HPF
// source text (Compile(PrintSource(p)) is semantically equivalent to p).
func PrintSource(prog *Program) string { return lang.Print(prog) }

// Run executes a compiled program on the simulated cluster.
func Run(prog *Program, opts Options) (*Result, error) {
	return runtime.Run(prog, opts)
}

// RunSource compiles and runs in one step.
func RunSource(source string, overrides map[string]int, opts Options) (*Result, error) {
	prog, err := Compile(source, overrides)
	if err != nil {
		return nil, err
	}
	return Run(prog, opts)
}

// Sizing selects an application's problem sizes (see LoadProgram).
type Sizing = bench.Sizing

// Sizings.
const (
	// Bench sizes run the full sweep in minutes.
	Bench = bench.Bench
	// Paper sizes match Table 2 (slow: tens of minutes).
	Paper = bench.Paper
	// Scaled sizes are the small test configurations.
	Scaled = bench.Scaled
)

// LoadProgram builds a program the way every command and experiment
// does. Named by app, it is that application with its PARAMs at sizing
// s and params laid over them; a non-empty src then stands in for the
// application's text under the same PARAMs. With no app, src is parsed
// with params as its only overrides.
func LoadProgram(app, src string, s Sizing, params map[string]int) (*Program, error) {
	return bench.LoadProgram(app, src, s, params)
}

// Apps returns the paper's application suite (Table 2 order): pde,
// shallow, grav, lu, cg, jacobi.
func Apps() []*App { return apps.All() }

// AppByName looks up one application.
func AppByName(name string) (*App, error) { return apps.ByName(name) }
