// Package sparcs reproduces "Efficient Resource Arbitration in
// Reconfigurable Computing Environments" (Ouaiss & Vemuri, DATE 2000) as a
// production-quality Go library.
//
// # The experiment API
//
// The package is organized around the paper's compile-once /
// experiment-many flow. Build compiles a taskgraph onto a board — the
// SPARCS-like pipeline of temporal/spatial partitioning,
// arbitration-aware memory mapping, channel merging, and automatic
// arbiter insertion — and returns a System; each System.Run then
// composes one experiment from functional options:
//
//	sys, _ := sparcs.FFTSystem(8)                    // compile once (Section 5 case study)
//	base, _ := sys.Run()                             // the paper's round-robin baseline
//	hot, _ := sys.Run(                               // same silicon, hostile load
//	    sparcs.WithPolicy("preemptive:4"),
//	    sparcs.WithContention("M1=hog/1"),
//	    sparcs.WithSeed(7))
//	corr, _ := sys.Run(                              // correlated multi-resource source:
//	    sparcs.WithContention("M1+M3=corr:0.25/1"))  // holds M1 while waiting on M3
//	cap, _ := sys.Run(sparcs.WithCapture("M1"))      // per-run trace tap
//	col, _ := cap.Column("M1")                       // measured traffic as a grid column
//
// WithPolicy swaps the arbitration policy (validated against every
// arbiter's simulated width up front), WithContention injects
// single-resource phantom requesters and correlated hold-A-while-
// waiting-on-B sources (cross-resource overlap/wait stats in
// Result.SharedStats), WithCapture taps per-cycle request/grant traces
// for capture→replay experiments, and WithSeed/WithMaxCycles/WithMemory
// pin determinism, watchdogs, and memory images. Runs are independent
// and safe to issue concurrently; System.Sweep fans a slice of
// experiment option-sets over GOMAXPROCS workers.
//
// # Policy sizes
//
// Arbitration steps on a bitset kernel (arbiter.BitVec): request and
// grant vectors are single uint64 words from workload generator through
// policy scan to the online safety checks. The behavioral policies —
// rr, fifo, priority, random, preemptive, wrr, hier — therefore accept
// 2 to 64 request lines (arbiter.MaxN, one word) with allocation-free
// stepping. The synthesized kinds, fsm and netlist:*, interpret the
// paper's actual Figure 5 machine and its gate-level netlists and stop
// at 16 lines (arbiter.MaxSynthN); arbiter.PolicySpec.MaxN reports the
// bound for a parsed spec, and out-of-range sizes fail with errors
// wrapping arbiter.ErrOutOfRange.
//
// # Under the facade
//
//   - Round-robin arbiters (Figure 5): behavioral models, synthesizable
//     FSMs, VHDL generation, fairness checkers (internal/arbiter).
//   - A from-scratch synthesis pipeline — two-level minimization,
//     algebraic factoring, 4-LUT mapping, XC4000E CLB packing, and -3
//     speed-grade timing — modeling the paper's two synthesis tools
//     (internal/logic, fsm, netlist, lutmap, xc4000, synth).
//   - The SPARCS-like system flow and cycle-accurate multi-FPGA
//     simulator (internal/partition, arbinsert, sim, core).
//   - A standalone contention-workload engine driving any policy under
//     synthetic and measured traffic shapes (internal/workload), fronted
//     by EvaluatePolicies/EvaluatePolicyColumns.
//   - The Section 5 case study: the 4x4 2-D FFT on the Annapolis
//     Wildforce board (internal/fft, rc).
//
// See the runnable programs under examples/, README.md for a quickstart
// and the old→new migration table, and the benchmark harness in
// bench_test.go, which regenerates every figure and table of the paper's
// evaluation (documented in EXPERIMENTS.md).
package sparcs

import (
	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/fsm"
	"sparcs/internal/rc"
	"sparcs/internal/synth"
	"sparcs/internal/workload"
)

// NewArbiter returns the behavioral N-input round-robin arbiter
// (Figure 5 semantics): call StepBits with the request word each cycle
// and receive the grant word.
func NewArbiter(n int) (*arbiter.RoundRobin, error) {
	if n < arbiter.MinN || n > arbiter.MaxN {
		return nil, arbiter.RangeError(n)
	}
	return arbiter.NewRoundRobin(n), nil
}

// NewPolicy constructs an arbitration policy by name. Every policy the
// repo implements is reachable, with parameters via the "kind:param"
// grammar of arbiter.ParsePolicySpec: "round-robin" (alias "rr"),
// "fifo", "priority", "random:<seed>", "fsm", "netlist:<encoding>",
// "preemptive:<maxHold>", "wrr:<weights>", and "hier:<groups>".
func NewPolicy(name string, n int) (arbiter.Policy, error) {
	return arbiter.NewPolicy(name, n)
}

// PolicyMetrics aggregates the outcome of driving one arbitration
// policy under one synthetic contention workload: per-task wait
// statistics and histograms, Jain's fairness index, utilization, and
// the worst grant-episode wait (comparable to round-robin's N-1 bound).
type PolicyMetrics = workload.Metrics

// EvaluateOptions parameterizes EvaluatePolicies (arbiter size, cycles
// per cell, workload seed).
type EvaluateOptions = workload.GridOptions

// EvaluatePolicies drives every named policy under every named
// contention workload and returns one PolicyMetrics per cell in
// row-major order (workloads fastest), fanned across GOMAXPROCS
// workers. Nil slices evaluate the full default grid: every policy
// implementation against every traffic shape (uniform Bernoulli,
// bursty, hotspot, Markov-modulated, adversarial hog, trace replay).
// Results are deterministic for a given options Seed.
func EvaluatePolicies(policies, workloads []string, opt EvaluateOptions) ([]*PolicyMetrics, error) {
	return workload.RunGrid(policies, workloads, opt)
}

// FormatPolicyTable renders EvaluatePolicies results as an aligned
// fairness/wait/utilization table (including p50/p99 percentile waits
// derived from the wait histograms).
func FormatPolicyTable(cells []*PolicyMetrics) string {
	return workload.FormatTable(cells)
}

// WorkloadColumn is one workload column of an evaluation grid: a named
// generator factory. Textual specs become columns via
// SpecWorkloadColumn; measured request streams captured from
// full-system simulations become columns via Result.Column and
// Result.ColumnByWidth.
type WorkloadColumn = workload.Column

// EvaluatePolicyColumns generalizes EvaluatePolicies to arbitrary
// workload columns, letting measured traffic captured from a
// full-system run stand next to the synthetic shapes in one grid.
func EvaluatePolicyColumns(policies []string, cols []WorkloadColumn, opt EvaluateOptions) ([]*PolicyMetrics, error) {
	return workload.RunGridColumns(policies, cols, opt)
}

// SpecWorkloadColumn wraps a textual workload spec ("bernoulli:0.30",
// "hog", ...) as a grid column for EvaluatePolicyColumns.
func SpecWorkloadColumn(spec string) WorkloadColumn {
	return workload.SpecColumn(spec)
}

// ArbiterVHDL renders the N-input round-robin arbiter as synthesizable
// VHDL, mirroring the paper's arbiter generator. Encoding is "one-hot",
// "compact", or "gray".
func ArbiterVHDL(n int, encoding string) (string, error) {
	enc, err := fsm.ParseEncoding(encoding)
	if err != nil {
		return "", err
	}
	return arbiter.VHDL(n, enc, true)
}

// CharacterizeArbiter synthesizes the N-input arbiter with the named tool
// model ("synplify" or "fpga-express") and encoding, returning area (CLBs)
// and maximum clock (MHz) in the paper's units.
func CharacterizeArbiter(n int, tool, encoding string) (synth.Result, error) {
	tl, err := synth.ParseTool(tool)
	if err != nil {
		return synth.Result{}, err
	}
	enc, err := fsm.ParseEncoding(encoding)
	if err != nil {
		return synth.Result{}, err
	}
	m, err := arbiter.Machine(n)
	if err != nil {
		return synth.Result{}, err
	}
	r, _, err := synth.Run(m, enc, tl)
	return r, err
}

// Wildforce returns the paper's target board model.
func Wildforce() *rc.Board { return rc.Wildforce() }

// Program aliases the behavioral task program type used by Build.
type Program = behav.Program
