// The composable experiment API: Build compiles a design ONCE into a
// System, and the System then runs MANY independent experiments, each
// composed from per-run functional options — the compile-once /
// experiment-many shape of the paper's flow, without threading one
// ever-growing options struct through every call.
//
//	sys, err := sparcs.FFTSystem(8)
//	base, err := sys.Run()                                   // paper setup
//	slow, err := sys.Run(sparcs.WithPolicy("priority"),
//	                     sparcs.WithContention("M1=hog/1"))  // same silicon, hostile load
//	corr, err := sys.Run(sparcs.WithContention("M1+M3=corr:0.25/1"))
//
// Runs are independent: each constructs fresh policies, fresh background
// generators, and (unless WithMemory supplies one) a fresh memory image,
// so a System is safe to Run from several goroutines at once.

package sparcs

import (
	"fmt"

	"sparcs/internal/arbiter"
	"sparcs/internal/core"
	"sparcs/internal/fft"
	"sparcs/internal/rc"
	"sparcs/internal/sim"
	"sparcs/internal/taskgraph"
	"sparcs/internal/workload"
)

// Memory aliases the simulator's memory image; NewMemory returns a blank
// one ready for input loading.
type Memory = sim.Memory

// NewMemory returns a blank memory image.
func NewMemory() *Memory { return sim.NewMemory() }

// System is a compiled design plus everything needed to run experiments
// against it. Build it once; Run it many times with per-run options.
type System struct {
	graph  *taskgraph.Graph
	design *core.Design
	build  core.Options // the Partition/Insert knobs fixed at Build time
}

// buildConfig collects Build-time options: everything that changes the
// compiled design (partitioning, insertion, expected contention). Per-experiment
// knobs (policy, contention, capture, seed) are RunOptions instead.
type buildConfig struct {
	opts core.Options
}

// BuildOption configures Build.
type BuildOption func(*buildConfig) error

// WithStages fixes the temporal partitioning to an explicit stage list
// instead of the automatic partitioner (the paper's user-constraint
// path; FFTSystem uses it for the Section 5 three-stage split).
func WithStages(stages [][]string) BuildOption {
	return func(c *buildConfig) error {
		c.opts.Partition.FixedStages = stages
		return nil
	}
}

// WithAccessesPerGrant sets M, the accesses a task performs per grant
// before releasing its request line (Figure 8 protocol; default 2).
func WithAccessesPerGrant(m int) BuildOption {
	return func(c *buildConfig) error {
		if m < 1 {
			return fmt.Errorf("sparcs: accesses per grant must be positive, got %d", m)
		}
		c.opts.Insert.M = m
		return nil
	}
}

// WithConservativeArbitration disables dependency-based arbiter elision:
// every accessor of a shared resource gets a request line, matching the
// paper's conservative baseline. The partitioner prices the wider
// arbiters and their request/grant pins, so FootprintCLBs and the
// per-PE fit checks cover what the run instantiates.
func WithConservativeArbitration() BuildOption {
	return func(c *buildConfig) error {
		c.opts.Partition.Conservative = true
		return nil
	}
}

// WithExpectedContention tells the partitioner what background load
// later runs will inject, in the WithContention grammar
// ("M1=hog/2,M1+M3=corr:0.25"): each arbiter is priced at its simulated
// width instead of its member width, so a design that fits at Build time
// still fits once contention widens its arbiters. An empty spec ""
// declares no load, like omitting the option: member widths only.
//
// The declared protocol is vetted like a run's: correlated specs whose
// acquisition orders form a cycle are rejected here with a
// *core.DeadlockProneError — there is no point sizing silicon for a
// protocol no safe run may inject. (Deadlock experiments skip the
// pricing bump, as the watchdog tests do, and opt in per run with
// WithUnsafeProtocols.)
func WithExpectedContention(spec string) BuildOption {
	return func(c *buildConfig) error {
		specs, err := core.ParseContention(spec)
		if err != nil {
			return err
		}
		if err := core.CheckProtocols(specs); err != nil {
			return err
		}
		c.opts.Partition.ExpectedContention = core.ExtraLines(specs)
		return nil
	}
}

// Build compiles a taskgraph onto a board — temporal/spatial
// partitioning, arbitration-aware memory mapping, channel routing, and
// automatic arbiter insertion — and returns the System handle that runs
// experiments against the compiled design.
func Build(g *taskgraph.Graph, board *rc.Board, programs map[string]Program, opts ...BuildOption) (*System, error) {
	var c buildConfig
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	d, err := core.Compile(g, board, programs, c.opts)
	if err != nil {
		return nil, err
	}
	return &System{graph: g, design: d, build: c.opts}, nil
}

// FFTSystem builds the Section 5 case study — the 4x4 2-D FFT on the
// Annapolis Wildforce board with the paper's three-stage temporal
// partitioning — ready for experiments. tiles <= 0 defaults to 6.
func FFTSystem(tiles int, opts ...BuildOption) (*System, error) {
	if tiles <= 0 {
		tiles = 6
	}
	return Build(fft.Taskgraph(), rc.Wildforce(),
		fft.Programs(tiles),
		append([]BuildOption{WithStages(fft.PaperStages())}, opts...)...)
}

// LoadFFTInput fills a memory image with the FFT case study's input
// tiles (deterministic for a seed) and returns them for CheckFFTOutput.
func LoadFFTInput(mem *Memory, tiles int, seed int64) [][]int64 {
	return fft.LoadInput(mem, tiles, seed)
}

// CheckFFTOutput verifies a run's memory image against the fixed-point
// 2-D FFT reference of the loaded input tiles.
func CheckFFTOutput(mem *Memory, in [][]int64) error {
	return fft.CheckOutput(mem, in)
}

// FFTHardwareSeconds extrapolates an n×n-image hardware time from a
// measured cycles-per-tile at the paper's 6 MHz clock.
func FFTHardwareSeconds(cyclesPerTile float64, n int) float64 {
	return fft.HardwareSeconds(cyclesPerTile, n)
}

// FFTSoftwareSeconds models the paper's Pentium-150 software baseline
// for an n×n image.
func FFTSoftwareSeconds(n int) float64 {
	return fft.SoftwareSeconds(n)
}

// Design exposes the compiled design (stages, memory maps, inserted
// arbiters, routed channels) for reports and structural assertions.
func (s *System) Design() *core.Design { return s.design }

// Report renders the human-readable compilation summary.
func (s *System) Report() string { return s.design.Report() }

// runConfig collects one experiment's composition.
type runConfig struct {
	opts       core.Options
	mem        *Memory
	capture    []string // resources to tap; nil without captureAll = no traces
	captureAll bool
}

// RunOption configures one System.Run experiment.
type RunOption func(*runConfig) error

// WithPolicy selects the arbitration policy for every arbiter in the
// run, by spec ("rr", "fifo", "priority", "random:7", "fsm",
// "netlist:one-hot", "preemptive:4", "wrr:2", "hier:2"). The spec is
// validated against every arbiter's simulated width — including phantom
// and correlated contention lines — before the run starts. Default:
// behavioral round-robin, validated the same way.
func WithPolicy(spec string) RunOption {
	return func(c *runConfig) error {
		sp, err := arbiter.ParsePolicySpec(spec)
		if err != nil {
			return err
		}
		c.opts.Policy = sp
		return nil
	}
}

// WithContention injects background load alongside the compiled tasks.
// The spec is a comma-separated list mixing both contention grammars:
//
//	resource=workload[/lines]        one arbiter  ("M1=hog/2")
//	res1+res2[+..]=workload[/lanes]  correlated   ("M1+M3=corr:0.25/1")
//
// Single-resource sources attach a closed-loop workload generator to one
// arbiter. Correlated sources drive several arbiters from ONE generator
// with hold-A-while-waiting-on-B acquisition in listed order — the
// deadlock-adjacent multi-resource pattern — and report cross-resource
// overlap/wait statistics (Result.SharedStats). Repeating the option
// appends sources, but a resource still takes at most one
// single-resource spec across the whole run: Run rejects a second one
// with a *core.DuplicateResourceError, as it does within one spec.
func WithContention(spec string) RunOption {
	return func(c *runConfig) error {
		specs, err := core.ParseContention(spec)
		if err != nil {
			return err
		}
		c.opts.Contention = append(c.opts.Contention, specs...)
		return nil
	}
}

// WithUnsafeProtocols disables the acquisition-order deadlock check for
// this run. By default Run refuses contention protocols whose correlated
// sources acquire resources in cyclically inconsistent orders — the
// circular hold-and-wait — with a *core.DeadlockProneError naming the
// cycle, because such a protocol can interlock and only ever terminates
// through the WithMaxCycles watchdog. The deadlock experiments study
// exactly that interlock, so this option restores the watchdog-only
// behavior for them.
func WithUnsafeProtocols() RunOption {
	return func(c *runConfig) error {
		c.opts.UnsafeProtocols = true
		return nil
	}
}

// WithSeed seeds the run's background contention generators (0 means 1).
// Runs are deterministic for a given seed.
func WithSeed(n uint64) RunOption {
	return func(c *runConfig) error {
		c.opts.ContentionSeed = n
		return nil
	}
}

// WithMaxCycles bounds each stage simulation (deadlock watchdog);
// 0 means the 10-million default.
func WithMaxCycles(n int) RunOption {
	return func(c *runConfig) error {
		if n < 0 {
			return fmt.Errorf("sparcs: max cycles must be non-negative, got %d", n)
		}
		c.opts.MaxCyclesPerStage = n
		return nil
	}
}

// WithCapture turns on per-cycle request/grant trace recording — the
// tap that feeds Result.Column and capture→replay experiments. With no
// arguments every arbiter records; with resource names only those do
// (the rest skip recording entirely). Runs without WithCapture record
// nothing: traces are the one simulation cost that grows with cycle
// count, so experiments opt in per run.
func WithCapture(resources ...string) RunOption {
	return func(c *runConfig) error {
		if len(resources) == 0 {
			c.captureAll = true
			return nil
		}
		c.capture = append(c.capture, resources...)
		return nil
	}
}

// WithMemory runs the experiment over a caller-prepared memory image
// (e.g. LoadFFTInput) instead of a blank one. The run mutates it; runs
// sharing one image must not execute concurrently.
func WithMemory(mem *Memory) RunOption {
	return func(c *runConfig) error {
		if mem == nil {
			return fmt.Errorf("sparcs: WithMemory needs a non-nil memory")
		}
		c.mem = mem
		return nil
	}
}

// Result is the outcome of one System.Run experiment: the simulation
// outcome of every stage plus capture/stat accessors over it.
type Result struct {
	*core.RunResult
	system *System
}

// Run executes one experiment against the compiled design: it composes
// the options (policy, background contention, capture taps, seed), sets
// up every stage under them (which validates them against the design),
// simulates the stages in order, and returns the Result. A run that
// fails its setup simulates nothing and leaves a WithMemory image as it
// was. Each call builds fresh policy and generator state,
// so concurrent Runs are safe as long as they don't share a WithMemory
// image.
func (s *System) Run(opts ...RunOption) (*Result, error) {
	c, err := s.composeRun(opts)
	if err != nil {
		return nil, err
	}
	mem := c.mem
	if mem == nil {
		mem = NewMemory()
	}
	res, err := core.Simulate(s.design, mem, c.opts)
	if err != nil {
		return nil, err
	}
	return &Result{RunResult: res, system: s}, nil
}

// composeRun applies the RunOptions and checks the capture taps against
// the compiled design, producing the core.Options a run (or a scenario
// class) simulates under. The policy and the contention are checked when
// core sets up the run's stages, all of them before the first simulates.
func (s *System) composeRun(opts []RunOption) (runConfig, error) {
	c := runConfig{opts: core.Options{
		Partition:     s.build.Partition,
		Insert:        s.build.Insert,
		DisableTraces: true, // capture is per-run opt-in
	}}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&c); err != nil {
			return c, err
		}
	}
	// Compose the capture taps: an argument-less WithCapture() records
	// every arbiter (CaptureOnly nil); named taps record just those.
	if c.captureAll {
		c.opts.DisableTraces = false
		c.opts.CaptureOnly = nil
	} else if len(c.capture) > 0 {
		if err := s.validateCapture(c.capture); err != nil {
			return c, err
		}
		c.opts.DisableTraces = false
		c.opts.CaptureOnly = c.capture
	}
	return c, nil
}

// FootprintCLBs is the compiled design's peak per-stage CLB footprint
// under the Build-time options — tasks plus contention-widened
// arbiters. It is the fabric rectangle a dynamic scheduler reserves for
// the System (RunScenario) and the weight sparcsd's LRU cache charges a
// cached compilation.
func (s *System) FootprintCLBs() int {
	return s.design.FootprintCLBs(s.build.Partition)
}

// SweepError reports a failing experiment inside a System.Sweep. The
// sweep still runs (and returns) every sibling experiment — a bad
// option set must not discard the rest of the fan-out — so callers get
// the completed results alongside the typed failure. Index is the
// input-order position of the first failing experiment; Err is its Run
// error (errors.Is/As see through Unwrap).
type SweepError struct {
	Index int
	Err   error
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("sparcs: sweep experiment %d: %v", e.Index, e.Err)
}

// Unwrap exposes the failing experiment's underlying Run error.
func (e *SweepError) Unwrap() error { return e.Err }

// Sweep runs one experiment per option set concurrently across
// GOMAXPROCS workers — the compile-once fan-out behind the paper-table
// sweeps. Each experiment is an independent Run composed from its own
// RunOption slice (nil means the baseline run), so option sets must not
// share stateful values like a WithMemory image. Results come back in
// input order. Every experiment always runs to completion (no worker
// goroutines are abandoned mid-sweep); if any fail, the completed
// siblings' results are still returned — failed slots are nil — along
// with a *SweepError carrying the first failing experiment's index (by
// input order) and error.
func (s *System) Sweep(experiments ...[]RunOption) ([]*Result, error) {
	out := make([]*Result, len(experiments))
	errs := make([]error, len(experiments))
	sim.ParallelFor(len(experiments), func(i int) {
		out[i], errs[i] = s.Run(experiments[i]...)
	})
	for i, err := range errs {
		if err != nil {
			return out, &SweepError{Index: i, Err: err}
		}
	}
	return out, nil
}

// validateCapture rejects capture taps naming resources no stage
// arbitrates — the same typo guard contention specs get.
func (s *System) validateCapture(resources []string) error {
	if len(resources) == 0 {
		return nil
	}
	arbitrated := map[string]bool{}
	for _, sp := range s.design.Stages {
		for _, a := range sp.Inserted.Arbiters {
			arbitrated[a.Resource] = true
		}
	}
	for _, r := range resources {
		if !arbitrated[r] {
			return fmt.Errorf("sparcs: capture resource %s is not arbitrated in any stage", r)
		}
	}
	return nil
}

// Column converts the named resource's captured request stream (the
// first stage where it recorded a non-empty trace) into a replayable
// grid column named "<graph>:<resource>", as wide as the recorded trace,
// for EvaluatePolicyColumns. The run must have enabled WithCapture for
// the resource.
func (r *Result) Column(resource string) (WorkloadColumn, error) {
	for _, ss := range r.Stages {
		if trace := ss.Stats.ArbiterTraces[resource]; trace != nil && len(trace.Steps) > 0 {
			return workload.FromArbiterTrace(fmt.Sprintf("%s:%s", r.system.graph.Name, resource), trace)
		}
	}
	return WorkloadColumn{}, fmt.Errorf("sparcs: no captured trace for resource %s (did the run use WithCapture?)", resource)
}

// ColumnByWidth returns a replayable column for the first arbiter (in
// stage then insertion order) whose captured request stream is n lines
// wide, under the given column name — how the FFT case study selects the
// paper's contended 6-line bank without naming it.
func (r *Result) ColumnByWidth(name string, n int) (WorkloadColumn, error) {
	var widths []int
	for si, ss := range r.Stages {
		for _, a := range r.system.design.Stages[si].Inserted.Arbiters {
			trace := ss.Stats.ArbiterTraces[a.Resource]
			if trace == nil || len(trace.Steps) == 0 {
				continue
			}
			if trace.N == n {
				return workload.FromArbiterTrace(fmt.Sprintf("%s:%s", name, a.Resource), trace)
			}
			widths = append(widths, trace.N)
		}
	}
	return WorkloadColumn{}, fmt.Errorf("sparcs: no captured %d-line request stream (available widths: %v)", n, widths)
}

// SharedStats flattens every stage's correlated-source statistics in
// stage order: per source, the cross-resource hold-and-wait overlap,
// all-held cycles, and per-resource grant/wait totals.
func (r *Result) SharedStats() []*sim.SharedStats {
	var out []*sim.SharedStats
	for _, ss := range r.Stages {
		out = append(out, ss.Stats.Shared...)
	}
	return out
}
