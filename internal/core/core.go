// Package core ties the reproduction together into the SPARCS-like flow
// of the paper's Figure 9: taskgraph in, temporal partitioning, spatial
// partitioning, memory mapping, channel routing, automatic resource
// arbitration, and cycle-accurate simulation out.
package core

import (
	"fmt"
	"sort"
	"strings"

	"sparcs/internal/arbinsert"
	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/partition"
	"sparcs/internal/rc"
	"sparcs/internal/sim"
	"sparcs/internal/taskgraph"
)

// Options configures the flow.
type Options struct {
	// Partition options (fixed stages, pin budgets, expected contention
	// that widens the arbiters the partitioner prices, conservative mode).
	Partition partition.Options
	// Insert options (M accesses per grant, hold-through).
	Insert arbinsert.Options
	// Policy picks the arbiter implementation for simulation (see
	// sim.Config.Policy); nil uses the behavioral round-robin.
	Policy *arbiter.PolicySpec
	// MaxCyclesPerStage bounds each stage simulation.
	MaxCyclesPerStage int
	// DisableTraces skips per-cycle arbiter trace recording — the one
	// part of simulation whose memory cost grows with cycle count.
	// Sweeps that only need cycle/violation/grant statistics set this.
	DisableTraces bool
	// Contention injects background load alongside the compiled tasks
	// (see ContentionSpec). Each stage turns the specs it hosts into one
	// sim.Config.Sources list, independent specs first and correlated
	// ones after, each in list order: an independent spec attaches a
	// workload generator to its resource's arbiter in every stage that
	// arbitrates it; a correlated spec drives all its resources'
	// arbiters from one generator in every stage that arbitrates them
	// together, and its cross-resource overlap and wait statistics land
	// in that stage's sim.Stats.Shared. Policy is instantiated at the
	// widened line count of every arbiter the load reaches (see Check).
	Contention []ContentionSpec
	// ContentionSeed seeds the background generators' random streams
	// (0 means 1). Runs are deterministic for a given seed.
	ContentionSeed uint64
	// UnsafeProtocols skips the acquisition-order deadlock check on the
	// Contention specs (CheckProtocols): cyclic hold-and-wait protocols
	// run anyway, guarded only by the MaxCyclesPerStage watchdog. This
	// is the deadlock experiments' escape hatch; leave it false
	// everywhere else.
	UnsafeProtocols bool
	// CaptureOnly restricts per-cycle arbiter trace recording to the
	// named resources when non-nil (DisableTraces false): a run that
	// only needs one resource's request stream pays for one. Nil keeps
	// the historical record-everything default.
	CaptureOnly []string
}

// StagePlan is one compiled temporal partition.
type StagePlan struct {
	Stage    *partition.Stage
	Routes   []partition.PhysChannel
	Inserted *arbinsert.Result
}

// Design is a fully compiled system ready for simulation.
type Design struct {
	Graph  *taskgraph.Graph
	Board  *rc.Board
	Stages []*StagePlan
}

// Compile runs partitioning, channel routing, and arbiter insertion.
// programs supplies the raw (unarbitrated) behavior of every task. Only
// opts.Partition and opts.Insert shape the design: background load that
// later runs inject widens the arbiters' area only as far as
// Partition.ExpectedContention declares it (sparcs.WithExpectedContention).
func Compile(g *taskgraph.Graph, board *rc.Board, programs map[string]behav.Program, opts Options) (*Design, error) {
	if err := checkPrograms(g, programs); err != nil {
		return nil, err
	}
	stages, err := partition.Temporal(g, board, opts.Partition)
	if err != nil {
		return nil, err
	}
	d := &Design{Graph: g, Board: board}
	for _, st := range stages {
		routes, err := partition.RouteChannels(g, board, st, opts.Partition)
		if err != nil {
			return nil, err
		}
		ins, err := arbinsert.Insert(board, st, routes, programs, opts.Insert)
		if err != nil {
			return nil, err
		}
		d.Stages = append(d.Stages, &StagePlan{Stage: st, Routes: routes, Inserted: ins})
	}
	return d, nil
}

// checkPrograms rejects the instructions the simulator cannot run: an
// OpCompute of fewer than one cycle and an OpTransform with a negative
// pop count or latency (latency 0 means one cycle), which would spin a
// task until the watchdog or panic mid-run, and a send or receive on a
// channel g does not declare, which would panic or fail mid-run.
func checkPrograms(g *taskgraph.Graph, programs map[string]behav.Program) error {
	channels := map[string]bool{}
	for _, c := range g.Channels {
		channels[c.Name] = true
	}
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i, in := range programs[name].Body {
			var what string
			switch {
			case in.Op == behav.OpCompute && in.N < 1:
				what = fmt.Sprintf("cycle count must be at least 1, got %d", in.N)
			case in.Op == behav.OpTransform && in.N < 0:
				what = fmt.Sprintf("pop count must not be negative, got %d", in.N)
			case in.Op == behav.OpTransform && in.Cycles < 0:
				what = fmt.Sprintf("latency must not be negative, got %d", in.Cycles)
			case (in.Op == behav.OpSend || in.Op == behav.OpRecv) && !channels[in.Res]:
				what = "unknown channel " + in.Res
			default:
				continue
			}
			return fmt.Errorf("core: task %s instruction %d (%s): %s", name, i, in.Op, what)
		}
	}
	return nil
}

// StageAreas returns each stage's resident CLB footprint under the given
// partition options (tasks plus arbiters widened by their expected
// contention; see partition.StageArea).
func (d *Design) StageAreas(opts partition.Options) []int {
	areas := make([]int, len(d.Stages))
	for i, sp := range d.Stages {
		areas[i] = partition.StageArea(d.Graph, sp.Stage, opts)
	}
	return areas
}

// FootprintCLBs is the design's peak per-stage CLB footprint — the fabric
// region a dynamic scheduler must reserve to host the design through all
// its reconfiguration stages.
func (d *Design) FootprintCLBs(opts partition.Options) int {
	max := 0
	for _, a := range d.StageAreas(opts) {
		if a > max {
			max = a
		}
	}
	return max
}

// StageStats pairs a stage with its simulation outcome.
type StageStats struct {
	Stage *StagePlan
	Stats *sim.Stats
}

// RunResult is the outcome of simulating every stage in sequence over a
// shared memory image.
type RunResult struct {
	Stages      []StageStats
	TotalCycles int
	Memory      *sim.Memory
}

// Violations flattens all stages' violations.
func (r *RunResult) Violations() []sim.Violation {
	var out []sim.Violation
	for _, s := range r.Stages {
		out = append(out, s.Stats.Violations...)
	}
	return out
}

// Arbiters lists every arbiter instantiated across stages as
// "stage:resource:N" strings, for compact assertions and reports.
func (d *Design) Arbiters() []string {
	var out []string
	for si, sp := range d.Stages {
		for _, a := range sp.Inserted.Arbiters {
			out = append(out, fmt.Sprintf("%d:%s:%d", si, a.Resource, a.N()))
		}
	}
	sort.Strings(out)
	return out
}

// Simulate sets up every stage (see Check), then runs them in order,
// carrying memory contents across reconfigurations (physical banks
// retain data; the host restages streaming windows). A run that cannot
// simulate fails before its first stage does, with mem untouched.
func Simulate(d *Design, mem *sim.Memory, opts Options) (*RunResult, error) {
	if mem == nil {
		mem = sim.NewMemory()
	}
	sims, err := setup(d, 0, len(d.Stages), mem, opts)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Stages: make([]StageStats, len(sims)), Memory: mem}
	for si, s := range sims {
		stats := s.Run()
		res.Stages[si] = StageStats{Stage: d.Stages[si], Stats: stats}
		res.TotalCycles += stats.Cycles
	}
	return res, nil
}

// SimulateStage runs one temporal partition of a compiled design over the
// given memory image, with exactly the option composition Simulate uses
// for that stage (same contention seed derivation, same config).
// This is the entry point for schedulers that interleave stages of many
// designs on one fabric (internal/scenario): a design's stage i executed
// here is cycle-identical to its execution inside Simulate. Only stage
// si is set up; a nil mem starts blank.
func SimulateStage(d *Design, si int, mem *sim.Memory, opts Options) (*sim.Stats, error) {
	if si < 0 || si >= len(d.Stages) {
		return nil, fmt.Errorf("core: stage index %d out of range (design has %d)", si, len(d.Stages))
	}
	sims, err := setup(d, si, si+1, mem, opts)
	if err != nil {
		return nil, err
	}
	return sims[0].Run(), nil
}

// Check sets up every stage of d under opts, each on a blank memory, and
// runs none: it returns the error Simulate would, without a cycle run.
func Check(d *Design, opts Options) error {
	_, err := setup(d, 0, len(d.Stages), nil, opts)
	return err
}

// setup vets opts against d (validateContention, then CheckProtocols
// unless UnsafeProtocols is set) and sets up stages lo..hi-1 over mem:
// each stage's background sources, then its simulator (sim.New), which
// builds the policy at every arbiter's simulated width.
func setup(d *Design, lo, hi int, mem *sim.Memory, opts Options) ([]*sim.Sim, error) {
	if err := validateContention(d, opts.Contention); err != nil {
		return nil, err
	}
	if !opts.UnsafeProtocols {
		if err := CheckProtocols(opts.Contention); err != nil {
			return nil, err
		}
	}
	sims := make([]*sim.Sim, 0, hi-lo)
	for si := lo; si < hi; si++ {
		sp := d.Stages[si]
		sources, err := stageSources(sp, opts.Contention, opts.ContentionSeed)
		var s *sim.Sim
		if err == nil {
			s, err = sim.New(sim.Config{
				Graph:             d.Graph,
				Tasks:             sp.Stage.Tasks,
				Programs:          sp.Inserted.Programs,
				Arbiters:          sp.Inserted.Arbiters,
				ResourceOfSegment: sp.Inserted.ResourceOfSegment,
				ResourceOfChannel: sp.Inserted.ResourceOfChannel,
				Policy:            opts.Policy,
				MaxCycles:         opts.MaxCyclesPerStage,
				Memory:            mem,
				DisableTraces:     opts.DisableTraces,
				CaptureOnly:       opts.CaptureOnly,
				Sources:           sources,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("core: stage %d: %w", si, err)
		}
		sims = append(sims, s)
	}
	return sims, nil
}

// Report renders a human-readable compilation summary resembling the
// paper's Figure 11 description.
func (d *Design) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s on board %s: %d temporal partition(s)\n",
		d.Graph.Name, d.Board.Name, len(d.Stages))
	for si, sp := range d.Stages {
		fmt.Fprintf(&b, "temporal partition #%d: tasks %s\n", si, strings.Join(sp.Stage.Tasks, ", "))
		for pe := range d.Board.PEs {
			var on []string
			for _, t := range sp.Stage.Tasks {
				if sp.Stage.TaskPE[t] == pe {
					on = append(on, t)
				}
			}
			if len(on) > 0 {
				fmt.Fprintf(&b, "  %s: %s\n", d.Board.PEs[pe].Name, strings.Join(on, ", "))
			}
		}
		for bi, segs := range sp.Stage.Banks {
			if len(segs) > 0 {
				fmt.Fprintf(&b, "  bank %s: %s\n", d.Board.Banks[bi].Name, strings.Join(segs, ", "))
			}
		}
		if len(sp.Inserted.Arbiters) == 0 {
			fmt.Fprintf(&b, "  no arbitration required\n")
		}
		for _, a := range sp.Inserted.Arbiters {
			line := fmt.Sprintf("  Arb%d on %s: tasks %s", a.N(), a.Resource, strings.Join(a.Members, ", "))
			if len(a.Elided) > 0 {
				line += fmt.Sprintf(" (elided by dependencies: %s)", strings.Join(a.Elided, ", "))
			}
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}
