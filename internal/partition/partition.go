// Package partition implements the SPARCS partitioning stack the
// arbitration mechanism plugs into (paper Section 5): temporal
// partitioning of the taskgraph into reconfiguration stages, spatial
// assignment of tasks to FPGAs, arbitration-aware memory mapping of
// logical segments onto physical banks, and routing of logical channels
// onto shared physical channels.
//
// The memory mapper is the piece the paper's results hinge on: it packs
// segments into banks minimizing total arbiter inputs (tasks with an
// unordered peer on the same bank) plus remote-bus pin cost, which is what
// makes the FFT case study's Arb6 + Arb2 structure emerge.
package partition

import (
	"fmt"
	"sort"

	"sparcs/internal/estimate"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// Options tunes the partitioning heuristics. The zero value is usable.
// Arbiter area always comes from the pre-characterization table,
// estimate.ArbiterCLBs.
type Options struct {
	// ExpectedContention maps resource names (bank or physical channel)
	// to the background phantom request lines simulation is expected to
	// add. Each arbiter is then priced at its simulated width — members
	// plus expected phantoms — instead of member width, so a design that
	// fits at compile time still fits once contention widens its
	// arbiters (sparcs.WithExpectedContention fills it from a contention
	// spec; nil prices member widths).
	ExpectedContention map[string]int
	// BusPins is the pin cost of one PE-to-remote-bank bus (address +
	// data + mode lines); 0 means the default 25, matching the paper's
	// Figure 11 annotations ("25+2+2" = bus + two request/grant pairs).
	BusPins int
	// FixedStages overrides automatic temporal partitioning with an
	// explicit stage list (SPARCS accepted user partitioning constraints;
	// the paper's 3-stage FFT split comes from its temporal ILP, which is
	// outside this paper's scope).
	FixedStages [][]string
	// Conservative disables dependency-based elision: every task that
	// accesses a shared bank or physical channel holds a request line on
	// its arbiter, the paper's conservative insertion ("the arbiter
	// insertion assumed that all 6 tasks were executing in parallel").
	// The partitioner prices, and arbinsert wires, those wider arbiters.
	Conservative bool
}

func (o Options) busPins() int {
	if o.BusPins <= 0 {
		return 25
	}
	return o.BusPins
}

// Stage is one temporal partition with its spatial and memory solution.
type Stage struct {
	Index  int
	Tasks  []string
	TaskPE map[string]int
	// SegBank maps each segment accessed in this stage to a bank index.
	SegBank map[string]int
	// Banks lists, per board bank, the segments mapped to it.
	Banks [][]string
	// Arbiters lists the stage's bank arbiters: the ones StageArea and
	// the per-PE area and pin checks price, and the ones arbinsert wires
	// and the simulator runs, under either elision mode.
	Arbiters []ArbiterSpec
	// PinUse is the crossbar/link pin usage per PE.
	PinUse []int
}

// ArbiterSpec names one required arbiter: the resource (bank or physical
// channel), the tasks wired to request/grant lines, and the tasks that
// access the resource without arbitration because control dependencies
// order them against every contender (elided, paper Section 5).
type ArbiterSpec struct {
	Resource string
	Members  []string
	Elided   []string
}

// N returns the arbiter input count.
func (a ArbiterSpec) N() int { return len(a.Members) }

// StageArea is the stage's resident CLB footprint: every task's area
// plus each bank arbiter priced by estimate.ArbiterCLBs at its expected
// simulated width (members + ExpectedContention lines) — the same
// pricing checkAreaWithArbiters enforces per PE, summed board-wide.
// Physical-channel arbiters (PhysChannel.Arbiter) are not priced.
// Schedulers that treat a compiled stage as one relocatable region
// (internal/scenario's strip packer) size its rectangle from this.
func StageArea(g *taskgraph.Graph, st *Stage, opts Options) int {
	area := 0
	for _, t := range st.Tasks {
		area += g.TaskByName(t).AreaCLBs
	}
	for _, arb := range st.Arbiters {
		area += estimate.ArbiterCLBs(arb.N() + opts.ExpectedContention[arb.Resource])
	}
	return area
}

// Temporal splits the taskgraph into reconfiguration stages and solves
// each stage's spatial assignment and memory map.
func Temporal(g *taskgraph.Graph, board *rc.Board, opts Options) ([]*Stage, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := board.Validate(); err != nil {
		return nil, err
	}
	var stageTasks [][]string
	if opts.FixedStages != nil {
		if err := validateFixedStages(g, opts.FixedStages); err != nil {
			return nil, err
		}
		stageTasks = opts.FixedStages
	} else {
		var err error
		stageTasks, err = autoStages(g, board, opts)
		if err != nil {
			return nil, err
		}
	}
	var stages []*Stage
	for i, tasks := range stageTasks {
		st, err := solveStage(g, board, tasks, opts)
		if err != nil {
			return nil, fmt.Errorf("partition: stage %d: %w", i, err)
		}
		st.Index = i
		stages = append(stages, st)
	}
	return stages, nil
}

func validateFixedStages(g *taskgraph.Graph, stages [][]string) error {
	seen := map[string]int{}
	for si, tasks := range stages {
		for _, t := range tasks {
			if g.TaskByName(t) == nil {
				return fmt.Errorf("partition: fixed stage %d names unknown task %s", si, t)
			}
			if prev, dup := seen[t]; dup {
				return fmt.Errorf("partition: task %s in stages %d and %d", t, prev, si)
			}
			seen[t] = si
		}
	}
	if len(seen) != len(g.Tasks) {
		return fmt.Errorf("partition: fixed stages cover %d of %d tasks", len(seen), len(g.Tasks))
	}
	// Dependencies must not point to later stages.
	for si, tasks := range stages {
		for _, t := range tasks {
			for _, d := range g.TaskByName(t).Deps {
				if seen[d] > si {
					return fmt.Errorf("partition: task %s (stage %d) depends on %s (stage %d)", t, si, d, seen[d])
				}
			}
		}
	}
	return nil
}

// autoStages greedily accumulates tasks in topological order, closing a
// stage when adding the next task yields no feasible spatial/memory
// solution.
func autoStages(g *taskgraph.Graph, board *rc.Board, opts Options) ([][]string, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	var stages [][]string
	var current []string
	for _, t := range order {
		candidate := append(append([]string(nil), current...), t)
		if _, err := solveStage(g, board, candidate, opts); err == nil {
			current = candidate
			continue
		}
		if len(current) == 0 {
			return nil, fmt.Errorf("partition: task %s alone does not fit the board", t)
		}
		stages = append(stages, current)
		current = []string{t}
		if _, err := solveStage(g, board, current, opts); err != nil {
			return nil, fmt.Errorf("partition: task %s alone does not fit the board: %w", t, err)
		}
	}
	if len(current) > 0 {
		stages = append(stages, current)
	}
	return stages, nil
}

// solveStage computes a full solution (spatial + memory + arbiters + pins)
// for one stage's task set, or an error if infeasible.
func solveStage(g *taskgraph.Graph, board *rc.Board, tasks []string, opts Options) (*Stage, error) {
	taskPE, err := assignTasks(g, board, tasks)
	if err != nil {
		return nil, err
	}
	st := &Stage{Tasks: append([]string(nil), tasks...), TaskPE: taskPE}
	if err := mapSegments(g, board, st, opts); err != nil {
		return nil, err
	}
	if err := checkAreaWithArbiters(g, board, st, opts); err != nil {
		return nil, err
	}
	if err := checkPins(g, board, st, opts); err != nil {
		return nil, err
	}
	return st, nil
}

// assignTasks places tasks on PEs: first-fit decreasing by area, preferring
// the PE with the highest segment-sharing affinity, then the most free
// space.
func assignTasks(g *taskgraph.Graph, board *rc.Board, tasks []string) (map[string]int, error) {
	sorted := append([]string(nil), tasks...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return g.TaskByName(sorted[i]).AreaCLBs > g.TaskByName(sorted[j]).AreaCLBs
	})
	load := make([]int, len(board.PEs))
	onPE := make([][]string, len(board.PEs))
	assign := map[string]int{}
	for _, name := range sorted {
		t := g.TaskByName(name)
		best, bestAff, bestFree := -1, -1, -1
		for pe := range board.PEs {
			free := board.PEs[pe].Device.CLBs - load[pe]
			if t.AreaCLBs > free {
				continue
			}
			aff := 0
			for _, other := range onPE[pe] {
				// Ordered (producer/consumer) sharing benefits from
				// co-location; unordered sharers serialize on the bank at
				// run time, so spreading them overlaps their compute.
				if g.Ordered(name, other) {
					aff += sharedSegments(g, name, other)
				} else {
					aff -= 2 * sharedSegments(g, name, other)
				}
			}
			if aff > bestAff || (aff == bestAff && free > bestFree) {
				best, bestAff, bestFree = pe, aff, free
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("task %s (%d CLBs) does not fit any PE", name, t.AreaCLBs)
		}
		assign[name] = best
		load[best] += t.AreaCLBs
		onPE[best] = append(onPE[best], name)
	}
	return assign, nil
}

func sharedSegments(g *taskgraph.Graph, a, b string) int {
	segs := map[string]bool{}
	for _, s := range g.TaskByName(a).Segments() {
		segs[s] = true
	}
	n := 0
	for _, s := range g.TaskByName(b).Segments() {
		if segs[s] {
			n++
		}
	}
	return n
}
