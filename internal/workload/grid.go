package workload

import (
	"fmt"
	"runtime"
	"strings"

	"sparcs/internal/arbiter"
	"sparcs/internal/sim"
)

// GridOptions parameterizes a policy×workload evaluation grid.
type GridOptions struct {
	// N is the arbiter size (default 6, the FFT case study's contended
	// arbiter).
	N int
	// Cycles is the run length per cell (default 200000).
	Cycles int
	// Seed derives every workload column's random stream (default 1).
	// Every policy in a column faces the identical arrival process, so
	// rows are directly comparable: a generated shape's cells share
	// arrival words drawn once per group of cells (see RunGridColumns).
	Seed uint64
}

func (o GridOptions) withDefaults() GridOptions {
	if o.N == 0 {
		o.N = 6
	}
	if o.Cycles == 0 {
		o.Cycles = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunGrid drives every policy spec under every workload spec and
// returns one Metrics per cell in row-major order (policies × workloads,
// workloads fastest). A nil policies or workloads slice evaluates the
// full default list (DefaultPolicies / DefaultWorkloads). It is the
// spec-string front end of RunGridColumns.
func RunGrid(policies, workloads []string, opt GridOptions) ([]*Metrics, error) {
	if workloads == nil {
		workloads = DefaultWorkloads()
	}
	cols := make([]Column, len(workloads))
	for i, ws := range workloads {
		cols[i] = SpecColumn(ws)
	}
	return RunGridColumns(policies, cols, opt)
}

// RunGridColumns drives every policy spec under every workload column —
// textual specs via SpecColumn, measured request streams via
// FromArbiterTrace/TraceColumn — returning one Metrics per cell in
// row-major order (policies × columns, columns fastest). A nil policies
// slice evaluates DefaultPolicies. The cells fan out across GOMAXPROCS
// workers via sim.ParallelFor in work units; results and their order
// are fully deterministic, whatever the units are.
//
// Every cell drives its own policy with its own closed loop, and a
// column's cells share one arrival process. A generated shape (the
// bernoulli family, bursty, markov) draws its arrivals apart from
// grants, so one generator can serve a group of its column's cells: the
// group's unit draws the arrival words once per block of cycles and
// replays them to every cell of the group, each cell running its own
// jobs loop over them, exactly as a generator of its own would. Groups
// are as large as keeps every worker busy: no group holds more than
// ceil(cells/GOMAXPROCS) cells, so on one worker a column is one group
// and the factory is called once per column, and with a worker per cell
// every cell draws its own. Any other column (trace replay,
// FromArbiterTrace, a caller's own generator) saves nothing by sharing,
// so each of its cells is a unit with a generator of its own, advanced
// on the same block loop. Memory does not grow with Cycles: a group
// holds one block of words.
//
// Every cell's policy and request stream are built and checked once,
// serially, before the fan-out, so a bad entry (including size-dependent
// constraints like hier group divisibility and trace widths, and a
// non-positive Cycles) fails before any cell runs. The workers cannot
// fail: each sets up the loop state its cells write every cycle, then
// drives them.
func RunGridColumns(policies []string, cols []Column, opt GridOptions) ([]*Metrics, error) {
	//sparcs:ignore determinism the worker count only groups cells into units; every cell's result is the same for any grouping
	return runGrid(policies, cols, opt, runtime.GOMAXPROCS(0))
}

// runGrid is RunGridColumns with the worker count that sizes the groups
// given.
func runGrid(policies []string, cols []Column, opt GridOptions, workers int) ([]*Metrics, error) {
	if policies == nil {
		policies = DefaultPolicies()
	}
	if len(policies) == 0 || len(cols) == 0 {
		return nil, fmt.Errorf("workload: grid needs at least one policy and one workload")
	}
	opt = opt.withDefaults()
	cells := len(policies) * len(cols)
	ps := make([]arbiter.Policy, cells)
	for pi, spec := range policies {
		sp, err := arbiter.ParsePolicySpec(spec)
		if err != nil {
			return nil, err
		}
		for wi := range cols {
			if ps[pi*len(cols)+wi], err = sp.New(opt.N); err != nil {
				return nil, fmt.Errorf("workload: policy %q at N=%d: %w", spec, opt.N, err)
			}
		}
	}
	group := groupSize(len(policies), cells, workers)
	var units []*gridUnit
	gens := make([]Generator, cells) // the generator that names each cell's stream
	for wi, col := range cols {
		if col.New == nil {
			return nil, fmt.Errorf("workload: column %q has no generator factory", col.Name)
		}
		var u *gridUnit
		for pi := range policies {
			if u == nil || u.src == nil || len(u.cells) == group {
				g, err := col.New(opt.N, columnSeed(opt.Seed, wi))
				if err != nil {
					return nil, err
				}
				u = &gridUnit{gen: g}
				u.src, _ = g.(arriver)
				units = append(units, u)
			}
			idx := pi*len(cols) + wi
			u.cells = append(u.cells, idx)
			gens[idx] = u.gen
		}
	}
	for idx := range cells {
		if err := checkDrive(ps[idx], gens[idx], opt.Cycles); err != nil {
			return nil, fmt.Errorf("workload: grid cell %s × %s: %w", policies[idx/len(cols)], cols[idx%len(cols)].Name, err)
		}
	}

	out := make([]*Metrics, cells)
	sim.ParallelFor(len(units), func(ui int) { units[ui].run(ps, out, opt.Cycles) })
	return out, nil
}

// groupSize is the most cells of a generated column one generator
// serves: a column's cells split evenly into the fewest groups of at
// most ceil(cells/workers) cells, the share of a worker were every cell
// a unit. One worker shares each column's draws among all its cells;
// more workers trade draws for parallel units.
func groupSize(policies, cells, workers int) int {
	share := ceilDiv(cells, max(workers, 1))
	return ceilDiv(policies, ceilDiv(policies, share))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// columnSeed derives column wi's seed from the grid seed. It depends
// only on the column, so every policy in a column faces the same arrival
// process.
func columnSeed(seed uint64, wi int) uint64 { return seed + uint64(wi)*0x9e3779b97f4a7c15 }

// gridBlock is the number of cycles a grid unit advances its cells at a
// time, and so the number of arrival words it holds: enough that the
// pass over the cells costs nothing per cycle (512 words ran as fast as
// 4,096), few enough to stay in the first-level cache.
const gridBlock = 512

// arriver is a generated shape: its arrival draws do not depend on
// grants, and NextBits is its jobs loop's step over them.
type arriver interface {
	Generator
	// arrive advances the draws one cycle and returns that cycle's
	// arrival word.
	arrive() arbiter.BitVec
	// newReplay returns a fresh copy of the jobs loop NextBits runs
	// over arrive's words, for one grid cell.
	newReplay() *replay
}

// replay is one grid cell's request stream in a generated shape's
// column: the cell's own jobs loop over the arrival words its unit drew,
// so it returns what a fresh generator of the shape would. It has no
// Reset: the words are the unit's, drawn once.
type replay struct {
	words []arbiter.BitVec // the unit's current block
	pos   int              // the next word to read in it
	jobs
}

// NextBits implements BitGenerator.
//
//sparcs:hotpath
func (r *replay) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	a := r.words[r.pos]
	r.pos++
	return r.step(prevGrant, a)
}

// gridUnit is the work of one worker at a time: its cells in policy
// order and the generator that names their stream. For a group of a
// generated column, src is that generator, drawing the block of arrival
// words the cells' replays read; otherwise the unit is one cell driving
// the generator itself.
type gridUnit struct {
	cells   []int // indices into the grid
	gen     Generator
	src     arriver
	words   []arbiter.BitVec
	replays []*replay
}

// run drives the unit's cells through every cycle, block by block, and
// stores their metrics in out. It sets up the cells' drivers and
// replays itself: the worker that writes their state every cycle
// allocates it, so cells on different workers share no cache line.
func (u *gridUnit) run(ps []arbiter.Policy, out []*Metrics, cycles int) {
	ds := make([]*driver, len(u.cells))
	for i, idx := range u.cells {
		var src BitGenerator = u.gen
		if u.src != nil {
			r := u.src.newReplay()
			u.replays = append(u.replays, r)
			src = r
		}
		ds[i] = newDriver(ps[idx], u.gen, src, cycles)
	}
	if u.src != nil {
		u.words = make([]arbiter.BitVec, min(gridBlock, cycles))
	}
	for left := cycles; left > 0; left -= gridBlock {
		k := min(gridBlock, left)
		u.fill(k)
		for _, d := range ds {
			d.advance(k)
		}
	}
	for i, idx := range u.cells {
		out[idx] = ds[i].flush()
	}
}

// fill draws the unit's next k arrival words and points every cell's
// replay at them. A unit without a shared generator has nothing to
// draw.
//
//sparcs:hotpath
func (u *gridUnit) fill(k int) {
	if u.src == nil {
		return
	}
	block := u.words[:k]
	for i := range block {
		block[i] = u.src.arrive()
	}
	for _, r := range u.replays {
		r.words, r.pos = block, 0
	}
}

// FormatTable renders grid results as an aligned fairness/wait/
// utilization table, one row per cell in input order. The p50/p99
// columns are percentile wait upper bounds derived from the log2
// WaitHist buckets (see Metrics.PercentileWait).
func FormatTable(cells []*Metrics) string {
	var b strings.Builder
	pw, ww := len("policy"), len("workload")
	for _, m := range cells {
		if len(m.Policy) > pw {
			pw = len(m.Policy)
		}
		if len(m.Workload) > ww {
			ww = len(m.Workload)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-*s  %6s  %6s  %5s  %9s  %5s  %5s  %8s  %8s  %s\n",
		pw, "policy", ww, "workload", "util", "demand", "jain",
		"mean_wait", "p50", "p99", "max_wait", "worst_ep", "violation")
	for _, m := range cells {
		viol := m.Violation
		if viol == "" {
			viol = "-"
		}
		fmt.Fprintf(&b, "%-*s  %-*s  %6.3f  %6.3f  %5.3f  %9.2f  %5d  %5d  %8d  %8d  %s\n",
			pw, m.Policy, ww, m.Workload,
			m.Utilization(), m.Demand(), m.Jain(),
			m.MeanWait(), m.PercentileWait(0.50), m.PercentileWait(0.99),
			m.MaxWait(), m.WorstEpisodes(), viol)
	}
	return b.String()
}
