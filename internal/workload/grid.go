package workload

import (
	"fmt"
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
	// The same seed gives every policy in a column the identical
	// arrival process, so rows are directly comparable.
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
// slice evaluates DefaultPolicies. Cells are independent — each drives
// its own policy and its own generator from the column recipe — and fan
// out across GOMAXPROCS workers via sim.ParallelFor; results and their
// order are fully deterministic.
//
// Every cell's policy and generator are built once, serially, before
// the fan-out, so a bad entry (including size-dependent constraints like
// hier group divisibility and trace widths) fails before any cell runs
// and the workers only drive.
func RunGridColumns(policies []string, cols []Column, opt GridOptions) ([]*Metrics, error) {
	if policies == nil {
		policies = DefaultPolicies()
	}
	if len(policies) == 0 || len(cols) == 0 {
		return nil, fmt.Errorf("workload: grid needs at least one policy and one workload")
	}
	opt = opt.withDefaults()
	cells := len(policies) * len(cols)
	ps := make([]arbiter.Policy, cells)
	gs := make([]Generator, cells)
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
	for wi, col := range cols {
		if col.New == nil {
			return nil, fmt.Errorf("workload: column %q has no generator factory", col.Name)
		}
		// Column seed depends only on the workload, so every policy in
		// a column faces the same arrival process.
		seed := opt.Seed + uint64(wi)*0x9e3779b97f4a7c15
		for pi := range policies {
			g, err := col.New(opt.N, seed)
			if err != nil {
				return nil, err
			}
			gs[pi*len(cols)+wi] = g
		}
	}

	out := make([]*Metrics, cells)
	errs := make([]error, cells)
	sim.ParallelFor(cells, func(idx int) {
		out[idx], errs[idx] = Drive(ps[idx], gs[idx], opt.Cycles)
	})
	for idx, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload: grid cell %s × %s: %w",
				policies[idx/len(cols)], cols[idx%len(cols)].Name, err)
		}
	}
	return out, nil
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
