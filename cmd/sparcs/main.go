// Command sparcs runs the integrated partitioning/synthesis/arbitration
// flow (paper Figure 9) on a built-in design and reports the temporal
// partitions, memory maps, inserted arbiters, and cycle-accurate
// simulation results — or, in arbbench mode, benchmarks every
// arbitration policy against synthetic contention workloads.
//
// Usage:
//
//	sparcs -design fft                  # the paper's Section 5 case study
//	sparcs -design fft -conservative    # without dependency elision
//	sparcs -design fft -auto            # automatic temporal partitioning
//	sparcs -design fft -policy fifo     # swap the arbitration policy
//	sparcs -policy preemptive:8         # parameterized policy specs
//
//	sparcs -mode arbbench               # full policy×workload grid
//	sparcs -mode arbbench -n 8 -cycles 1000000 -policies rr,wrr:3 -workloads hog
//
//	sparcs -contend M1=bursty/1              # FFT under background contention
//	sparcs -contend M1+M3=corr:0.25/1        # correlated hold-M1-wait-M3 source
//	sparcs -mode arbbench -fft-column        # measured FFT traffic as a grid column
//
//	sparcs -mode scenario               # online arrive/depart grid
//	sparcs -mode scenario -scn-jobs 12 -scn-arrivals bursty/256 -tiles 2
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"sparcs"
	"sparcs/internal/arbiter"
	"sparcs/internal/fft"
	"sparcs/internal/sim"
	"sparcs/internal/workload"
)

func main() {
	mode := flag.String("mode", "flow", "flow (compile+simulate a design) or arbbench (policy×workload contention grid)")
	design := flag.String("design", "fft", "built-in design: fft")
	tiles := flag.Int("tiles", 8, "tiles to simulate per temporal partition")
	auto := flag.Bool("auto", false, "use automatic temporal partitioning instead of the paper's 3-stage split")
	conservative := flag.Bool("conservative", false, "disable dependency-based arbiter elision")
	policy := flag.String("policy", "round-robin", "arbitration policy spec (rr, fifo, priority, random:<seed>, fsm, netlist:<encoding>, preemptive:<maxHold>, wrr:<weights>, hier:<groups>)")
	m := flag.Int("m", 2, "accesses per grant before the request is released (Figure 8)")
	contend := flag.String("contend", "", "flow: background contention specs, comma-separated: resource=workload[/lines] (e.g. M1=bursty/1) or correlated res1+res2=workload[/lanes] (e.g. M1+M3=corr:0.25/1)")
	contendSeed := flag.Uint64("contend-seed", 1, "flow: random seed for the background generators")
	maxCycles := flag.Int("max-cycles", 0, "flow: per-stage cycle watchdog (0 = 10M, or 1M when -contend is set)")
	n := flag.Int("n", 6, "arbbench: request lines per arbiter")
	cycles := flag.Int("cycles", 200_000, "arbbench: cycles per grid cell")
	seed := flag.Uint64("seed", 1, "arbbench: workload random seed")
	policies := flag.String("policies", "", "arbbench: comma-separated policy specs (empty = all)")
	workloads := flag.String("workloads", "", "arbbench: comma-separated workload specs (empty = all)")
	fftColumn := flag.Bool("fft-column", false, "arbbench: capture the FFT case study's measured request stream (its -n line arbiter, under -policy) and add it as a grid column")
	scnJobs := flag.Int("scn-jobs", 8, "scenario: number of arriving jobs")
	scnArrivals := flag.String("scn-arrivals", "", "scenario: comma-separated arrival specs, shape[:param][/stride] (empty = defaults)")
	scnPlacements := flag.String("scn-placements", "", "scenario: comma-separated placement modes, firstfit/bestfit (empty = both)")
	scnPrefetch := flag.String("scn-prefetch", "", "scenario: comma-separated prefetch modes, none/hybrid (empty = both)")
	scnCols := flag.Int("scn-cols", 0, "scenario: fabric CLB columns (0 = 384, four Wildforce boards side by side)")
	scnRows := flag.Int("scn-rows", 0, "scenario: fabric CLB rows (0 = 24)")
	scnCLB := flag.Int("scn-clb-cycles", 1, "scenario: reconfiguration cycles per CLB")
	scnCompact := flag.Int("scn-compact", 64, "scenario: delayed-compaction trigger in cycles (negative disables)")
	scnCross := flag.String("scn-cross", "", "scenario: cross-resident contention workload spec (empty = none)")
	flag.Parse()

	var err error
	switch *mode {
	case "flow":
		err = runFlow(flowOptions{
			design: *design, tiles: *tiles, auto: *auto, conservative: *conservative,
			policy: *policy, m: *m,
			contend: *contend, contendSeed: *contendSeed, maxCycles: *maxCycles,
		})
	case "arbbench":
		err = runArbbench(arbbenchOptions{
			n: *n, cycles: *cycles, seed: *seed,
			policies: splitList(*policies), workloads: splitList(*workloads),
			fftColumn: *fftColumn, fftTiles: *tiles, fftPolicy: *policy,
		})
	case "scenario":
		err = runScenario(scenarioOptions{
			tiles: *tiles, policy: *policy, jobs: *scnJobs, seed: *seed,
			arrivals:   splitList(*scnArrivals),
			placements: splitList(*scnPlacements),
			prefetches: splitList(*scnPrefetch),
			cols:       *scnCols, rows: *scnRows,
			perCLB: *scnCLB, compactDelay: *scnCompact, cross: *scnCross,
		})
	default:
		err = fmt.Errorf("unknown mode %q (flow, arbbench, or scenario)", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// splitList parses a comma-separated flag; empty means "use defaults"
// (signalled as nil).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

type arbbenchOptions struct {
	n, cycles           int
	seed                uint64
	policies, workloads []string
	fftColumn           bool
	fftTiles            int
	fftPolicy           string
}

// runArbbench prints the deterministic policy×workload grid of
// fairness, wait, and utilization metrics. With -fft-column, the FFT
// case study's measured request stream joins the synthetic columns.
func runArbbench(o arbbenchOptions) error {
	// Reject out-of-range values instead of letting the engine's
	// zero-means-default substitution contradict the printed header.
	if o.n < arbiter.MinN || o.n > arbiter.MaxN {
		return fmt.Errorf("arbbench: -n must be in [%d,%d], got %d", arbiter.MinN, arbiter.MaxN, o.n)
	}
	// Per-policy bounds differ: synthesized kinds (fsm, netlist) stop at
	// arbiter.MaxSynthN while the behavioral bitset kernel runs to MaxN.
	// Name the offending policy and its own bound instead of failing one
	// grid cell deep.
	policies := o.policies
	if policies == nil {
		policies = workload.DefaultPolicies()
	}
	for _, ps := range policies {
		sp, err := arbiter.ParsePolicySpec(ps)
		if err != nil {
			return fmt.Errorf("arbbench: %w", err)
		}
		if max := sp.MaxN(); o.n > max {
			return fmt.Errorf("arbbench: policy %s supports at most %d request lines, got -n %d (drop it from -policies to bench the wider kinds)",
				ps, max, o.n)
		}
	}
	if o.cycles < 1 {
		return fmt.Errorf("arbbench: -cycles must be positive, got %d", o.cycles)
	}
	if o.seed == 0 {
		return fmt.Errorf("arbbench: -seed must be nonzero")
	}
	specs := o.workloads
	if specs == nil {
		specs = workload.DefaultWorkloads()
	}
	cols := make([]workload.Column, len(specs))
	for i, ws := range specs {
		cols[i] = workload.SpecColumn(ws)
	}
	if o.fftColumn {
		// The request stream of the FFT case study's first -n line
		// arbiter (n=6 selects the paper's contended bank), captured
		// under -policy: closed-loop traffic, so the capture policy is
		// part of the measurement.
		if err := checkTiles("arbbench", o.fftTiles); err != nil {
			return err
		}
		sys, err := sparcs.FFTSystem(o.fftTiles)
		if err != nil {
			return err
		}
		mem := sparcs.NewMemory()
		sparcs.LoadFFTInput(mem, o.fftTiles, 42)
		res, err := sys.Run(sparcs.WithPolicy(o.fftPolicy), sparcs.WithCapture(), sparcs.WithMemory(mem))
		if err != nil {
			return err
		}
		col, err := res.ColumnByWidth("fft", o.n)
		if err != nil {
			return err
		}
		cols = append(cols, col)
	}
	cells, err := workload.RunGridColumns(o.policies, cols, workload.GridOptions{N: o.n, Cycles: o.cycles, Seed: o.seed})
	if err != nil {
		return err
	}
	fmt.Printf("== arbitration bench: N=%d, %d cycles/cell, seed %d ==\n", o.n, o.cycles, o.seed)
	fmt.Print(workload.FormatTable(cells))
	return nil
}

// checkTiles rejects tile counts below one. FFTSystem would substitute
// its default of 6 while the caller loads, checks and reports the flag's
// value, and a negative count cannot size the input image at all.
func checkTiles(mode string, tiles int) error {
	if tiles < 1 {
		return fmt.Errorf("%s: -tiles must be positive, got %d", mode, tiles)
	}
	return nil
}

type flowOptions struct {
	design             string
	tiles              int
	auto, conservative bool
	policy             string
	m                  int
	contend            string
	contendSeed        uint64
	maxCycles          int
}

func runFlow(o flowOptions) error {
	if o.design != "fft" {
		return fmt.Errorf("unknown design %q (only fft is built in)", o.design)
	}
	if err := checkTiles("flow", o.tiles); err != nil {
		return err
	}
	// Validate the policy spec up front: WithPolicy only checks it at
	// Run time, after the compilation report has already printed. The
	// contention spec needs no guard — WithExpectedContention parses it
	// inside Build, before any output.
	if _, err := arbiter.ParsePolicySpec(o.policy); err != nil {
		return err
	}

	// Build once: the compiled design is fixed, and the expected
	// background load prices every arbiter at its simulated width in the
	// memory mapper (contention-aware partitioning).
	build := []sparcs.BuildOption{
		sparcs.WithAccessesPerGrant(o.m),
		sparcs.WithExpectedContention(o.contend),
	}
	if o.conservative {
		build = append(build, sparcs.WithConservativeArbitration())
	}
	var sys *sparcs.System
	var err error
	if o.auto {
		sys, err = sparcs.Build(fft.Taskgraph(), sparcs.Wildforce(), fft.Programs(o.tiles), build...)
	} else {
		sys, err = sparcs.FFTSystem(o.tiles, build...)
	}
	if err != nil {
		return err
	}
	fmt.Print(sys.Report())

	maxCycles := o.maxCycles
	if maxCycles == 0 && strings.TrimSpace(o.contend) != "" {
		// Background hogs can starve the design forever; bound the
		// watchdog so a starved run reports quickly instead of spinning
		// ten million cycles.
		maxCycles = 1_000_000
	}
	mem := sparcs.NewMemory()
	in := sparcs.LoadFFTInput(mem, o.tiles, 42)
	res, err := sys.Run(
		sparcs.WithPolicy(o.policy),
		sparcs.WithContention(o.contend),
		sparcs.WithSeed(o.contendSeed),
		sparcs.WithMaxCycles(maxCycles),
		sparcs.WithMemory(mem),
	)
	if err != nil {
		return err
	}
	tiles := o.tiles
	fmt.Println("== simulation ==")
	for si, ss := range res.Stages {
		fmt.Printf("temporal partition #%d: %d cycles", si, ss.Stats.Cycles)
		if w := totalWait(ss.Stats.WaitCycles); w > 0 {
			fmt.Printf(", %d grant-wait cycles", w)
		}
		if len(ss.Stats.Violations) > 0 {
			fmt.Printf(", VIOLATIONS: %d", len(ss.Stats.Violations))
		}
		fmt.Println()
		printContention(ss.Stats)
	}
	if err := sparcs.CheckFFTOutput(mem, in); err != nil {
		fmt.Println("output check: FAIL:", err)
	} else {
		fmt.Println("output check: PASS (hardware memory image == fixed-point 2-D FFT)")
	}

	cpt := float64(res.TotalCycles) / float64(tiles)
	fmt.Printf("\n== 512x512 image timing (paper: HW 4.4 s, SW 6.8 s) ==\n")
	fmt.Printf("cycles/tile: %.1f\n", cpt)
	fmt.Printf("hardware @ %.0f MHz: %.2f s\n", fft.ClockMHz, fft.HardwareSeconds(cpt, 512))
	fmt.Printf("software (Pentium-150 model): %.2f s\n", fft.SoftwareSeconds(512))
	fmt.Printf("speedup: %.2fx\n", fft.SoftwareSeconds(512)/fft.HardwareSeconds(cpt, 512))
	return nil
}

type scenarioOptions struct {
	tiles, jobs                      int
	seed                             uint64
	policy                           string
	arrivals, placements, prefetches []string
	cols, rows                       int
	perCLB, compactDelay             int
	cross                            string
}

// runScenario prints the online arrive/depart grid: for each arrival
// process, every placement × prefetch combination's makespan against
// the offline oracle bound, with reconfiguration-stall and queueing
// statistics. The same compiled FFT System templates every job.
func runScenario(o scenarioOptions) error {
	if o.jobs < 1 {
		return fmt.Errorf("scenario: -scn-jobs must be positive, got %d", o.jobs)
	}
	if err := checkTiles("scenario", o.tiles); err != nil {
		return err
	}
	arrivals := o.arrivals
	if arrivals == nil {
		arrivals = []string{"bernoulli:0.001", "bursty/256", "markov/256"}
	}
	placements := o.placements
	if placements == nil {
		placements = []string{sparcs.PlaceFirstFit, sparcs.PlaceBestFit}
	}
	prefetches := o.prefetches
	if prefetches == nil {
		prefetches = []string{sparcs.PrefetchNone, sparcs.PrefetchHybrid}
	}
	cols, rows := o.cols, o.rows
	if cols == 0 {
		cols = 384
	}
	if rows == 0 {
		rows = 24
	}
	sys, err := sparcs.FFTSystem(o.tiles)
	if err != nil {
		return err
	}
	entry := sparcs.ScenarioEntry{
		Name:    "fft",
		System:  sys,
		Options: []sparcs.RunOption{sparcs.WithPolicy(o.policy)},
	}
	fmt.Printf("== scenario: %d fft jobs (tiles %d, footprint %d CLBs) on a %dx%d fabric, %d cycle(s)/CLB, seed %d ==\n",
		o.jobs, o.tiles, sys.FootprintCLBs(), cols, rows, o.perCLB, o.seed)
	for _, arr := range arrivals {
		fmt.Printf("\n-- arrivals %s --\n", arr)
		fmt.Printf("%-9s %-7s %9s %9s %6s %7s %6s %8s %7s\n",
			"placement", "prefetch", "makespan", "oracle", "ratio", "stall%", "port%", "p99wait", "compact")
		for _, pl := range placements {
			for _, pf := range prefetches {
				res, err := sparcs.RunScenario(sparcs.ScenarioConfig{
					Entries:              []sparcs.ScenarioEntry{entry},
					Arrivals:             arr,
					Jobs:                 o.jobs,
					Seed:                 o.seed,
					Placement:            pl,
					Prefetch:             pf,
					ReconfigCyclesPerCLB: o.perCLB,
					CompactionDelay:      o.compactDelay,
					FabricCols:           cols,
					FabricRows:           rows,
					CrossContention:      o.cross,
				})
				if err != nil {
					return err
				}
				fmt.Printf("%-9s %-7s %9d %9d %6.2f %6.1f%% %5.1f%% %8d %7d\n",
					pl, pf, res.Makespan, res.OracleMakespan,
					float64(res.Makespan)/float64(res.OracleMakespan),
					100*res.StallFraction, 100*res.PortBusyFraction,
					res.QueueWaitP99, res.Compactions)
			}
		}
	}
	return nil
}

// printContention reports the background phantom lines' grants and
// waits for one stage, in sorted resource order, followed by every
// correlated source's cross-resource hold-and-wait statistics.
func printContention(st *sim.Stats) {
	if len(st.Contention) > 0 {
		resources := make([]string, 0, len(st.Contention))
		for r := range st.Contention {
			resources = append(resources, r)
		}
		sort.Strings(resources)
		for _, r := range resources {
			cs := st.Contention[r]
			fmt.Printf("  background on %s: grants %v, wait cycles %v\n", r, cs.Grants, cs.Waits)
		}
	}
	for _, sh := range st.Shared {
		fmt.Printf("  correlated %s over %s: grants %v, waits %v, hold-and-wait %d, all-held %d\n",
			sh.Name, strings.Join(sh.Resources, "+"), sh.Grants, sh.Waits, sh.HoldWait, sh.AllHeld)
	}
}

func totalWait(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
