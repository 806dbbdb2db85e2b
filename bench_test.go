// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the paper-vs-measured record):
//
//	BenchmarkFigure6ArbiterArea   — Figure 6, arbiter CLBs vs N
//	BenchmarkFigure7ArbiterClock  — Figure 7, arbiter MHz vs N
//	BenchmarkTable1SharedChannel  — Table 1 / Figure 3 channel sharing
//	BenchmarkSection5FFT          — Section 5 FFT case study timings
//	BenchmarkProtocolOverhead     — Section 4.3 two-cycle access protocol
//	BenchmarkAblationPolicies     — Section 4 policy comparison
//	BenchmarkAblationEncodings    — Section 4.2 encoding comparison
//	BenchmarkAblationElision      — Section 5 dependency-elision proposal
//	BenchmarkBoundedWait          — Section 4.1 N-1 wait bound
//
// Run with: go test -bench=. -benchmem
package sparcs_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sparcs"
	"sparcs/internal/arbinsert"
	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/core"
	"sparcs/internal/fft"
	"sparcs/internal/fsm"
	"sparcs/internal/partition"
	"sparcs/internal/rc"
	"sparcs/internal/sim"
	"sparcs/internal/synth"
	"sparcs/internal/workload"
)

var figureSizes = []int{2, 3, 4, 5, 6, 7, 8, 9, 10}

// BenchmarkFigure6ArbiterArea regenerates Figure 6: synthesized arbiter
// area in XC4000E CLBs for N in [2,10] under the three tool/encoding
// variants the paper plots.
func BenchmarkFigure6ArbiterArea(b *testing.B) {
	for _, v := range synth.Figure67Variants {
		for _, n := range figureSizes {
			m, err := arbiter.Machine(n)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/%s/N=%d", v.Tool.Name, v.Enc, n)
			b.Run(name, func(b *testing.B) {
				var clbs int
				for i := 0; i < b.N; i++ {
					r, _, err := synth.Run(m, v.Enc, v.Tool)
					if err != nil {
						b.Fatal(err)
					}
					clbs = r.CLBs
				}
				b.ReportMetric(float64(clbs), "CLBs")
			})
		}
	}
}

// BenchmarkFigure7ArbiterClock regenerates Figure 7: maximum arbiter clock
// in MHz under the same sweep.
func BenchmarkFigure7ArbiterClock(b *testing.B) {
	for _, v := range synth.Figure67Variants {
		for _, n := range figureSizes {
			m, err := arbiter.Machine(n)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/%s/N=%d", v.Tool.Name, v.Enc, n)
			b.Run(name, func(b *testing.B) {
				var mhz float64
				for i := 0; i < b.N; i++ {
					r, _, err := synth.Run(m, v.Enc, v.Tool)
					if err != nil {
						b.Fatal(err)
					}
					mhz = r.MaxMHz
				}
				b.ReportMetric(mhz, "MHz")
			})
		}
	}
}

// BenchmarkTable1SharedChannel regenerates the Table 1 scenario: two
// logical channels merged onto one physical channel; the receive register
// must preserve the early transfer for the late reader.
func BenchmarkTable1SharedChannel(b *testing.B) {
	g := table1Graph()
	programs := table1Programs()
	board := rc.Generic(2, wildforceDevice(), 32*1024, 36, 36)
	var cycles int
	for i := 0; i < b.N; i++ {
		d, err := core.Compile(g, board, programs, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		mem := sim.NewMemory()
		res, err := core.Simulate(d, mem, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if mem.Read("OUT", 0) != 10 || mem.Read("OUT", 1) != 102 {
			b.Fatalf("shared channel corrupted values: c1=%d c4=%d",
				mem.Read("OUT", 0), mem.Read("OUT", 1))
		}
		if len(res.Violations()) != 0 {
			b.Fatalf("violations: %v", res.Violations())
		}
		cycles = res.TotalCycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkSection5FFT regenerates the Section 5 case study: the 4x4 2-D
// FFT on the Wildforce model, reporting hardware seconds (512x512 image at
// 6 MHz), the Pentium-150 software model, and the speedup. Paper: HW 4.4 s,
// SW 6.8 s, speedup ~1.55x.
func BenchmarkSection5FFT(b *testing.B) {
	var cs *fftCaseStudy
	for i := 0; i < b.N; i++ {
		cs = runFFTCaseStudy(b, 6)
		if cs.outputErr != nil {
			b.Fatalf("hardware output does not match the FFT reference: %v", cs.outputErr)
		}
		if len(cs.res.Violations()) != 0 {
			b.Fatalf("violations: %v", cs.res.Violations())
		}
	}
	b.ReportMetric(cs.hwSeconds, "hw_s")
	b.ReportMetric(cs.swSeconds, "sw_s")
	b.ReportMetric(cs.speedup, "speedup")
	b.ReportMetric(cs.cyclesPerTile, "cycles/tile")
}

// BenchmarkProtocolOverhead measures the Section 4.3 claim: with an
// immediate grant, an arbitrated access group costs exactly two extra
// cycles over the bare accesses.
func BenchmarkProtocolOverhead(b *testing.B) {
	g := twoTaskGraph()
	bare := map[string]behav.Program{
		"A": {Body: []behav.Instr{behav.WriteImm("S", 0, 1), behav.WriteImm("S", 1, 2)}, Repeat: 50},
	}
	wrapped := map[string]behav.Program{
		"A": {Body: []behav.Instr{
			behav.Req("bank"), behav.WaitGrant("bank"),
			behav.WriteImm("S", 0, 1), behav.WriteImm("S", 1, 2),
			behav.Release("bank"),
		}, Repeat: 50},
	}
	spec := partition.ArbiterSpec{Resource: "bank", Members: []string{"A", "B"}}
	var overhead float64
	for i := 0; i < b.N; i++ {
		sBare, err := sim.Run(sim.Config{Graph: g, Tasks: []string{"A"}, Programs: bare})
		if err != nil {
			b.Fatal(err)
		}
		sWrap, err := sim.Run(sim.Config{
			Graph: g, Tasks: []string{"A"}, Programs: wrapped,
			Arbiters:          []partition.ArbiterSpec{spec},
			ResourceOfSegment: map[string]string{"S": "bank"},
		})
		if err != nil {
			b.Fatal(err)
		}
		overhead = float64(sWrap.Cycles-sBare.Cycles) / 50
	}
	b.ReportMetric(overhead, "extra_cycles/group")
}

// BenchmarkAblationPolicies compares the four arbitration policies the
// paper examined under sustained M=2 contention: grant spread and
// worst-case wait episodes.
func BenchmarkAblationPolicies(b *testing.B) {
	const n = 6
	for _, name := range []string{"round-robin", "fifo", "priority", "random"} {
		b.Run(name, func(b *testing.B) {
			var worst, minG, maxG float64
			for i := 0; i < b.N; i++ {
				pol, err := arbiter.NewPolicy(name, n)
				if err != nil {
					b.Fatal(err)
				}
				worst, minG, maxG = contentionRun(pol, n, 4000)
			}
			b.ReportMetric(worst, "worst_wait_episodes")
			b.ReportMetric(minG, "min_grants")
			b.ReportMetric(maxG, "max_grants")
		})
	}
}

// BenchmarkAblationEncodings compares FSM encodings through the same
// pipeline at N=6 (FPGA Express model, which honors the request).
func BenchmarkAblationEncodings(b *testing.B) {
	m, err := arbiter.Machine(6)
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []fsm.Encoding{fsm.OneHot, fsm.Compact, fsm.Gray} {
		b.Run(enc.String(), func(b *testing.B) {
			var clbs int
			var mhz float64
			for i := 0; i < b.N; i++ {
				r, _, err := synth.Run(m, enc, synth.Express)
				if err != nil {
					b.Fatal(err)
				}
				clbs, mhz = r.CLBs, r.MaxMHz
			}
			b.ReportMetric(float64(clbs), "CLBs")
			b.ReportMetric(mhz, "MHz")
		})
	}
}

// BenchmarkAblationElision compares dependency-aware insertion (the
// paper's Section 5 proposal, our default) with the conservative mode on
// the FFT design: total arbiter request lines and total cycles.
func BenchmarkAblationElision(b *testing.B) {
	for _, mode := range []struct {
		name         string
		conservative bool
	}{{"dep-aware", false}, {"conservative", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var lines, cycles float64
			for i := 0; i < b.N; i++ {
				tiles := 4
				opts := core.Options{
					Partition: partition.Options{FixedStages: fft.PaperStages(), Conservative: mode.conservative},
				}
				g := fft.Taskgraph()
				d, err := core.Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
				if err != nil {
					b.Fatal(err)
				}
				mem := sim.NewMemory()
				in := fft.LoadInput(mem, tiles, 1)
				res, err := core.Simulate(d, mem, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := fft.CheckOutput(mem, in); err != nil {
					b.Fatal(err)
				}
				l := 0
				for _, sp := range d.Stages {
					for _, a := range sp.Inserted.Arbiters {
						l += a.N()
					}
				}
				lines, cycles = float64(l), float64(res.TotalCycles)
			}
			b.ReportMetric(lines, "arb_lines")
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkBoundedWait verifies the Section 4.1 bound empirically: the
// worst wait under adversarial traffic never exceeds N-1 grant episodes.
func BenchmarkBoundedWait(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				worst, _, _ = contentionRun(arbiter.NewRoundRobin(n), n, 4000)
				if int(worst) > n-1 {
					b.Fatalf("worst wait %d exceeds bound %d", int(worst), n-1)
				}
			}
			b.ReportMetric(worst, "worst_wait_episodes")
			b.ReportMetric(float64(n-1), "bound")
		})
	}
}

// contentionRun drives a policy with persistent requesters following the
// M=2 protocol and returns (worst wait episodes, min grants, max grants).
func contentionRun(pol arbiter.Policy, n, cycles int) (worst, minG, maxG float64) {
	r := rand.New(rand.NewSource(int64(n)))
	req := make([]bool, n)
	held := make([]int, n)
	grants := make([]int, n)
	var trace []arbiter.TraceStep
	for c := 0; c < cycles; c++ {
		for i := range req {
			if held[i] >= 2 {
				req[i] = false
				held[i] = 0
			} else if !req[i] {
				req[i] = r.Intn(4) != 0
			}
		}
		g := make([]bool, n)
		pol.StepBits(arbiter.PackBools(req)).WriteBools(g)
		for i := range g {
			if g[i] {
				grants[i]++
				held[i]++
			}
		}
		trace = append(trace, arbiter.TraceStep{Req: arbiter.PackBools(req), Grant: arbiter.PackBools(g)})
	}
	w := 0
	for _, e := range arbiter.MaxWaitEpisodes(n, trace) {
		if e > w {
			w = e
		}
	}
	lo, hi := grants[0], grants[0]
	for _, g := range grants[1:] {
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	return float64(w), float64(lo), float64(hi)
}

// BenchmarkSimFFTStage measures raw simulator cycle throughput on the
// contended first temporal partition of the Section 5 FFT case study
// (6-input and 2-input arbiters active). This is the hot-loop benchmark
// tracked in BENCH_sim.json; CI smokes it with -bench=BenchmarkSim.
func BenchmarkSimFFTStage(b *testing.B) {
	tiles := 6
	g := fft.Taskgraph()
	opts := core.Options{Partition: partition.Options{FixedStages: fft.PaperStages()}}
	d, err := core.Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
	if err != nil {
		b.Fatal(err)
	}
	sp := d.Stages[0]
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mem := sim.NewMemory()
		fft.LoadInput(mem, tiles, 42)
		b.StartTimer()
		stats, err := sim.Run(sim.Config{
			Graph:             g,
			Tasks:             sp.Stage.Tasks,
			Programs:          sp.Inserted.Programs,
			Arbiters:          sp.Inserted.Arbiters,
			ResourceOfSegment: sp.Inserted.ResourceOfSegment,
			ResourceOfChannel: sp.Inserted.ResourceOfChannel,
			Memory:            mem,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(stats.Violations) != 0 {
			b.Fatalf("violations: %v", stats.Violations)
		}
		cycles += int64(stats.Cycles)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkSimContention measures the simulator under background
// contention on sim-long's design, FFTSystem(24): rr and wrr:2 under no
// contention, M1=bernoulli:0.30/4, M1=hotspot:0.90/2 and
// M1+M3=corr:0.25/1, and M1=hog/2 under preemptive:4 only (under rr the
// hog starves the design into the stage watchdog). It reports ns per
// simulated cycle and allocs/op; CI smokes it with -bench=BenchmarkSim.
func BenchmarkSimContention(b *testing.B) {
	const tiles = 24
	sys, err := sparcs.FFTSystem(tiles)
	if err != nil {
		b.Fatal(err)
	}
	type run struct{ policy, name, contention string }
	var runs []run
	for _, p := range []string{"rr", "wrr:2"} {
		runs = append(runs,
			run{p, "none", ""},
			run{p, "bernoulli", "M1=bernoulli:0.30/4"},
			run{p, "hotspot", "M1=hotspot:0.90/2"},
			run{p, "corr", "M1+M3=corr:0.25/1"})
	}
	runs = append(runs, run{"preemptive:4", "hog", "M1=hog/2"})
	for _, r := range runs {
		b.Run(r.policy+"/"+r.name, func(b *testing.B) {
			var cycles int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mem := sparcs.NewMemory()
				sparcs.LoadFFTInput(mem, tiles, 1)
				opts := []sparcs.RunOption{sparcs.WithPolicy(r.policy), sparcs.WithSeed(1), sparcs.WithMemory(mem)}
				if r.contention != "" {
					opts = append(opts, sparcs.WithContention(r.contention))
				}
				b.StartTimer()
				res, err := sys.Run(opts...)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations()) != 0 {
					b.Fatalf("violations: %v", res.Violations())
				}
				cycles += int64(res.TotalCycles)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
		})
	}
}

// BenchmarkSimSweep measures the parallel sweep runner: System.Sweep
// fanning independent full FFT simulations (all three temporal
// partitions each) over GOMAXPROCS workers, the shape of every
// paper-table sweep above.
func BenchmarkSimSweep(b *testing.B) {
	const tiles, points = 4, 16
	sys, err := sparcs.FFTSystem(tiles)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sweep := make([][]sparcs.RunOption, points)
		for p := range sweep {
			mem := sparcs.NewMemory()
			sparcs.LoadFFTInput(mem, tiles, int64(p))
			sweep[p] = []sparcs.RunOption{sparcs.WithMemory(mem)}
		}
		b.StartTimer()
		results, err := sys.Sweep(sweep...)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if len(r.Violations()) != 0 {
				b.Fatalf("violations: %v", r.Violations())
			}
			cycles += int64(r.TotalCycles)
		}
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkAblationM sweeps the M parameter (accesses per grant,
// Figure 8): larger M amortizes the two-cycle protocol over more accesses
// but lengthens each hold.
func BenchmarkAblationM(b *testing.B) {
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				tiles := 4
				opts := core.Options{
					Partition: partition.Options{FixedStages: fft.PaperStages()},
					Insert:    arbinsert.Options{M: m},
				}
				g := fft.Taskgraph()
				d, err := core.Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
				if err != nil {
					b.Fatal(err)
				}
				mem := sim.NewMemory()
				in := fft.LoadInput(mem, tiles, 2)
				res, err := core.Simulate(d, mem, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := fft.CheckOutput(mem, in); err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.TotalCycles) / float64(tiles)
			}
			b.ReportMetric(cycles, "cycles/tile")
		})
	}
}

// BenchmarkAblationHoldThrough compares the Figure 8 rewrite with the
// paper's suggested alternative task-modification scheme (grants held
// through short computations) on the FFT design.
func BenchmarkAblationHoldThrough(b *testing.B) {
	for _, hold := range []int{0, 2} {
		b.Run(fmt.Sprintf("hold=%d", hold), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				tiles := 4
				opts := core.Options{
					Partition: partition.Options{FixedStages: fft.PaperStages()},
					Insert:    arbinsert.Options{HoldThrough: hold},
				}
				g := fft.Taskgraph()
				d, err := core.Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
				if err != nil {
					b.Fatal(err)
				}
				mem := sim.NewMemory()
				in := fft.LoadInput(mem, tiles, 2)
				res, err := core.Simulate(d, mem, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := fft.CheckOutput(mem, in); err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.TotalCycles) / float64(tiles)
			}
			b.ReportMetric(cycles, "cycles/tile")
		})
	}
}

// BenchmarkPreemption exercises the paper's future-work extension: the
// preemptive round-robin bounds a hog's hold time while preserving all
// safety properties.
func BenchmarkPreemption(b *testing.B) {
	const n = 4
	for _, mode := range []string{"plain", "preemptive"} {
		b.Run(mode, func(b *testing.B) {
			var starvedCycles float64
			for i := 0; i < b.N; i++ {
				var pol arbiter.Policy
				if mode == "plain" {
					pol = arbiter.NewRoundRobin(n)
				} else {
					p, err := arbiter.NewPreemptiveRoundRobin(n, 4)
					if err != nil {
						b.Fatal(err)
					}
					pol = p
				}
				// Task 1 never releases; tasks 2..4 wait politely.
				req := arbiter.Mask(n)
				waiting := 0
				for c := 0; c < 1000; c++ {
					if pol.StepBits(req)&^1 == 0 {
						waiting++
					}
				}
				starvedCycles = float64(waiting)
			}
			b.ReportMetric(starvedCycles, "cycles_others_starved")
		})
	}
}

// BenchmarkPolicyWorkload measures the contention-workload engine's
// aggregate arbitration throughput: a 16-cell grid of cheap behavioral
// policies under four traffic shapes at N=6 (the FFT case study's
// contended arbiter size), fanned across GOMAXPROCS workers by
// workload.RunGrid. The reported cycles/sec metric is total
// arbitrated cycles across all cells divided by wall-clock time
// (tracked in BENCH_sim.json; the acceptance floor is 10M cycles/sec).
func BenchmarkPolicyWorkload(b *testing.B) {
	policies := []string{"rr", "priority", "wrr:2", "hier:2"}
	workloads := []string{"bernoulli:0.30", "hotspot:0.90", "hog", "trace"}
	cells := len(policies) * len(workloads)
	b.ReportAllocs()
	ms, err := workload.RunGrid(policies, workloads, workload.GridOptions{N: 6, Cycles: max(b.N, 1), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range ms {
		if m.Violation != "" {
			b.Fatalf("%s × %s: %s", m.Policy, m.Workload, m.Violation)
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkPolicyWorkloadWide measures the bitset kernel at width: the
// full behavioral policy set (every kind the uint64 kernel serves —
// fsm/netlist excluded, they stop at MaxSynthN) under four traffic
// shapes, at the pre-bitset cap N=16 and the full request word N=64.
// Tracked in BENCH_sim.json next to the N=6 grid; allocs/op must stay 0
// at both widths.
func BenchmarkPolicyWorkloadWide(b *testing.B) {
	policies := []string{"rr", "fifo", "priority", "random:1", "preemptive:4", "wrr:2", "hier:2"}
	workloads := []string{"bernoulli:0.30", "hotspot:0.90", "hog", "trace"}
	cells := len(policies) * len(workloads)
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			ms, err := workload.RunGrid(policies, workloads, workload.GridOptions{N: n, Cycles: max(b.N, 1), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range ms {
				if m.Violation != "" {
					b.Fatalf("%s × %s: %s", m.Policy, m.Workload, m.Violation)
				}
			}
			b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkPolicyWorkloadNarrow measures grids with fewer columns than
// a host has cores, where the grid must split a generated column's cells
// across workers to use them: the seven behavioral policies under one
// generated column, one trace column, and two generated columns, at N=6
// and N=64. Tracked in BENCH_sim.json at -cpu 1, 2 and 4; allocs/op
// must stay 0.
func BenchmarkPolicyWorkloadNarrow(b *testing.B) {
	policies := []string{"rr", "fifo", "priority", "random:1", "preemptive:4", "wrr:2", "hier:2"}
	for _, workloads := range [][]string{{"bernoulli:0.30"}, {"trace"}, {"bernoulli:0.30", "hog"}} {
		cells := len(policies) * len(workloads)
		for _, n := range []int{6, 64} {
			b.Run(fmt.Sprintf("%s/N=%d", strings.Join(workloads, "+"), n), func(b *testing.B) {
				b.ReportAllocs()
				ms, err := workload.RunGrid(policies, workloads, workload.GridOptions{N: n, Cycles: max(b.N, 1), Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range ms {
					if m.Violation != "" {
						b.Fatalf("%s × %s: %s", m.Policy, m.Workload, m.Violation)
					}
				}
				b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}

// BenchmarkScenarioChurn measures the online dynamic-reconfiguration
// engine end to end: eight FFT jobs arriving through a bursty process
// onto a two-resident fabric, placed by the strip allocator, their
// reconfigurations hidden behind execution by the hybrid prefetcher.
// The metric is simulated scenario cycles per wall-clock second —
// the per-cycle hot loop (engine.stepCycle) plus the staged sim runs,
// which without cross-contention run once per class, not per job.
// Tracked in BENCH_sim.json; CI smokes it with -bench=BenchmarkScenarioChurn.
func BenchmarkScenarioChurn(b *testing.B) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sparcs.ScenarioConfig{
		Entries:         []sparcs.ScenarioEntry{{System: sys}},
		Arrivals:        "bursty/256",
		Jobs:            8,
		Seed:            1,
		Prefetch:        sparcs.PrefetchHybrid,
		FabricCols:      192,
		FabricRows:      24,
		CompactionDelay: 64,
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparcs.RunScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles += int64(res.Makespan)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}
