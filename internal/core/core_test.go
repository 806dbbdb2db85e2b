package core

import (
	"reflect"
	"strings"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/fft"
	"sparcs/internal/fsm"
	"sparcs/internal/partition"
	"sparcs/internal/rc"
	"sparcs/internal/sim"
	"sparcs/internal/xc4000"
)

func compileFFT(t *testing.T, tiles int, opts Options) (*Design, *sim.Memory, [][]int64) {
	t.Helper()
	g := fft.Taskgraph()
	d, err := Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMemory()
	in := fft.LoadInput(mem, tiles, 42)
	return d, mem, in
}

func paperOpts() Options {
	return Options{Partition: partition.Options{FixedStages: fft.PaperStages()}}
}

// TestFFTCaseStudyStructure reproduces the paper's Section 5 result: three
// temporal partitions; partition #0 holds a 6-input and a 2-input arbiter,
// partition #1 a 4-input arbiter, partition #2 none.
func TestFFTCaseStudyStructure(t *testing.T) {
	d, _, _ := compileFFT(t, 2, paperOpts())
	if len(d.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(d.Stages))
	}
	sizes := func(sp *StagePlan) []int {
		var out []int
		for _, a := range sp.Inserted.Arbiters {
			out = append(out, a.N())
		}
		return out
	}
	s0 := sizes(d.Stages[0])
	if len(s0) != 2 || !((s0[0] == 6 && s0[1] == 2) || (s0[0] == 2 && s0[1] == 6)) {
		t.Fatalf("stage 0 arbiters = %v, want {6, 2}", s0)
	}
	s1 := sizes(d.Stages[1])
	if len(s1) != 1 || s1[0] != 4 {
		t.Fatalf("stage 1 arbiters = %v, want {4}", s1)
	}
	if s2 := sizes(d.Stages[2]); len(s2) != 0 {
		t.Fatalf("stage 2 arbiters = %v, want none", s2)
	}
	// The 6-input arbiter guards the bank holding all four ML segments.
	var arb6 *partition.ArbiterSpec
	for i := range d.Stages[0].Inserted.Arbiters {
		if d.Stages[0].Inserted.Arbiters[i].N() == 6 {
			arb6 = &d.Stages[0].Inserted.Arbiters[i]
		}
	}
	bankIdx := -1
	for bi, bank := range d.Board.Banks {
		if bank.Name == arb6.Resource {
			bankIdx = bi
		}
	}
	segs := d.Stages[0].Stage.Banks[bankIdx]
	if len(segs) != 4 || !strings.HasPrefix(segs[0], "ML") {
		t.Fatalf("Arb6 bank holds %v, want the four ML segments", segs)
	}
}

// TestFFTCaseStudyExecution runs all three partitions and checks the
// hardware memory image against the fixed-point 2-D FFT reference.
func TestFFTCaseStudyExecution(t *testing.T) {
	tiles := 4
	opts := paperOpts()
	g := fft.Taskgraph()
	d, err := Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMemory()
	in := fft.LoadInput(mem, tiles, 7)
	res, err := Simulate(d, mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations()) != 0 {
		t.Fatalf("violations: %v", res.Violations())
	}
	if err := fft.CheckOutput(mem, in); err != nil {
		t.Fatal(err)
	}
	// Every stage's arbiter traces satisfy the fairness properties.
	for si, ss := range res.Stages {
		for resName, trace := range ss.Stats.ArbiterTraces {
			n := 0
			for _, a := range ss.Stage.Inserted.Arbiters {
				if a.Resource == resName {
					n = a.N()
				}
			}
			if err := arbiter.CheckMutualExclusion(trace.Steps); err != nil {
				t.Fatalf("stage %d %s: %v", si, resName, err)
			}
			if err := arbiter.CheckBoundedWait(n, trace.Steps); err != nil {
				t.Fatalf("stage %d %s: %v", si, resName, err)
			}
		}
	}
}

// TestFFTSpeedupShape: hardware (6 MHz, tiled) beats the Pentium-150
// software model by roughly the paper's margin (4.4 s vs 6.8 s -> ~1.5x).
func TestFFTSpeedupShape(t *testing.T) {
	tiles := 6
	opts := paperOpts()
	g := fft.Taskgraph()
	d, err := Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMemory()
	fft.LoadInput(mem, tiles, 3)
	res, err := Simulate(d, mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	cyclesPerTile := float64(res.TotalCycles) / float64(tiles)
	hw := fft.HardwareSeconds(cyclesPerTile, 512)
	sw := fft.SoftwareSeconds(512)
	if hw >= sw {
		t.Fatalf("hardware (%.2f s) should beat software (%.2f s)", hw, sw)
	}
	speedup := sw / hw
	if speedup < 1.2 || speedup > 2.2 {
		t.Fatalf("speedup = %.2fx, want roughly the paper's 1.5x", speedup)
	}
}

// TestConservativeInsertionCostsMore: the dependency-aware mode (the
// paper's Section 5 improvement) needs fewer arbiter lines and finishes no
// later than the conservative mode.
func TestConservativeInsertionCostsMore(t *testing.T) {
	tiles := 3
	run := func(conservative bool) (int, int) {
		opts := paperOpts()
		opts.Partition.Conservative = conservative
		g := fft.Taskgraph()
		d, err := Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
		if err != nil {
			t.Fatal(err)
		}
		mem := sim.NewMemory()
		in := fft.LoadInput(mem, tiles, 5)
		res, err := Simulate(d, mem, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := fft.CheckOutput(mem, in); err != nil {
			t.Fatalf("conservative=%v: %v", conservative, err)
		}
		lines := 0
		for _, sp := range d.Stages {
			for _, a := range sp.Inserted.Arbiters {
				lines += a.N()
			}
		}
		return lines, res.TotalCycles
	}
	depLines, depCycles := run(false)
	conLines, conCycles := run(true)
	if depLines >= conLines {
		t.Fatalf("dep-aware lines %d should be fewer than conservative %d", depLines, conLines)
	}
	if depCycles > conCycles {
		t.Fatalf("dep-aware cycles %d should not exceed conservative %d", depCycles, conCycles)
	}
}

// TestPricedArbitersAreInserted: the partitioner decides every bank
// arbiter once, so the list a stage is priced for (Stage.Arbiters) is the
// bank-arbiter list arbinsert wires and the simulator runs, in order, in
// both elision modes.
func TestPricedArbitersAreInserted(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		for _, tiles := range []int{1, 2, 6} {
			for _, m := range []int{1, 2, 4} {
				opts := paperOpts()
				opts.Partition.Conservative = conservative
				opts.Insert.M = m
				d, _, _ := compileFFT(t, tiles, opts)
				banks := map[string]bool{}
				for _, b := range d.Board.Banks {
					banks[b.Name] = true
				}
				for si, sp := range d.Stages {
					var inserted []partition.ArbiterSpec
					for _, a := range sp.Inserted.Arbiters {
						if banks[a.Resource] {
							inserted = append(inserted, a)
						}
					}
					if !reflect.DeepEqual(sp.Stage.Arbiters, inserted) {
						t.Errorf("conservative %v, tiles %d, m %d, stage %d: priced %+v, inserted %+v",
							conservative, tiles, m, si, sp.Stage.Arbiters, inserted)
					}
				}
			}
		}
	}
}

// TestAutomaticPartitioningAlsoWorks: without the paper's stage
// constraints, the greedy partitioner finds a denser (2-stage) but equally
// correct solution.
func TestAutomaticPartitioningAlsoWorks(t *testing.T) {
	tiles := 3
	opts := Options{}
	g := fft.Taskgraph()
	d, err := Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Stages) >= 4 {
		t.Fatalf("automatic partitioning produced %d stages", len(d.Stages))
	}
	mem := sim.NewMemory()
	in := fft.LoadInput(mem, tiles, 9)
	res, err := Simulate(d, mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations()) != 0 {
		t.Fatalf("violations: %v", res.Violations())
	}
	if err := fft.CheckOutput(mem, in); err != nil {
		t.Fatal(err)
	}
}

// TestGateLevelArbitersEndToEnd runs the whole case study with the
// synthesized gate-level arbiters doing the arbitration.
func TestGateLevelArbitersEndToEnd(t *testing.T) {
	tiles := 2
	opts := paperOpts()
	opts.Policy = &arbiter.PolicySpec{Kind: "netlist", Encoding: fsm.OneHot}
	g := fft.Taskgraph()
	d, err := Compile(g, rc.Wildforce(), fft.Programs(tiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMemory()
	in := fft.LoadInput(mem, tiles, 11)
	res, err := Simulate(d, mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations()) != 0 {
		t.Fatalf("violations: %v", res.Violations())
	}
	if err := fft.CheckOutput(mem, in); err != nil {
		t.Fatal(err)
	}
}

func TestReportMentionsArbiters(t *testing.T) {
	d, _, _ := compileFFT(t, 1, paperOpts())
	rep := d.Report()
	for _, want := range []string{"3 temporal partition", "Arb6", "Arb4", "no arbitration required"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestArbitersSummary(t *testing.T) {
	d, _, _ := compileFFT(t, 1, paperOpts())
	arbs := d.Arbiters()
	if len(arbs) != 3 {
		t.Fatalf("arbiters = %v, want 3 entries", arbs)
	}
}

// TestPortabilityAcrossBoards verifies the paper's conclusion claim: "FFT
// can be synthesized for different architectures using the same set of
// partitioning/synthesis tools" with no taskgraph changes. The same
// Figure 10 graph compiles and runs correctly on boards with different PE
// counts, bank sizes, and pin budgets; only the arbitration structure
// adapts.
func TestPortabilityAcrossBoards(t *testing.T) {
	tiles := 2
	boards := []*rc.Board{
		rc.Wildforce(),
		rc.Generic(6, xc4000.XC4013E, 32*1024, 36, 36),
		rc.Generic(3, xc4000.XC4013E, 64*1024, 48, 48),
	}
	for _, board := range boards {
		g := fft.Taskgraph()
		opts := Options{} // automatic partitioning: the flow adapts itself
		d, err := Compile(g, board, fft.Programs(tiles), opts)
		if err != nil {
			t.Fatalf("board %s: %v", board.Name, err)
		}
		mem := sim.NewMemory()
		in := fft.LoadInput(mem, tiles, 21)
		res, err := Simulate(d, mem, opts)
		if err != nil {
			t.Fatalf("board %s: %v", board.Name, err)
		}
		if len(res.Violations()) != 0 {
			t.Fatalf("board %s: violations %v", board.Name, res.Violations())
		}
		if err := fft.CheckOutput(mem, in); err != nil {
			t.Fatalf("board %s: %v", board.Name, err)
		}
	}
}

// TestSimulateStageMatchesSimulate: running a design stage by stage
// through SimulateStage, carrying one memory image across stages the way
// Simulate does, reproduces each stage of Simulate bit for bit — with
// and without background contention, whose per-stage seeds must derive
// the same way — and stage indices outside the design are errors.
func TestSimulateStageMatchesSimulate(t *testing.T) {
	const tiles = 2
	d, _, _ := compileFFT(t, tiles, paperOpts())
	contended := paperOpts()
	specs, err := ParseContention("M1=bursty/1,M1+M3=corr:0.25/1")
	if err != nil {
		t.Fatal(err)
	}
	contended.Contention, contended.ContentionSeed = specs, 7
	for _, tc := range []struct {
		name string
		opts Options
	}{{"quiet", paperOpts()}, {"contended", contended}} {
		name, opts := tc.name, tc.opts
		wholeMem := sim.NewMemory()
		fft.LoadInput(wholeMem, tiles, 42)
		whole, err := Simulate(d, wholeMem, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stagedMem := sim.NewMemory()
		in := fft.LoadInput(stagedMem, tiles, 42)
		for si := range d.Stages {
			st, err := SimulateStage(d, si, stagedMem, opts)
			if err != nil {
				t.Fatalf("%s stage %d: %v", name, si, err)
			}
			if !reflect.DeepEqual(st, whole.Stages[si].Stats) {
				t.Fatalf("%s stage %d: SimulateStage diverges from the same stage inside Simulate", name, si)
			}
		}
		if err := fft.CheckOutput(stagedMem, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, si := range []int{-1, len(d.Stages)} {
		if _, err := SimulateStage(d, si, sim.NewMemory(), paperOpts()); err == nil {
			t.Errorf("stage index %d of %d should be rejected", si, len(d.Stages))
		}
	}
}

// TestFootprintIsPeakStageArea: StageAreas prices each stage as its
// tasks plus its arbiters — widened by expected contention — and
// FootprintCLBs is the largest of them.
func TestFootprintIsPeakStageArea(t *testing.T) {
	d, _, _ := compileFFT(t, 2, paperOpts())
	peak := func(areas []int) int {
		hi := 0
		for _, a := range areas {
			hi = max(hi, a)
		}
		return hi
	}
	plain := d.StageAreas(partition.Options{})
	widened := partition.Options{ExpectedContention: map[string]int{"M1": 2}}
	wide := d.StageAreas(widened)
	if len(plain) != len(d.Stages) || len(wide) != len(d.Stages) {
		t.Fatalf("got %d and %d areas for %d stages", len(plain), len(wide), len(d.Stages))
	}
	for si, sp := range d.Stages {
		tasks := 0
		for _, name := range sp.Stage.Tasks {
			tasks += d.Graph.TaskByName(name).AreaCLBs
		}
		if hasArbs := len(sp.Stage.Arbiters) > 0; plain[si] < tasks || (plain[si] > tasks) != hasArbs {
			t.Errorf("stage %d: area %d for %d task CLBs and %d arbiters", si, plain[si], tasks, len(sp.Stage.Arbiters))
		}
		hostsM1 := false
		for _, a := range sp.Stage.Arbiters {
			hostsM1 = hostsM1 || a.Resource == "M1"
		}
		if (wide[si] > plain[si]) != hostsM1 || wide[si] < plain[si] {
			t.Errorf("stage %d: widening M1 moved the area %d -> %d (hosts M1: %v)", si, plain[si], wide[si], hostsM1)
		}
	}
	if got, want := d.FootprintCLBs(partition.Options{}), peak(plain); got != want || want <= 0 {
		t.Errorf("FootprintCLBs = %d, peak stage area %d", got, want)
	}
	if got, want := d.FootprintCLBs(widened), peak(wide); got != want {
		t.Errorf("widened FootprintCLBs = %d, peak stage area %d", got, want)
	}
}
