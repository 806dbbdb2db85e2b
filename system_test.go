package sparcs_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sparcs"
	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/core"
	"sparcs/internal/fft"
	"sparcs/internal/partition"
	"sparcs/internal/rc"
	"sparcs/internal/sim"
	"sparcs/internal/workload"
)

// TestSystemFFTDifferentialEquivalence: the flat-options path
// (core.Compile + core.Simulate) and a System run must produce deeply
// equal per-stage stats — including traces — and identical memory
// images for the FFT case study.
func TestSystemFFTDifferentialEquivalence(t *testing.T) {
	const tiles = 3

	// Old path: the flat core.Options bag threaded through both calls.
	oldOpts := core.Options{Partition: partition.Options{FixedStages: fft.PaperStages()}}
	d, err := core.Compile(fft.Taskgraph(), rc.Wildforce(), fft.Programs(tiles), oldOpts)
	if err != nil {
		t.Fatal(err)
	}
	oldMem := sim.NewMemory()
	fft.LoadInput(oldMem, tiles, 42)
	oldRes, err := core.Simulate(d, oldMem, oldOpts)
	if err != nil {
		t.Fatal(err)
	}

	// New path: Build once, Run with per-run options.
	sys, err := sparcs.FFTSystem(tiles)
	if err != nil {
		t.Fatal(err)
	}
	newMem := sparcs.NewMemory()
	in := sparcs.LoadFFTInput(newMem, tiles, 42)
	newRes, err := sys.Run(sparcs.WithCapture(), sparcs.WithMemory(newMem))
	if err != nil {
		t.Fatal(err)
	}

	if newRes.TotalCycles != oldRes.TotalCycles {
		t.Fatalf("System.Run: TotalCycles %d != old %d", newRes.TotalCycles, oldRes.TotalCycles)
	}
	if len(newRes.Stages) != len(oldRes.Stages) {
		t.Fatalf("System.Run: %d stages != %d", len(newRes.Stages), len(oldRes.Stages))
	}
	for si := range newRes.Stages {
		if !reflect.DeepEqual(newRes.Stages[si].Stats, oldRes.Stages[si].Stats) {
			t.Fatalf("System.Run: stage %d stats diverge from the flat-options path", si)
		}
	}
	// Memory images agree segment by segment.
	for _, s := range fft.Taskgraph().Segments {
		if !reflect.DeepEqual(oldMem.Snapshot(s.Name), newMem.Snapshot(s.Name)) {
			t.Fatalf("segment %s differs between old and new paths", s.Name)
		}
	}
	if err := sparcs.CheckFFTOutput(newMem, in); err != nil {
		t.Fatal(err)
	}
}

// TestSystemArbbenchGridEquivalence: the grid built from an
// every-arbiter capture (WithCapture(), as sparcs -mode arbbench
// -fft-column runs it) and the grid built from a single-resource
// capture (WithCapture("M1")) must be cell-for-cell DeepEqual — a
// capture tap records the stream without perturbing it.
func TestSystemArbbenchGridEquivalence(t *testing.T) {
	const tiles = 2
	sys, err := sparcs.FFTSystem(tiles)
	if err != nil {
		t.Fatal(err)
	}
	capture := func(opts ...sparcs.RunOption) sparcs.WorkloadColumn {
		t.Helper()
		mem := sparcs.NewMemory()
		sparcs.LoadFFTInput(mem, tiles, 42)
		res, err := sys.Run(append(opts, sparcs.WithMemory(mem))...)
		if err != nil {
			t.Fatal(err)
		}
		col, err := res.ColumnByWidth("fft", 6)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	oldCol := capture(sparcs.WithPolicy("round-robin"), sparcs.WithCapture())
	newCol := capture(sparcs.WithCapture("M1"))
	if oldCol.Name != newCol.Name {
		t.Fatalf("column names: capture-all %q, capture M1 %q", oldCol.Name, newCol.Name)
	}

	policies := []string{"rr", "fifo", "priority", "preemptive:4"}
	opt := sparcs.EvaluateOptions{N: 6, Cycles: 20_000, Seed: 1}
	oldCells, err := sparcs.EvaluatePolicyColumns(policies, []sparcs.WorkloadColumn{oldCol, sparcs.SpecWorkloadColumn("hog")}, opt)
	if err != nil {
		t.Fatal(err)
	}
	newCells, err := sparcs.EvaluatePolicyColumns(policies, []sparcs.WorkloadColumn{newCol, sparcs.SpecWorkloadColumn("hog")}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oldCells, newCells) {
		t.Fatal("grid cells diverge between the capture-all column and the capture-M1 column")
	}
	// And the spec-string front end still matches the columns front end.
	oldGrid, err := sparcs.EvaluatePolicies(policies, []string{"hog", "bursty"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	colGrid, err := sparcs.EvaluatePolicyColumns(policies,
		[]sparcs.WorkloadColumn{sparcs.SpecWorkloadColumn("hog"), sparcs.SpecWorkloadColumn("bursty")}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oldGrid, colGrid) {
		t.Fatal("EvaluatePolicies diverges from EvaluatePolicyColumns over the same specs")
	}
}

// TestSystemCorrelatedAcrossPolicies is the acceptance property test: a
// correlated two-resource source (holds M1 while requesting M3) runs
// through System.Run under several policies; every run must report
// coherent cross-resource overlap/wait stats and keep the design
// correct.
func TestSystemCorrelatedAcrossPolicies(t *testing.T) {
	const tiles = 2
	sys, err := sparcs.FFTSystem(tiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"round-robin", "fifo", "priority", "random:3", "preemptive:4"} {
		t.Run(policy, func(t *testing.T) {
			mem := sparcs.NewMemory()
			in := sparcs.LoadFFTInput(mem, tiles, 42)
			res, err := sys.Run(
				sparcs.WithPolicy(policy),
				sparcs.WithContention("M1+M3=corr:0.30/1"),
				sparcs.WithSeed(11),
				sparcs.WithMaxCycles(500_000),
				sparcs.WithMemory(mem),
			)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations()) != 0 {
				t.Fatalf("violations under %s: %v", policy, res.Violations())
			}
			if err := sparcs.CheckFFTOutput(mem, in); err != nil {
				t.Fatalf("FFT output corrupted under correlated contention: %v", err)
			}
			shared := res.SharedStats()
			if len(shared) != 1 {
				t.Fatalf("shared sources = %d, want 1 (stage 0 hosts M1+M3)", len(shared))
			}
			sh := shared[0]
			if !reflect.DeepEqual(sh.Resources, []string{"M1", "M3"}) {
				t.Fatalf("resources = %v", sh.Resources)
			}
			// The source made progress on both resources and completed
			// critical sections.
			if sh.Grants[0] == 0 || sh.Grants[1] == 0 || sh.AllHeld == 0 {
				t.Fatalf("no cross-resource progress: %+v", sh)
			}
			// Overlap bounds: both banks held at most min(grants);
			// overlap states bounded by the stage length.
			if sh.AllHeld > sh.Grants[0] || sh.AllHeld > sh.Grants[1] {
				t.Fatalf("AllHeld %d exceeds a grant count %v", sh.AllHeld, sh.Grants)
			}
			st0 := res.Stages[0].Stats
			if sh.HoldWait+sh.AllHeld > st0.Cycles {
				t.Fatalf("overlap %d+%d exceeds stage cycles %d", sh.HoldWait, sh.AllHeld, st0.Cycles)
			}
			// Per-line counts land in Stats.Contention for both banks.
			for i, r := range sh.Resources {
				cs := st0.Contention[r]
				if cs == nil || len(cs.Grants) != 1 {
					t.Fatalf("no per-line contention stats on %s", r)
				}
				if cs.Grants[0] != sh.Grants[i] || cs.Waits[0] != sh.Waits[i] {
					t.Fatalf("%s: per-line (%d,%d) != shared (%d,%d)", r, cs.Grants[0], cs.Waits[0], sh.Grants[i], sh.Waits[i])
				}
			}
			// Determinism: the identical composition replays identically.
			again, err := sys.Run(
				sparcs.WithPolicy(policy),
				sparcs.WithContention("M1+M3=corr:0.30/1"),
				sparcs.WithSeed(11),
				sparcs.WithMaxCycles(500_000),
			)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.SharedStats(), shared) {
				t.Fatalf("identical runs diverged under %s", policy)
			}
		})
	}
}

// TestSystemRunIndependence: runs compose per-call and leave no residue
// on the System — a contended run between two quiet runs must not
// change the second quiet run's outcome.
func TestSystemRunIndependence(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(sparcs.WithPolicy("priority"), sparcs.WithContention("M1=bursty/1,M1+M3=corr:0.30/1"), sparcs.WithMaxCycles(500_000)); err != nil {
		t.Fatal(err)
	}
	second, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalCycles != second.TotalCycles || len(first.Stages) != len(second.Stages) {
		t.Fatal("a contended run left residue on the System")
	}
	for si := range first.Stages {
		if !reflect.DeepEqual(first.Stages[si].Stats, second.Stages[si].Stats) {
			t.Fatalf("stage %d stats changed across runs", si)
		}
	}
}

// TestConcurrentBuildSharedGraph builds from one taskgraph while a
// System compiled from it runs: Build validates and partitions g as Run
// looks g's tasks up by name. Under -race it pins that no query writes
// the graph's name index once it is built.
func TestConcurrentBuildSharedGraph(t *testing.T) {
	g, board, programs := fft.Taskgraph(), rc.Wildforce(), fft.Programs(2)
	stages := sparcs.WithStages(fft.PaperStages())
	sys, err := sparcs.Build(g, board, programs, stages)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := sparcs.Build(g, board, programs, stages, sparcs.WithAccessesPerGrant(1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res, err := sys.Run()
			if err != nil {
				t.Error(err)
				return
			}
			if res.TotalCycles != want.TotalCycles {
				t.Errorf("run %d: %d cycles, want %d", i, res.TotalCycles, want.TotalCycles)
				return
			}
		}
	}()
	wg.Wait()
}

// TestFFTDesignArea pins the paper's FFT design against the arbiter area
// model: its arbiters (6 and 2 lines in stage 0, 4 in stage 1) and the
// CLB footprint of every stage, so an edit to the pre-characterization
// table cannot move the paper's design silently. The conservative build
// prices every arbiter it inserts, M2 and both stage-2 arbiters included.
// The footprint does not depend on the tile count.
func TestFFTDesignArea(t *testing.T) {
	for _, c := range []struct {
		conservative bool
		footprint    int
		areas        []int
		widths       [][]int
	}{
		{false, 1929, []int{1929, 533, 260}, [][]int{{6, 2}, {4}, nil}},
		{true, 1939, []int{1939, 537, 268}, [][]int{{6, 2, 3}, {4, 2}, {2, 2}}},
	} {
		for _, tiles := range []int{2, 6} {
			var opts []sparcs.BuildOption
			if c.conservative {
				opts = append(opts, sparcs.WithConservativeArbitration())
			}
			sys, err := sparcs.FFTSystem(tiles, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.FootprintCLBs(); got != c.footprint {
				t.Errorf("conservative %v, tiles %d: FootprintCLBs = %d, want %d", c.conservative, tiles, got, c.footprint)
			}
			if got := sys.Design().StageAreas(partition.Options{}); !reflect.DeepEqual(got, c.areas) {
				t.Errorf("conservative %v, tiles %d: StageAreas = %v, want %v", c.conservative, tiles, got, c.areas)
			}
			var widths [][]int
			for _, sp := range sys.Design().Stages {
				var w []int
				for _, a := range sp.Stage.Arbiters {
					w = append(w, a.N())
				}
				widths = append(widths, w)
			}
			if !reflect.DeepEqual(widths, c.widths) {
				t.Errorf("conservative %v, tiles %d: arbiter widths per stage = %v, want %v", c.conservative, tiles, widths, c.widths)
			}
		}
	}
}

func TestSystemRunErrors(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []sparcs.RunOption
		want string
	}{
		{"bad policy", []sparcs.RunOption{sparcs.WithPolicy("nope")}, "unknown policy"},
		{"policy size mismatch", []sparcs.RunOption{sparcs.WithPolicy("wrr:1,2")}, "unusable"},
		{"size mismatch from contention", []sparcs.RunOption{sparcs.WithPolicy("hier:4"), sparcs.WithContention("M1=hog/1")}, "unusable"},
		{"bad contention", []sparcs.RunOption{sparcs.WithContention("M1=notashape")}, "unknown workload"},
		{"unknown contention resource", []sparcs.RunOption{sparcs.WithContention("M9=hog")}, "not arbitrated"},
		{"empty contention entry", []sparcs.RunOption{sparcs.WithContention("M1=bursty,,M3=bursty")}, "contention entry"},
		{"trailing empty entry", []sparcs.RunOption{sparcs.WithContention("M1=bursty,")}, "contention entry"},
		{"leading empty entry", []sparcs.RunOption{sparcs.WithContention(",M1=bursty")}, "contention entry"},
		{"unknown shared resource", []sparcs.RunOption{sparcs.WithContention("M1+M9=corr")}, "no single stage"},
		{"never co-arbitrated", []sparcs.RunOption{sparcs.WithContention("M1+M4=corr")}, "no single stage"},
		{"unknown capture", []sparcs.RunOption{sparcs.WithCapture("M9")}, "not arbitrated"},
		{"nil memory", []sparcs.RunOption{sparcs.WithMemory(nil)}, "non-nil"},
		{"negative max cycles", []sparcs.RunOption{sparcs.WithMaxCycles(-1)}, "non-negative"},
	}
	for _, c := range cases {
		_, err := sys.Run(c.opts...)
		if err == nil {
			t.Errorf("%s: Run should error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSystemRunRejectsDuplicateAcrossOptions: repeating WithContention
// appends sources, but a resource still takes one single-resource spec
// per run, so Run rejects a second one given in a later option just as
// it does inside one spec.
func TestSystemRunRejectsDuplicateAcrossOptions(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]sparcs.RunOption{
		{sparcs.WithContention("M1=hog"), sparcs.WithContention("M1=bursty")},
		{sparcs.WithContention("M1=hog,M1=bursty")},
	} {
		_, err := sys.Run(opts...)
		var dup *core.DuplicateResourceError
		if !errors.As(err, &dup) || dup.Resource != "M1" {
			t.Errorf("Run = %v, want a *core.DuplicateResourceError naming M1", err)
		}
	}
}

// TestSystemPolicyValidatedAtSimulatedWidth: hier:3 divides the 6-line
// M1 arbiter but not the 7-line one a phantom produces — the run must
// fail up front with the widened width in the message.
func TestSystemPolicyValidatedAtSimulatedWidth(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(sparcs.WithPolicy("hier:3")); err != nil {
		// hier:3 serves the quiet design only if 3 | N for every arbiter
		// (6, 2, 4): 2 and 4 fail, so even the quiet run errors — use the
		// error text to confirm validation happened up front.
		if !strings.Contains(err.Error(), "unusable") {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// wrr with exactly 6 weights works quietly (M1's arbiter is the only
	// 6-line one it reaches? no: M3 has 2 and 4 lines). Use a policy
	// valid quietly but invalid once widened: preemptive works always;
	// instead check that the same spec's error message reports the
	// widened line count.
	_, err = sys.Run(sparcs.WithPolicy("wrr:1,1,1,1,1,1"), sparcs.WithContention("M1=hog/1"))
	if err == nil {
		t.Fatal("6-weight wrr must fail against the 7-line widened arbiter")
	}
	if !strings.Contains(err.Error(), "7-line") {
		t.Fatalf("error should name the simulated width: %v", err)
	}
}

// TestSystemRunSetsUpEveryStageFirst: 61 hog lines fit stage 0's 2-line
// M3 arbiter but widen stage 1's 4-line one past one request word. The
// run must fail before stage 0 simulates, under the default policy as
// under the same policy by name, with nothing written to the caller's
// memory image.
func TestSystemRunSetsUpEveryStageFirst(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []sparcs.RunOption{nil, sparcs.WithPolicy("rr")} {
		mem := sparcs.NewMemory()
		_, err := sys.Run(policy, sparcs.WithContention("M3=hog/61"), sparcs.WithMemory(mem))
		if err == nil {
			t.Fatal("a 65-line M3 arbiter in stage 1 must fail the run")
		}
		for _, want := range []string{"stage 1", "M3", "65"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
		for _, seg := range sys.Design().Graph.Segments {
			if words := mem.Snapshot(seg.Name); len(words) > 0 {
				t.Errorf("failed run wrote %d words to %s", len(words), seg.Name)
			}
		}
	}
}

func TestArbiterRangeErrorSentinel(t *testing.T) {
	if _, err := sparcs.NewArbiter(1); !errors.Is(err, arbiter.ErrOutOfRange) {
		t.Fatalf("NewArbiter(1) error %v does not wrap arbiter.ErrOutOfRange", err)
	}
	if _, err := sparcs.NewArbiter(arbiter.MaxN + 1); !errors.Is(err, arbiter.ErrOutOfRange) {
		t.Fatal("NewArbiter above MaxN must wrap ErrOutOfRange")
	}
	if _, err := arbiter.Machine(99); !errors.Is(err, arbiter.ErrOutOfRange) {
		t.Fatal("Machine(99) must wrap ErrOutOfRange")
	}
	if _, err := sparcs.NewPolicy("wrr:2", arbiter.MaxN+1); !errors.Is(err, arbiter.ErrOutOfRange) {
		t.Fatal("spec.New out of range must wrap ErrOutOfRange")
	}
	if _, err := sparcs.NewPolicy("fsm", arbiter.MaxSynthN+1); !errors.Is(err, arbiter.ErrOutOfRange) {
		t.Fatal("synthesized spec.New above MaxSynthN must wrap ErrOutOfRange")
	}
	err := arbiter.RangeError(1)
	if got := err.Error(); got != "arbiter: N must be in [2,64], got 1" {
		t.Fatalf("message %q changed", got)
	}
	err = arbiter.SynthRangeError(17)
	if got := err.Error(); got != "arbiter: N must be in [2,16] for synthesized (fsm/netlist) arbiters, got 17" {
		t.Fatalf("synth message %q changed", got)
	}
}

// TestSystemCaptureColumnRoundTrip: a named capture tap yields a column
// whose replayed width matches the arbiter, usable in a grid.
func TestSystemCaptureColumnRoundTrip(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(sparcs.WithCapture("M1"))
	if err != nil {
		t.Fatal(err)
	}
	col, err := res.Column("M1")
	if err != nil {
		t.Fatal(err)
	}
	if col.Name != "fft4x4:M1" {
		t.Fatalf("column name %q", col.Name)
	}
	gen, err := col.New(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gen.N() != 6 {
		t.Fatalf("replay width %d", gen.N())
	}
	// Un-tapped resources have no column.
	if _, err := res.Column("M3"); err == nil {
		t.Fatal("M3 was not captured; Column should error")
	}
	// And a quiet run has no columns at all.
	quiet, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.Column("M1"); err == nil {
		t.Fatal("run without WithCapture should have no columns")
	}
	// The M1 capture feeds a grid.
	cells, err := workload.RunGridColumns([]string{"rr"}, []workload.Column{col}, workload.GridOptions{N: 6, Cycles: 5_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Workload != "fft4x4:M1" {
		t.Fatalf("grid cells = %+v", cells)
	}
}

// TestSystemSweep: Sweep fans experiment option-sets over one compiled
// System and returns per-experiment results identical to calling Run
// sequentially — same composition semantics, same no-residue guarantee,
// just parallel.
func TestSystemSweep(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	experiments := [][]sparcs.RunOption{
		nil,
		{sparcs.WithPolicy("fifo")},
		{sparcs.WithPolicy("priority")},
		{sparcs.WithPolicy("wrr:2"), sparcs.WithContention("M1=bursty/1"), sparcs.WithMaxCycles(500_000)},
	}
	got, err := sys.Sweep(experiments...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(experiments) {
		t.Fatalf("Sweep returned %d results for %d experiments", len(got), len(experiments))
	}
	for i, opts := range experiments {
		want, err := sys.Run(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].TotalCycles != want.TotalCycles || len(got[i].Stages) != len(want.Stages) {
			t.Fatalf("experiment %d: sweep %d cycles / %d stages, sequential %d / %d",
				i, got[i].TotalCycles, len(got[i].Stages), want.TotalCycles, len(want.Stages))
		}
		for si := range want.Stages {
			if !reflect.DeepEqual(got[i].Stages[si].Stats, want.Stages[si].Stats) {
				t.Fatalf("experiment %d stage %d: sweep stats diverge from sequential Run", i, si)
			}
		}
	}
	// A failing experiment reports its index without discarding the
	// completed siblings (partial-failure semantics pinned in detail by
	// TestSystemSweepPartialFailure).
	_, err = sys.Sweep(nil, []sparcs.RunOption{sparcs.WithPolicy("nope")})
	if err == nil {
		t.Fatal("Sweep with a bad experiment should error")
	}
	if !strings.Contains(err.Error(), "sweep experiment 1") || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("error %q should name the failing experiment and cause", err)
	}
}

// TestSystemSweepPartialFailure: a sweep mixing valid and invalid
// option sets must run every valid experiment to completion and return
// their results alongside a typed *sparcs.SweepError naming the first
// failing index — a bad option set must not discard (or leak the
// goroutines of) its siblings.
func TestSystemSweepPartialFailure(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	experiments := [][]sparcs.RunOption{
		nil,                                   // 0: valid baseline
		{sparcs.WithPolicy("no-such-policy")}, // 1: fails at option parse
		{sparcs.WithPolicy("fifo")},           // 2: valid
		{sparcs.WithContention("M9=hog/1")},   // 3: fails validation (M9 unarbitrated)
		{sparcs.WithPolicy("priority")},       // 4: valid
	}
	got, err := sys.Sweep(experiments...)
	if err == nil {
		t.Fatal("Sweep with invalid experiments should error")
	}
	var se *sparcs.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("Sweep error %T (%v) is not a *sparcs.SweepError", err, err)
	}
	if se.Index != 1 {
		t.Fatalf("SweepError.Index = %d, want 1 (first failure by input order)", se.Index)
	}
	if se.Err == nil || !strings.Contains(se.Err.Error(), "unknown policy") {
		t.Fatalf("SweepError.Err = %v, want the underlying policy-parse error", se.Err)
	}
	if len(got) != len(experiments) {
		t.Fatalf("Sweep returned %d results for %d experiments", len(got), len(experiments))
	}
	for _, i := range []int{0, 2, 4} {
		if got[i] == nil {
			t.Fatalf("experiment %d: completed sibling result discarded", i)
		}
		want, err := sys.Run(experiments[i]...)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].TotalCycles != want.TotalCycles {
			t.Fatalf("experiment %d: sweep %d cycles, sequential %d", i, got[i].TotalCycles, want.TotalCycles)
		}
	}
	for _, i := range []int{1, 3} {
		if got[i] != nil {
			t.Fatalf("experiment %d: failing slot should be nil, got a result", i)
		}
	}
}

// TestSystemRejectsDeadlockProneProtocol: the compile-once System must
// refuse a per-run contention protocol whose correlated sources acquire
// the same resources in opposite orders — the PR 5 circular
// hold-and-wait repro — with the typed *core.DeadlockProneError naming
// the cycle, while WithUnsafeProtocols restores the watchdog-only
// behavior the deadlock experiments rely on.
func TestSystemRejectsDeadlockProneProtocol(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	circular := sparcs.WithContention("M1+M3=corr:0.90:64/1,M3+M1=corr:0.90:64/1")
	_, err = sys.Run(circular, sparcs.WithSeed(1), sparcs.WithMaxCycles(20_000))
	var dp *core.DeadlockProneError
	if !errors.As(err, &dp) {
		t.Fatalf("Run = %v, want *core.DeadlockProneError", err)
	}
	if len(dp.Cycle) != 3 || dp.Cycle[0] != dp.Cycle[2] {
		t.Fatalf("cycle = %v, want a closed 2-cycle", dp.Cycle)
	}

	// Watchdog-only escape hatch: the run proceeds and the interlock is
	// caught by the cycle watchdog instead.
	res, err := sys.Run(circular, sparcs.WithSeed(1), sparcs.WithMaxCycles(20_000),
		sparcs.WithUnsafeProtocols())
	if err != nil {
		t.Fatalf("WithUnsafeProtocols run failed: %v", err)
	}
	dead := false
	for _, v := range res.Violations() {
		dead = dead || v.Kind == "deadlock-or-timeout"
	}
	if !dead {
		t.Fatalf("unsafe run did not hit the watchdog: %v", res.Violations())
	}

	// Build-time declaration path: expected contention declaring the
	// cyclic protocol must fail sparcs.Build the same way.
	_, err = sparcs.FFTSystem(2, sparcs.WithExpectedContention("M1+M3=corr:0.25,M3+M1=corr:0.25"))
	if !errors.As(err, &dp) {
		t.Fatalf("Build = %v, want *core.DeadlockProneError", err)
	}
}

// TestBuildRejectsBadDelays: a compute of fewer than one cycle, or a
// transform with a negative latency or pop count, is rejected at Build
// with an error naming the task, the instruction, the op and the value.
// Unchecked, the first three spin until the cycle watchdog and the last
// panics inside System.Run.
func TestBuildRejectsBadDelays(t *testing.T) {
	id := func(in []int64) []int64 { return in }
	cases := []struct {
		in   behav.Instr
		want string
	}{
		{behav.Compute(0), "instruction 1 (compute): cycle count must be at least 1, got 0"},
		{behav.Compute(-1), "instruction 1 (compute): cycle count must be at least 1, got -1"},
		{behav.Transform(4, -2, id), "instruction 1 (transform): latency must not be negative, got -2"},
		{behav.Transform(-1, 1, id), "instruction 1 (transform): pop count must not be negative, got -1"},
	}
	for _, c := range cases {
		err := buildWithF1Instr(c.in)
		if err == nil || !strings.HasPrefix(err.Error(), "core: task F1 ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Build = %v, want a core error on task F1 %s", err, c.want)
		}
	}
}

// TestBuildRejectsUnknownChannels: a send or receive on a channel the
// taskgraph does not declare is rejected at Build with an error naming
// the task, the instruction, the op and the channel. Unchecked, the send
// panics inside System.Run (killing the process under System.Sweep) and
// the receive fails only when the task reaches it.
func TestBuildRejectsUnknownChannels(t *testing.T) {
	cases := []struct {
		in   behav.Instr
		want string
	}{
		{behav.SendImm("nope", 1), "core: task F1 instruction 1 (send): unknown channel nope"},
		{behav.Recv("nope"), "core: task F1 instruction 1 (recv): unknown channel nope"},
	}
	for _, c := range cases {
		if err := buildWithF1Instr(c.in); err == nil || err.Error() != c.want {
			t.Errorf("Build = %v, want %q", err, c.want)
		}
	}
}

// buildWithF1Instr builds the paper's 2-tile FFT with in inserted as
// task F1's instruction 1.
func buildWithF1Instr(in behav.Instr) error {
	programs := fft.Programs(2)
	p := programs["F1"]
	p.Body = append([]behav.Instr{p.Body[0], in}, p.Body[1:]...)
	programs["F1"] = p
	_, err := sparcs.Build(fft.Taskgraph(), rc.Wildforce(), programs, sparcs.WithStages(fft.PaperStages()))
	return err
}
