package sparcs_test

import (
	"reflect"
	"strings"
	"testing"

	"sparcs"
	"sparcs/internal/core"
)

func TestNewArbiterPublicAPI(t *testing.T) {
	arb, err := sparcs.NewArbiter(3)
	if err != nil {
		t.Fatal(err)
	}
	g := arb.StepBits(0b110) // tasks 2 and 3 request
	if !g.Bit(1) {
		t.Fatalf("grant = %03b, want task 2 first", g)
	}
	if _, err := sparcs.NewArbiter(1); err == nil {
		t.Fatal("N=1 should be rejected")
	}
}

func TestNewPolicyPublicAPI(t *testing.T) {
	for _, name := range []string{"round-robin", "fifo", "priority", "random"} {
		p, err := sparcs.NewPolicy(name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.N() != 4 {
			t.Fatalf("%s: N = %d", name, p.N())
		}
	}
}

func TestArbiterVHDLPublicAPI(t *testing.T) {
	text, err := sparcs.ArbiterVHDL(5, "compact")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "entity rr_arbiter_5") {
		t.Fatal("VHDL missing entity")
	}
	if _, err := sparcs.ArbiterVHDL(5, "johnson"); err == nil {
		t.Fatal("bad encoding should error")
	}
}

func TestCharacterizeArbiterPublicAPI(t *testing.T) {
	r, err := sparcs.CharacterizeArbiter(4, "synplify", "one-hot")
	if err != nil {
		t.Fatal(err)
	}
	if r.CLBs <= 0 || r.MaxMHz <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	if _, err := sparcs.CharacterizeArbiter(4, "xst", "one-hot"); err == nil {
		t.Fatal("bad tool should error")
	}
}

func TestWildforcePublicAPI(t *testing.T) {
	b := sparcs.Wildforce()
	if len(b.PEs) != 4 {
		t.Fatalf("PEs = %d", len(b.PEs))
	}
}

// TestRunFFTCaseStudyPublicAPI is the headline integration test through
// the public System API (FFTSystem, then Run): structure, correctness,
// and timing shape all at once.
func TestRunFFTCaseStudyPublicAPI(t *testing.T) {
	cs := runFFTCaseStudy(t, 4)
	if cs.outputErr != nil {
		t.Fatalf("output check failed: %v", cs.outputErr)
	}
	if n := len(cs.sys.Design().Stages); n != 3 {
		t.Fatalf("stages = %d, want 3", n)
	}
	if cs.speedup <= 1 {
		t.Fatalf("speedup = %.2f, hardware should win", cs.speedup)
	}
	if !strings.Contains(cs.sys.Report(), "Arb6") {
		t.Fatal("report missing the 6-input arbiter")
	}
}

// TestNewArbiterRange sweeps both out-of-range sides of the public
// constructor.
func TestNewArbiterRange(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 65, 100} {
		if _, err := sparcs.NewArbiter(n); err == nil {
			t.Fatalf("N=%d should be rejected", n)
		}
	}
	for _, n := range []int{2, 16, 17, 64} {
		if _, err := sparcs.NewArbiter(n); err != nil {
			t.Fatalf("N=%d should be accepted: %v", n, err)
		}
	}
}

// TestNewPolicyErrors covers unknown names and out-of-range sizes.
func TestNewPolicyErrors(t *testing.T) {
	if _, err := sparcs.NewPolicy("lottery", 4); err == nil {
		t.Fatal("unknown policy name should error")
	}
	if _, err := sparcs.NewPolicy("round-robin", 1); err == nil {
		t.Fatal("N=1 should be rejected")
	}
	if _, err := sparcs.NewPolicy("round-robin", 65); err == nil {
		t.Fatal("N=65 should be rejected")
	}
	// Synthesized kinds keep the 2^N state-machine cap even though the
	// behavioral kinds now run to 64.
	if _, err := sparcs.NewPolicy("fsm", 17); err == nil {
		t.Fatal("fsm at N=17 should be rejected")
	}
	if _, err := sparcs.NewPolicy("netlist:one-hot", 17); err == nil {
		t.Fatal("netlist at N=17 should be rejected")
	}
}

// TestArbiterVHDLErrors covers bad encodings and bad sizes.
func TestArbiterVHDLErrors(t *testing.T) {
	for _, enc := range []string{"johnson", "", "onehot?"} {
		if _, err := sparcs.ArbiterVHDL(4, enc); err == nil {
			t.Fatalf("encoding %q should be rejected", enc)
		}
	}
	if _, err := sparcs.ArbiterVHDL(1, "one-hot"); err == nil {
		t.Fatal("N=1 should be rejected")
	}
}

// TestRunFFTCaseStudyGolden pins the case study's externally observable
// numbers: OutputOK, zero violations, the paper's three-stage structure,
// and the exact arbiter set — so any simulator change that perturbs
// scheduling shows up as a diff here.
func TestRunFFTCaseStudyGolden(t *testing.T) {
	cs := runFFTCaseStudy(t, 2)
	if cs.outputErr != nil {
		t.Fatalf("hardware memory image must match the fixed-point FFT reference: %v", cs.outputErr)
	}
	if v := cs.res.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	arbs := cs.sys.Design().Arbiters()
	want := []string{"0:M1:6", "0:M3:2", "1:M3:4"}
	if len(arbs) != len(want) {
		t.Fatalf("arbiters = %v, want %v", arbs, want)
	}
	for i := range want {
		if arbs[i] != want[i] {
			t.Fatalf("arbiters = %v, want %v", arbs, want)
		}
	}
	if cs.cyclesPerTile <= 0 || cs.hwSeconds <= 0 || cs.swSeconds <= 0 {
		t.Fatalf("degenerate timings: %.1f cycles/tile, HW %g s, SW %g s", cs.cyclesPerTile, cs.hwSeconds, cs.swSeconds)
	}
}

func TestNewPolicyPublicAPIGrammar(t *testing.T) {
	// The facade reaches every implementation, with parameters.
	for _, spec := range []string{
		"rr", "fifo", "priority", "random:9",
		"fsm", "netlist:gray", "preemptive:8", "wrr:1,2,3,4", "hier:2",
	} {
		p, err := sparcs.NewPolicy(spec, 4)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if p.N() != 4 {
			t.Fatalf("%s: N = %d", spec, p.N())
		}
	}
	if _, err := sparcs.NewPolicy("hier:3", 4); err == nil {
		t.Fatal("hier:3 at N=4 should be rejected (unbalanced tree)")
	}
}

func TestEvaluatePoliciesPublicAPI(t *testing.T) {
	policies := []string{"rr", "preemptive:4"}
	workloads := []string{"hog", "bernoulli:0.30"}
	cells, err := sparcs.EvaluatePolicies(policies, workloads, sparcs.EvaluateOptions{N: 4, Cycles: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for _, m := range cells {
		if m.Violation != "" {
			t.Errorf("%s × %s: %s", m.Policy, m.Workload, m.Violation)
		}
	}
	// The hog monopolizes plain round-robin but not the preemptive
	// arbiter — the paper's future-work claim, visible from the facade.
	rrHog, preHog := cells[0], cells[2]
	if rrHog.Jain() > 0.3 {
		t.Errorf("round-robin under hog: Jain %.3f, expected monopoly", rrHog.Jain())
	}
	if preHog.Jain() < 0.7 {
		t.Errorf("preemptive under hog: Jain %.3f, expected bounded hold", preHog.Jain())
	}
	table := sparcs.FormatPolicyTable(cells)
	if !strings.Contains(table, "jain") || !strings.Contains(table, "round-robin") {
		t.Errorf("table malformed:\n%s", table)
	}
	if _, err := sparcs.EvaluatePolicies([]string{"lottery"}, workloads, sparcs.EvaluateOptions{}); err == nil {
		t.Fatal("unknown policy should error")
	}
}

// TestFFTMeasuredColumnRoundTrip is the acceptance test for the
// capture→replay loop: the FFT case study's measured bank-M1 request
// stream (FFTSystem, Run with WithCapture, ColumnByWidth) converts into
// a workload column (backed by workload.NewTrace) and evaluates in the
// same grid as synthetic shapes, under policies the capture never ran.
func TestFFTMeasuredColumnRoundTrip(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	mem := sparcs.NewMemory()
	sparcs.LoadFFTInput(mem, 2, 42)
	res, err := sys.Run(sparcs.WithPolicy("round-robin"), sparcs.WithCapture(), sparcs.WithMemory(mem))
	if err != nil {
		t.Fatal(err)
	}
	col, err := res.ColumnByWidth("fft", 6)
	if err != nil {
		t.Fatal(err)
	}
	if col.Name != "fft:M1" {
		t.Fatalf("column name %q, want fft:M1 (the Arb6 bank)", col.Name)
	}
	cells, err := sparcs.EvaluatePolicyColumns(
		[]string{"rr", "fifo", "preemptive:4"},
		[]sparcs.WorkloadColumn{col, sparcs.SpecWorkloadColumn("bernoulli:0.30")},
		sparcs.EvaluateOptions{N: 6, Cycles: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	for i, m := range cells {
		if m.Violation != "" {
			t.Errorf("cell %d (%s × %s): %s", i, m.Policy, m.Workload, m.Violation)
		}
	}
	// The measured stream carries real demand: every policy's fft:M1
	// cell must show traffic, and being replayed open-loop under the
	// same N, demand is identical across policies in the column.
	fftDemand := cells[0].Demand()
	if fftDemand <= 0 {
		t.Fatal("measured FFT column shows no demand")
	}
	for i := 0; i < len(cells); i += 2 {
		if cells[i].Workload != "fft:M1" {
			t.Fatalf("cell %d workload %q, want fft:M1", i, cells[i].Workload)
		}
		if cells[i].Demand() != fftDemand {
			t.Errorf("fft:M1 demand differs across policies: %g vs %g", cells[i].Demand(), fftDemand)
		}
	}
	table := sparcs.FormatPolicyTable(cells)
	for _, want := range []string{"fft:M1", "p50", "p99"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// A width mismatch is a clean error, not a silent truncation.
	if _, err := res.ColumnByWidth("fft", 16); err == nil {
		t.Fatal("no 16-line arbiter exists; expected an error")
	}
}

// TestContentionPublicAPI drives background contention through the
// System API: declaring the load at Build prices the widened arbiter
// (and here overflows the board), an explicit empty declaration opts
// out of that pricing, and a run then injecting the load still verifies
// the FFT output and reports the phantom stats; the grammar round-trips.
func TestContentionPublicAPI(t *testing.T) {
	specs, err := core.ParseContention("M1=bursty/2")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || !reflect.DeepEqual(specs[0].Resources, []string{"M1"}) || specs[0].Workload != "bursty" || specs[0].Lines != 2 {
		t.Fatalf("parsed %+v", specs)
	}
	// Contention-aware partitioning prices M1's arbiter at its simulated
	// width (6 members + 2 phantoms): Arb8 costs 37 CLBs and PE1
	// genuinely overflows, which Build must report.
	if _, err := sparcs.FFTSystem(2, sparcs.WithExpectedContention("M1=bursty/2")); err == nil {
		t.Fatal("phantom-widened Arb8 should overflow PE1's CLB capacity")
	} else if !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("want an over-capacity error, got: %v", err)
	}
	// An explicit (empty) estimate opts out of the width bump — the
	// escape hatch for phantom-only experiments on a full board.
	sys, err := sparcs.FFTSystem(2, sparcs.WithExpectedContention(""))
	if err != nil {
		t.Fatal(err)
	}
	mem := sparcs.NewMemory()
	in := sparcs.LoadFFTInput(mem, 2, 42)
	res, err := sys.Run(sparcs.WithContention("M1=bursty/2"), sparcs.WithMemory(mem))
	if err != nil {
		t.Fatal(err)
	}
	if err := sparcs.CheckFFTOutput(mem, in); err != nil {
		t.Fatalf("FFT output corrupted by background contention: %v", err)
	}
	found := false
	for _, ss := range res.Stages {
		if cs := ss.Stats.Contention["M1"]; cs != nil {
			found = true
			if len(cs.Grants) != 2 {
				t.Fatalf("phantom lines %d, want 2", len(cs.Grants))
			}
		}
	}
	if !found {
		t.Fatal("no stage reported contention stats for M1")
	}
	if _, err := core.ParseContention("M1=notashape"); err == nil {
		t.Fatal("bad workload shape should error")
	}
	if _, err := core.ParseContention("M1"); err == nil {
		t.Fatal("missing '=' should error")
	}
}
