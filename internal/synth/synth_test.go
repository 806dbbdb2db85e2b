package synth

import (
	"fmt"
	"math/rand"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/fsm"
	"sparcs/internal/netlist"
)

func TestParseTool(t *testing.T) {
	for _, s := range []string{"synplify", "fpga-express", "express"} {
		if _, err := ParseTool(s); err != nil {
			t.Errorf("ParseTool(%q): %v", s, err)
		}
	}
	if _, err := ParseTool("xst"); err == nil {
		t.Error("unknown tool should error")
	}
}

func TestSynplifyForcesOneHot(t *testing.T) {
	m, err := arbiter.Machine(3)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Run(m, fsm.Compact, Synplify)
	if err != nil {
		t.Fatal(err)
	}
	if r.Encoding != fsm.OneHot {
		t.Fatalf("Synplify effective encoding = %v, want one-hot", r.Encoding)
	}
	if r.Requested != fsm.Compact {
		t.Fatalf("requested encoding = %v, want compact", r.Requested)
	}
	// One-hot: one FF per state (2N).
	if r.FFs != 6 {
		t.Fatalf("FFs = %d, want 6", r.FFs)
	}
}

func TestExpressHonorsEncoding(t *testing.T) {
	m, err := arbiter.Machine(3)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Run(m, fsm.Compact, Express)
	if err != nil {
		t.Fatal(err)
	}
	if r.Encoding != fsm.Compact {
		t.Fatalf("Express effective encoding = %v, want compact", r.Encoding)
	}
	if r.FFs != 3 { // ceil(log2(6)) = 3
		t.Fatalf("FFs = %d, want 3", r.FFs)
	}
}

func TestRunProducesPositiveMetrics(t *testing.T) {
	m, err := arbiter.Machine(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Figure67Variants {
		r, _, err := Run(m, v.Enc, v.Tool)
		if err != nil {
			t.Fatal(err)
		}
		if r.CLBs <= 0 || r.MaxMHz <= 0 || r.LUTs <= 0 || r.Depth <= 0 {
			t.Fatalf("%s: degenerate result %+v", r.Label(), r)
		}
	}
}

// TestToolNetlistsAreEquivalent: whatever the tool policies, the
// synthesized gates must still implement the Figure 5 arbiter.
func TestToolNetlistsAreEquivalent(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		m, err := arbiter.Machine(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range Figure67Variants {
			_, nl, err := Run(m, v.Enc, v.Tool)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := netlist.NewSimulator(nl)
			if err != nil {
				t.Fatal(err)
			}
			beh := arbiter.NewRoundRobin(n)
			r := rand.New(rand.NewSource(int64(n)))
			req := make([]bool, n)
			for c := 0; c < 300; c++ {
				for i := range req {
					req[i] = r.Intn(3) != 0
				}
				want := beh.StepBits(arbiter.PackBools(req))
				got, err := sim.Step(req)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want.Bit(i) {
						t.Fatalf("N=%d %s cycle %d: grant mismatch", n, v.Tool.Name, c)
					}
				}
			}
		}
	}
}

// TestAreaGrowsWithN: the Figure 6 trend — bigger arbiters need more CLBs
// under every tool/encoding.
func TestAreaGrowsWithN(t *testing.T) {
	results, err := Sweep(arbiter.Machine, []int{2, 6, 10}, Figure67Variants)
	if err != nil {
		t.Fatal(err)
	}
	for vi, series := range results {
		for i := 1; i < len(series); i++ {
			if series[i].CLBs <= series[i-1].CLBs {
				t.Errorf("variant %d (%s): CLBs not increasing: %d then %d",
					vi, series[i].Label(), series[i-1].CLBs, series[i].CLBs)
			}
		}
	}
}

// TestClockFallsWithN: the Figure 7 trend — bigger arbiters clock slower.
func TestClockFallsWithN(t *testing.T) {
	results, err := Sweep(arbiter.Machine, []int{2, 6, 10}, Figure67Variants)
	if err != nil {
		t.Fatal(err)
	}
	for vi, series := range results {
		for i := 1; i < len(series); i++ {
			if series[i].MaxMHz >= series[i-1].MaxMHz {
				t.Errorf("variant %d (%s): MHz not decreasing: %.1f then %.1f",
					vi, series[i].Label(), series[i-1].MaxMHz, series[i].MaxMHz)
			}
		}
	}
}

// TestArbiterDoesNotLimitFFTClock: the paper's Section 4.2 claim that
// arbiters "did not introduce any overhead on the clock speed" — the
// 10-input arbiter clocks above the 6 MHz FFT design (though not above
// any design: 500 MHz would be limited by it).
func TestArbiterDoesNotLimitFFTClock(t *testing.T) {
	m, err := arbiter.Machine(10)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Run(m, fsm.OneHot, Synplify)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxMHz < 6.0 {
		t.Errorf("the 10-input arbiter clocks at %.1f MHz, below the 6 MHz FFT design", r.MaxMHz)
	}
	if r.MaxMHz >= 500.0 {
		t.Errorf("the 10-input arbiter clocks at %.1f MHz; a 500 MHz design should be limited by it", r.MaxMHz)
	}
}

// TestSynplifyBeatsExpressOneHot: with the same one-hot encoding, the
// area-oriented tool produces no more LUTs than the depth-oriented one at
// the large sizes where sharing matters (the paper singles out N=9,10 as
// the sizes where Synplify's results remained satisfactory).
func TestSynplifyBeatsExpressOneHot(t *testing.T) {
	for _, n := range []int{9, 10} {
		m, err := arbiter.Machine(n)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := Run(m, fsm.OneHot, Synplify)
		if err != nil {
			t.Fatal(err)
		}
		re, _, err := Run(m, fsm.OneHot, Express)
		if err != nil {
			t.Fatal(err)
		}
		if rs.LUTs > re.LUTs {
			t.Errorf("N=%d: synplify %d LUTs > express %d LUTs", n, rs.LUTs, re.LUTs)
		}
	}
}

func TestLabels(t *testing.T) {
	r := Result{Tool: "fpga-express", Encoding: fsm.OneHot}
	if r.Label() != "FPGA_express One-Hot" {
		t.Fatalf("Label = %q", r.Label())
	}
	r = Result{Tool: "synplify", Encoding: fsm.OneHot}
	if r.Label() != "Synplify One-Hot" {
		t.Fatalf("Label = %q", r.Label())
	}
}

// TestSweepShape verifies Sweep's result dimensions.
func TestSweepShape(t *testing.T) {
	sizes := []int{2, 3, 4}
	results, err := Sweep(arbiter.Machine, sizes, Figure67Variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Figure67Variants) {
		t.Fatalf("variants = %d", len(results))
	}
	for _, series := range results {
		if len(series) != len(sizes) {
			t.Fatalf("series length = %d", len(series))
		}
	}
}

func TestSweepPropagatesGenError(t *testing.T) {
	gen := func(n int) (*fsm.Machine, error) { return nil, fmt.Errorf("boom") }
	if _, err := Sweep(gen, []int{2}, Figure67Variants); err == nil {
		t.Fatal("expected generator error to propagate")
	}
}
