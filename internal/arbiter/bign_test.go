package arbiter

import (
	"errors"
	"math/rand"
	"testing"
)

// driveTrace runs p for the given cycles under randomized traffic with
// the paper's M=2 release discipline (request persistently, release one
// cycle after two granted cycles) and returns the recorded trace. The
// discipline keeps every line cycling through request/grant/release, so
// the bounded-wait check sees sustained rotation rather than sparse
// luck.
func driveTrace(p Policy, n, cycles int, seed int64) []TraceStep {
	r := rand.New(rand.NewSource(seed))
	steps := make([]TraceStep, 0, cycles)
	req := make([]bool, n)
	held := make([]int, n)
	for c := 0; c < cycles; c++ {
		for i := range req {
			if held[i] >= 2 {
				req[i] = false
				held[i] = 0
			} else if !req[i] {
				req[i] = r.Intn(2) == 0
			}
		}
		g := stepBools(p, req)
		for i := range g {
			if g[i] {
				held[i]++
			}
		}
		steps = append(steps, TraceStep{Req: PackBools(req), Grant: PackBools(g)})
	}
	return steps
}

// TestCheckAllWideN: the fairness-bounded policies keep every check.go
// property — mutual exclusion, grant-implies-request, work
// conservation, and the N-1 grant-episode wait bound — at widths
// straddling the old 16-line cap and both sides of the word boundary.
// The widths 31/33 and 63 sit deliberately off the power-of-two grid
// where a rotate or mask off-by-one would first show.
func TestCheckAllWideN(t *testing.T) {
	hierGroups := map[int]int{31: 1, 32: 4, 33: 3, 63: 7, 64: 8}
	for _, n := range []int{31, 32, 33, 63, 64} {
		specs := []string{"rr", "fifo", "wrr:2", "preemptive:4"}
		for _, spec := range specs {
			p, err := NewPolicy(spec, n)
			if err != nil {
				t.Fatalf("N=%d %s: %v", n, spec, err)
			}
			steps := driveTrace(p, n, 6000, int64(n)*31+int64(len(spec)))
			if err := CheckAll(n, steps); err != nil {
				t.Errorf("N=%d %s: %v", n, spec, err)
			}
		}
		h, err := NewHierarchical(n, hierGroups[n])
		if err != nil {
			t.Fatalf("N=%d hier:%d: %v", n, hierGroups[n], err)
		}
		steps := driveTrace(h, n, 6000, int64(n)*37)
		if err := CheckAll(n, steps); err != nil {
			t.Errorf("N=%d %s: %v", n, h.Name(), err)
		}
	}
}

// TestSafetyWideN: priority and random offer no wait bound, so only the
// safety properties apply at the new widths.
func TestSafetyWideN(t *testing.T) {
	for _, n := range []int{31, 32, 33, 63, 64} {
		for _, spec := range []string{"priority", "random:9"} {
			p, err := NewPolicy(spec, n)
			if err != nil {
				t.Fatalf("N=%d %s: %v", n, spec, err)
			}
			steps := driveTrace(p, n, 4000, int64(n)*41)
			if err := CheckMutualExclusion(steps); err != nil {
				t.Errorf("N=%d %s: %v", n, spec, err)
			}
			if err := CheckGrantImpliesRequest(steps); err != nil {
				t.Errorf("N=%d %s: %v", n, spec, err)
			}
			if err := CheckWorkConserving(steps); err != nil {
				t.Errorf("N=%d %s: %v", n, spec, err)
			}
		}
	}
}

// TestSynthKindsRejectWideN: the synthesized kinds stop at MaxSynthN
// and say so through the ErrOutOfRange sentinel; the behavioral kinds
// accept the full word.
func TestSynthKindsRejectWideN(t *testing.T) {
	for _, spec := range []string{"fsm", "netlist:one-hot", "netlist:gray", "netlist:compact"} {
		for _, n := range []int{MaxSynthN + 1, MaxN} {
			_, err := NewPolicy(spec, n)
			if err == nil {
				t.Errorf("%s at N=%d should be rejected", spec, n)
				continue
			}
			if !errors.Is(err, ErrOutOfRange) {
				t.Errorf("%s at N=%d: error %v does not wrap ErrOutOfRange", spec, n, err)
			}
		}
		if _, err := NewPolicy(spec, MaxSynthN); err != nil {
			t.Errorf("%s at N=%d: %v", spec, MaxSynthN, err)
		}
	}
	for _, spec := range []string{"rr", "fifo", "priority", "random:1", "wrr:2", "preemptive:4", "hier:2"} {
		if _, err := NewPolicy(spec, MaxN); err != nil {
			t.Errorf("%s at N=%d: %v", spec, MaxN, err)
		}
	}
}
