package estimate

import (
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/fsm"
	"sparcs/internal/synth"
)

// TestArbiterTableMatchesSynthesis re-derives the checked-in table: every
// row must equal what the synthesis flow gives the Figure 5 arbiter at
// that width today, so a change to the flow cannot leave the
// partitioner pricing arbiters from stale numbers.
func TestArbiterTableMatchesSynthesis(t *testing.T) {
	for n := arbiter.MinN; n <= arbiter.MaxSynthN; n++ {
		m, err := arbiter.Machine(n)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := synth.Run(m, fsm.OneHot, synth.Synplify)
		if err != nil {
			t.Fatal(err)
		}
		if got := ArbiterCLBs(n); got != r.CLBs {
			t.Errorf("N=%d: table says %d CLBs, synthesis gives %d", n, got, r.CLBs)
		}
	}
}

// TestAreaFnBounds: a single requester needs no arbiter, and area grows
// strictly with width over every width a policy can take, across the
// knee included.
func TestAreaFnBounds(t *testing.T) {
	if got := ArbiterCLBs(1); got != 0 {
		t.Errorf("ArbiterCLBs(1) = %d, want 0 (nothing to arbitrate)", got)
	}
	for n := arbiter.MinN + 1; n <= arbiter.MaxN; n++ {
		if ArbiterCLBs(n) <= ArbiterCLBs(n-1) {
			t.Errorf("ArbiterCLBs(%d) = %d, not above ArbiterCLBs(%d) = %d",
				n, ArbiterCLBs(n), n-1, ArbiterCLBs(n-1))
		}
	}
}

// TestAreaFnKnee pins the rule beyond the table: widths past
// arbiter.MaxSynthN scale the widest synthesized row linearly, so twice
// the knee width costs exactly twice the knee area.
func TestAreaFnKnee(t *testing.T) {
	knee := ArbiterCLBs(arbiter.MaxSynthN)
	if knee <= 0 {
		t.Fatalf("area at the knee = %d, want positive", knee)
	}
	if got := ArbiterCLBs(2 * arbiter.MaxSynthN); got != 2*knee {
		t.Errorf("ArbiterCLBs(%d) = %d, want exactly 2*knee = %d", 2*arbiter.MaxSynthN, got, 2*knee)
	}
}

func TestProtocolOverhead(t *testing.T) {
	// Figure 8 with M=2: 2 accesses -> one group -> 2 extra cycles.
	if got := ProtocolOverhead(2, 2); got != 2 {
		t.Fatalf("overhead(2,2) = %d, want 2", got)
	}
	if got := ProtocolOverhead(3, 2); got != 4 {
		t.Fatalf("overhead(3,2) = %d, want 4 (two groups)", got)
	}
	if got := ProtocolOverhead(4, 1); got != 8 {
		t.Fatalf("overhead(4,1) = %d, want 8", got)
	}
	if got := ProtocolOverhead(0, 2); got != 0 {
		t.Fatalf("overhead(0,2) = %d, want 0", got)
	}
}
