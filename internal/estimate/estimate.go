// Package estimate provides the pre-characterization the paper's Section
// 4.3 describes: "arbiters are pre-characterized for the number of inputs
// and outputs, their area, and their delay, [so] a precise estimation can
// be performed by the partitioners."
//
// The characterization is a checked-in table of the CLB area the
// repository's synthesis flow gives the Figure 5 arbiter (arbiter.Machine
// through synth.Run, Synplify, one-hot) at every width it can synthesize.
// The partitioner queries it through ArbiterCLBs instead of
// re-synthesizing, as SPARCS' estimator did, and
// TestArbiterTableMatchesSynthesis re-derives every row from the flow.
package estimate

import "sparcs/internal/arbiter"

// arbiterCLBs[n] is the synthesized CLB area of an n-input arbiter for
// arbiter.MinN ≤ n ≤ arbiter.MaxSynthN.
var arbiterCLBs = [arbiter.MaxSynthN + 1]int{
	2: 4, 3: 10, 4: 13, 5: 19, 6: 25, 7: 31, 8: 37, 9: 50,
	10: 55, 11: 68, 12: 78, 13: 90, 14: 95, 15: 111, 16: 122,
}

// ArbiterCLBs returns the CLB area of an n-input arbiter: 0 below
// arbiter.MinN, where there is nothing to arbitrate, and the synthesized
// row up to arbiter.MaxSynthN. Wider arbiters exist only as behavioral
// bitset policies, which the FSM flow cannot synthesize, so they are
// priced linearly from the widest row: table[MaxSynthN]·n / MaxSynthN.
func ArbiterCLBs(n int) int {
	switch {
	case n < arbiter.MinN:
		return 0
	case n <= arbiter.MaxSynthN:
		return arbiterCLBs[n]
	}
	return arbiterCLBs[arbiter.MaxSynthN] * n / arbiter.MaxSynthN
}

// ProtocolOverhead models the paper's fixed protocol cost: each group of
// up to M arbitrated accesses pays two extra cycles (request assertion and
// release), assuming immediate grants.
func ProtocolOverhead(accesses, m int) int {
	if accesses <= 0 {
		return 0
	}
	if m < 1 {
		m = 1
	}
	groups := (accesses + m - 1) / m
	return 2 * groups
}
