package arbiter

import (
	"math/rand"
	"testing"
)

// TestRoundRobinFamilyIdentical pins every round-robin implementation —
// behavioral, symbolic FSM, synthesized netlists, preemptive with an
// unreachable hold bound, and the hierarchical tree at its two
// degenerate shapes — to bit-identical grant sequences over randomized
// traffic. Any divergence means one of the fidelity levels drifted from
// the Figure 5 semantics.
func TestRoundRobinFamilyIdentical(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		impls := map[string]Policy{}
		impls["behavioral"] = NewRoundRobin(n)
		fsmP, err := NewFSMPolicy(n)
		if err != nil {
			t.Fatal(err)
		}
		impls["fsm"] = fsmP
		for _, enc := range []string{"one-hot", "compact"} {
			p, err := NewPolicy("netlist:"+enc, n)
			if err != nil {
				t.Fatal(err)
			}
			impls["netlist-"+enc] = p
		}
		pre, err := NewPreemptiveRoundRobin(n, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		impls["preemptive-maxhold-inf"] = pre
		for _, groups := range []int{1, n} {
			h, err := NewHierarchical(n, groups)
			if err != nil {
				t.Fatal(err)
			}
			impls["hier-"+h.Name()] = h
		}

		ref := impls["behavioral"]
		r := rand.New(rand.NewSource(int64(n) * 101))
		req := make([]bool, n)
		held := make([]int, n)
		for c := 0; c < 4000; c++ {
			if c < 2000 {
				// Phase 1: fully random traffic, including withdrawals.
				for i := range req {
					req[i] = r.Intn(3) != 0
				}
			} else {
				// Phase 2: the paper's M=2 discipline — request
				// persistently, release one cycle after two granted
				// cycles — which forces sustained rotation.
				for i := range req {
					if held[i] >= 2 {
						req[i] = false
						held[i] = 0
					} else if !req[i] {
						req[i] = r.Intn(2) == 0
					}
				}
			}
			want := append([]bool(nil), stepBools(ref, req)...)
			for i, g := range want {
				if g {
					held[i]++
				}
			}
			for name, p := range impls {
				if p == ref {
					continue
				}
				got := stepBools(p, req)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("N=%d cycle %d req=%v: %s grant %v, behavioral %v",
							n, c, req, name, got, want)
					}
				}
			}
		}
	}
}

// TestWRRMatchesPreemptiveUniform: the preemptive round-robin is
// exactly uniform-weight WRR with every quantum equal to maxHold, so
// NewPreemptiveRoundRobin must grant as an explicitly built uniform WRR
// does.
func TestWRRMatchesPreemptiveUniform(t *testing.T) {
	const n = 5
	for _, k := range []int{1, 3} {
		weights := make([]int, n)
		for i := range weights {
			weights[i] = k
		}
		wrr, err := NewWeightedRoundRobin(n, weights)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := NewPreemptiveRoundRobin(n, k)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(k) * 13))
		req := make([]bool, n)
		for c := 0; c < 3000; c++ {
			for i := range req {
				req[i] = r.Intn(3) != 0
			}
			a, b := stepBools(wrr, req), stepBools(pre, req)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("k=%d cycle %d req=%v: wrr %v, preemptive %v", k, c, req, a, b)
				}
			}
		}
	}
}

// TestWRRWeightShares: under saturation (everyone requests forever),
// long-run grant shares are exactly proportional to the weights.
func TestWRRWeightShares(t *testing.T) {
	weights := []int{3, 1, 1, 1}
	p, err := NewWeightedRoundRobin(4, weights)
	if err != nil {
		t.Fatal(err)
	}
	req := []bool{true, true, true, true}
	grants := make([]int, 4)
	const cycles = 6000 // 1000 rotations of the weight-6 period
	for c := 0; c < cycles; c++ {
		for i, g := range stepBools(p, req) {
			if g {
				grants[i]++
			}
		}
	}
	// Steady rotation serves weight[i] cycles per 6-cycle period.
	for i, w := range weights {
		want := cycles * w / 6
		if diff := grants[i] - want; diff < -6 || diff > 6 {
			t.Errorf("task %d: %d grants, want ~%d (weights %v)", i+1, grants[i], want, weights)
		}
	}
}

// TestHierarchicalRotationOrder: with two clusters {1,2} and {3,4} all
// following a release-after-one-grant discipline, clusters take strict
// turns and members take strict turns within clusters: 1,3,2,4 repeating.
func TestHierarchicalRotationOrder(t *testing.T) {
	h, err := NewHierarchical(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := []bool{true, true, true, true}
	want := []int{0, 2, 1, 3}
	for c := 0; c < 40; c++ {
		g := stepBools(h, req)
		holder := holderOf(g)
		if holder != want[c%4] {
			t.Fatalf("cycle %d: grant to task %d, want %d (sequence %v)", c, holder+1, want[c%4]+1, want)
		}
		for i := range req {
			req[i] = i != holder // holder releases for exactly one cycle
		}
	}
}

// TestHierarchicalConstructorErrors: unbalanced trees are rejected.
func TestHierarchicalConstructorErrors(t *testing.T) {
	for _, tc := range []struct{ n, groups int }{
		{4, 0}, {4, 3}, {4, 5}, {6, 4}, {1, 1}, {MaxN + 1, 2},
	} {
		if _, err := NewHierarchical(tc.n, tc.groups); err == nil {
			t.Errorf("NewHierarchical(%d, %d) should error", tc.n, tc.groups)
		}
	}
	for _, tc := range []struct{ n, groups int }{
		{4, 1}, {4, 2}, {4, 4}, {6, 3}, {8, 2},
	} {
		if _, err := NewHierarchical(tc.n, tc.groups); err != nil {
			t.Errorf("NewHierarchical(%d, %d): %v", tc.n, tc.groups, err)
		}
	}
}

// TestNewPoliciesSafetyAndBoundedWait: the two new policies maintain
// every check.go property — including the N-1 grant-episode bound —
// under randomized traffic with the M=2 release discipline.
func TestNewPoliciesSafetyAndBoundedWait(t *testing.T) {
	for _, spec := range []string{"wrr:1", "wrr:3", "wrr:1,2,3,1,2,3", "hier:2", "hier:3", "hier:6"} {
		for _, n := range []int{6} {
			p, err := NewPolicy(spec, n)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(len(spec))))
			var steps []TraceStep
			req := make([]bool, n)
			held := make([]int, n)
			for c := 0; c < 4000; c++ {
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
			if err := CheckAll(n, steps); err != nil {
				t.Errorf("%s N=%d: %v", spec, n, err)
			}
		}
	}
}

// TestFIFOSteadyStateAllocationFree: the satellite bugfix — popping
// with queue = queue[1:] drifted the backing array forward forever, so
// long streaming runs kept reallocating. The head-indexed queue must
// not allocate at all in steady state, and its backing capacity must
// stay at the original 2N.
func TestFIFOSteadyStateAllocationFree(t *testing.T) {
	const n = 4
	f := NewFIFO(n)
	req := make([]bool, n)
	grant := make([]bool, n)
	cycle := 0
	churn := func(cycles int) {
		for c := 0; c < cycles; c++ {
			for i := range req {
				// Staggered toggling: constant arrivals and departures.
				req[i] = (cycle+i*3)%7 < 4
			}
			f.StepBits(PackBools(req)).WriteBools(grant)
			cycle++
		}
	}
	churn(100) // warm up
	allocs := testing.AllocsPerRun(100, func() { churn(100) })
	if allocs != 0 {
		t.Errorf("FIFO steady state allocated %.1f times per 100-cycle run", allocs)
	}
	if cap(f.queue) != 2*n {
		t.Errorf("queue capacity drifted to %d, want the original %d", cap(f.queue), 2*n)
	}
}

// TestFIFOArrivalOrderUnderLongStreams: the head-indexed queue keeps
// exact arrival-order semantics across many compactions.
func TestFIFOArrivalOrderUnderLongStreams(t *testing.T) {
	const n = 6
	f := NewFIFO(n)
	var steps []TraceStep
	req := make([]bool, n)
	held := make([]int, n)
	r := rand.New(rand.NewSource(5))
	for c := 0; c < 20000; c++ {
		for i := range req {
			if held[i] >= 2 {
				req[i] = false
				held[i] = 0
			} else if !req[i] {
				req[i] = r.Intn(3) == 0
			}
		}
		g := stepBools(f, req)
		for i := range g {
			if g[i] {
				held[i]++
			}
		}
		if cap(f.queue) > 2*n {
			t.Fatalf("cycle %d: queue capacity grew to %d", c, cap(f.queue))
		}
		steps = append(steps, TraceStep{Req: PackBools(req), Grant: PackBools(g)})
	}
	if err := CheckMutualExclusion(steps); err != nil {
		t.Error(err)
	}
	if err := CheckGrantImpliesRequest(steps); err != nil {
		t.Error(err)
	}
	if err := CheckWorkConserving(steps); err != nil {
		t.Error(err)
	}
}
