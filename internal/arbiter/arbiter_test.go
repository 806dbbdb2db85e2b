package arbiter

import (
	"math/rand"
	"testing"

	"sparcs/internal/fsm"
)

// stepBools arbitrates one cycle of p on a per-bit request vector and
// returns a fresh per-bit grant vector: the view the hand-written
// expectations and the TraceStep property checks use.
func stepBools(p BitStepper, req []bool) []bool {
	grant := make([]bool, len(req))
	p.StepBits(PackBools(req)).WriteBools(grant)
	return grant
}

func TestMachineBounds(t *testing.T) {
	if _, err := Machine(1); err == nil {
		t.Error("N=1 should be rejected")
	}
	if _, err := Machine(MaxN + 1); err == nil {
		t.Error("N>MaxN should be rejected")
	}
}

func TestMachineShape(t *testing.T) {
	for n := MinN; n <= 6; n++ {
		m, err := Machine(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.NumStates(); got != 2*n {
			t.Fatalf("N=%d: states = %d, want %d", n, got, 2*n)
		}
		if len(m.Inputs) != n || len(m.Outputs) != n {
			t.Fatalf("N=%d: I/O = %d/%d", n, len(m.Inputs), len(m.Outputs))
		}
		if m.States[m.Reset] != "F1" {
			t.Fatalf("N=%d: reset state = %s, want F1", n, m.States[m.Reset])
		}
	}
}

// TestMachineMatchesBehavioral cross-checks the Figure 5 FSM against the
// independent behavioral round-robin implementation, including the
// symbolic state trajectory.
func TestMachineMatchesBehavioral(t *testing.T) {
	for n := MinN; n <= 8; n++ {
		m, err := Machine(n)
		if err != nil {
			t.Fatal(err)
		}
		ref := fsm.NewReference(m)
		beh := NewRoundRobin(n)
		r := rand.New(rand.NewSource(int64(n)))
		req := make([]bool, n)
		for c := 0; c < 2000; c++ {
			for i := range req {
				req[i] = r.Intn(3) != 0 // bias toward contention
			}
			fsmOut, err := ref.Step(req)
			if err != nil {
				t.Fatal(err)
			}
			behOut := stepBools(beh, req)
			for i := range fsmOut {
				if fsmOut[i] != behOut[i] {
					t.Fatalf("N=%d cycle %d req=%v: FSM grant[%d]=%v, behavioral %v",
						n, c, req, i, fsmOut[i], behOut[i])
				}
			}
			if ref.StateName() != beh.State() {
				t.Fatalf("N=%d cycle %d: FSM state %s, behavioral %s",
					n, c, ref.StateName(), beh.State())
			}
		}
	}
}

func TestRoundRobinBasicRotation(t *testing.T) {
	a := NewRoundRobin(3)
	// All three request: grants must rotate 1, 2, 3 as each releases.
	g := stepBools(a, []bool{true, true, true})
	if !g[0] {
		t.Fatalf("first grant should go to task 1, got %v", g)
	}
	g = stepBools(a, []bool{false, true, true}) // task 1 releases
	if !g[1] {
		t.Fatalf("second grant should go to task 2, got %v", g)
	}
	g = stepBools(a, []bool{true, false, true}) // task 2 releases, task 1 re-requests
	if !g[2] {
		t.Fatalf("third grant should go to task 3 (cyclic), got %v", g)
	}
	g = stepBools(a, []bool{true, false, false})
	if !g[0] {
		t.Fatalf("fourth grant wraps to task 1, got %v", g)
	}
}

func TestRoundRobinHolderNotPreempted(t *testing.T) {
	a := NewRoundRobin(4)
	stepBools(a, []bool{false, false, true, false})
	for c := 0; c < 5; c++ {
		g := stepBools(a, []bool{true, true, true, true})
		if !g[2] {
			t.Fatalf("cycle %d: holder task 3 preempted: %v", c, g)
		}
	}
}

func TestRoundRobinPriorityPassesOnIdle(t *testing.T) {
	a := NewRoundRobin(3)
	stepBools(a, []bool{true, false, false})  // C1
	stepBools(a, []bool{false, false, false}) // zeroes: priority passes to F2
	if a.State() != "F2" {
		t.Fatalf("state = %s, want F2", a.State())
	}
	g := stepBools(a, []bool{true, true, false})
	if !g[1] {
		t.Fatalf("task 2 has priority in F2, got %v", g)
	}
}

func TestNewPolicyNames(t *testing.T) {
	for _, name := range []string{"round-robin", "rr", "fifo", "priority", "random"} {
		p, err := NewPolicy(name, 4)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.N() != 4 {
			t.Fatalf("N = %d", p.N())
		}
	}
	if _, err := NewPolicy("lottery", 4); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := NewPolicy("rr", 1); err == nil {
		t.Error("N=1 should error")
	}
}

// TestAllPoliciesSafety: every policy maintains mutual exclusion and never
// grants idle tasks, under random traffic.
func TestAllPoliciesSafety(t *testing.T) {
	for _, name := range []string{"round-robin", "fifo", "priority", "random"} {
		for n := MinN; n <= 8; n += 2 {
			p, err := NewPolicy(name, n)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(n) * 31))
			var steps []TraceStep
			req := make([]bool, n)
			for c := 0; c < 1000; c++ {
				for i := range req {
					req[i] = r.Intn(2) == 0
				}
				g := stepBools(p, req)
				steps = append(steps, TraceStep{Req: PackBools(req), Grant: PackBools(g)})
			}
			if err := CheckMutualExclusion(steps); err != nil {
				t.Errorf("%s N=%d: %v", name, n, err)
			}
			if err := CheckGrantImpliesRequest(steps); err != nil {
				t.Errorf("%s N=%d: %v", name, n, err)
			}
		}
	}
}

// TestRoundRobinBoundedWaitProperty: under adversarial all-request
// traffic with single-cycle holds, no task waits more than N-1 episodes.
func TestRoundRobinBoundedWaitProperty(t *testing.T) {
	for n := MinN; n <= 10; n++ {
		a := NewRoundRobin(n)
		r := rand.New(rand.NewSource(int64(n) * 7))
		var steps []TraceStep
		req := make([]bool, n)
		held := make([]int, n) // cycles the current holder has held
		for c := 0; c < 3000; c++ {
			for i := range req {
				// Tasks request persistently; a granted task releases
				// after at most 2 cycles (the paper's M=2 protocol).
				if held[i] >= 2 {
					req[i] = false
					held[i] = 0
				} else if !req[i] {
					req[i] = r.Intn(2) == 0
				}
			}
			g := stepBools(a, req)
			for i := range g {
				if g[i] {
					held[i]++
				}
			}
			steps = append(steps, TraceStep{Req: PackBools(req), Grant: PackBools(g)})
		}
		if err := CheckAll(n, steps); err != nil {
			t.Errorf("N=%d: %v", n, err)
		}
	}
}

// TestPriorityStarves demonstrates why the paper rejects static priority:
// under sustained pressure from higher-priority tasks that release and
// re-request (the M=2 access protocol), the lowest-priority task starves.
func TestPriorityStarves(t *testing.T) {
	n := 4
	p := NewPriority(n)
	var steps []TraceStep
	req := []bool{true, true, true, true}
	held := make([]int, n)
	for c := 0; c < 200; c++ {
		g := stepBools(p, req)
		steps = append(steps, TraceStep{Req: PackBools(req), Grant: PackBools(g)})
		if g[n-1] {
			t.Fatalf("cycle %d: task N granted despite higher-priority pressure", c)
		}
		// Tasks 1..3 follow the access protocol: hold two cycles, release
		// one cycle, re-request. Task 4 requests forever.
		for i := 0; i < n-1; i++ {
			if g[i] {
				held[i]++
			}
			switch {
			case held[i] >= 2:
				req[i] = false
				held[i] = 0
			default:
				req[i] = true
			}
		}
	}
	if err := CheckBoundedWait(n, steps); err == nil {
		t.Fatal("static priority should violate the N-1 wait bound")
	}
	// The same workload under round-robin stays within the bound.
	rr := NewRoundRobin(n)
	steps = steps[:0]
	req = []bool{true, true, true, true}
	held = make([]int, n)
	for c := 0; c < 200; c++ {
		g := stepBools(rr, req)
		steps = append(steps, TraceStep{Req: PackBools(req), Grant: PackBools(g)})
		for i := 0; i < n; i++ {
			if g[i] {
				held[i]++
			}
			switch {
			case held[i] >= 2:
				req[i] = false
				held[i] = 0
			default:
				req[i] = true
			}
		}
	}
	if err := CheckBoundedWait(n, steps); err != nil {
		t.Fatalf("round-robin on the same workload: %v", err)
	}
}

// TestFIFOServesInArrivalOrder: staggered arrivals are served in order.
func TestFIFOServesInArrivalOrder(t *testing.T) {
	f := NewFIFO(3)
	// Task 3 arrives first, then task 1, then task 2.
	g := stepBools(f, []bool{false, false, true})
	if !g[2] {
		t.Fatalf("task 3 arrived first, got %v", g)
	}
	g = stepBools(f, []bool{true, false, true})
	if !g[2] {
		t.Fatalf("task 3 still holds, got %v", g)
	}
	g = stepBools(f, []bool{true, true, false}) // task 3 releases
	if !g[0] {
		t.Fatalf("task 1 queued before task 2, got %v", g)
	}
	g = stepBools(f, []bool{false, true, false})
	if !g[1] {
		t.Fatalf("task 2 served last, got %v", g)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := NewRandom(5, 77)
	b := NewRandom(5, 77)
	r := rand.New(rand.NewSource(5))
	req := make([]bool, 5)
	for c := 0; c < 500; c++ {
		for i := range req {
			req[i] = r.Intn(2) == 0
		}
		ga := stepBools(a, req)
		gb := stepBools(b, req)
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("cycle %d: same seed diverged", c)
			}
		}
	}
}

func TestCheckersCatchViolations(t *testing.T) {
	// Bit i of a word is task i+1.
	bad := []TraceStep{{Req: 0b11, Grant: 0b11}}
	if err := CheckMutualExclusion(bad); err == nil {
		t.Error("double grant should fail mutual exclusion")
	}
	bad = []TraceStep{{Req: 0b10, Grant: 0b01}}
	if err := CheckGrantImpliesRequest(bad); err == nil {
		t.Error("grant to idle task should fail")
	}
	bad = []TraceStep{{Req: 0b01, Grant: 0}}
	if err := CheckWorkConserving(bad); err == nil {
		t.Error("ungrant with pending request should fail work conservation")
	}
}

func TestMaxWaitEpisodesCounts(t *testing.T) {
	// Task 2 requests from cycle 0; tasks 1 and 3 are each served once
	// before it: 2 episodes. Bit i of a word is task i+1.
	steps := []TraceStep{
		{Req: 0b111, Grant: 0b001},
		{Req: 0b110, Grant: 0b100},
		{Req: 0b010, Grant: 0b010},
	}
	w := MaxWaitEpisodes(3, steps)
	if w[1] != 1 {
		// Episode count: task 3's grant is 1 new episode after task 2
		// started waiting (task 1's grant began in the same cycle task 2
		// started requesting — it still counts).
		t.Logf("wait episodes: %v", w)
	}
	if w[1] > 2 {
		t.Fatalf("task 2 waited %d episodes, want <= 2", w[1])
	}
	// A double grant's holder is its highest line: tasks 1 and 2 share
	// cycle 0 (holder task 2) and task 1 alone holds cycle 1, so task 3
	// waits through two episodes.
	w = MaxWaitEpisodes(3, []TraceStep{
		{Req: 0b111, Grant: 0b011},
		{Req: 0b111, Grant: 0b001},
		{Req: 0b100, Grant: 0b100},
	})
	if w[2] != 2 {
		t.Fatalf("task 3 waited %d episodes, want 2 (a cycle's holder is its highest granted line)", w[2])
	}
}
