package arbiter

import (
	"testing"

	"sparcs/internal/netlist"
)

// buildTwoDriverLine wires two (value, grant) pairs under the scheme and
// returns a simulator plus the line net.
func buildTwoDriverLine(t *testing.T, scheme LineScheme) (*netlist.Simulator, *netlist.Netlist, netlist.NetID) {
	t.Helper()
	n := netlist.New()
	v1 := n.AddInput("v1")
	g1 := n.AddInput("g1")
	v2 := n.AddInput("v2")
	g2 := n.AddInput("g2")
	line, err := BuildSharedLine(n, scheme, []netlist.NetID{v1, v2}, []netlist.NetID{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	n.AddOutput("line", line)
	s, err := netlist.NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	return s, n, line
}

func TestTristateLineFloatsWhenIdle(t *testing.T) {
	s, _, line := buildTwoDriverLine(t, Tristate)
	// Granted driver 1 drives its value.
	out, _ := s.Step([]bool{true, true, false, false})
	if !out[0] {
		t.Fatal("granted value should appear on the line")
	}
	// Nobody granted: high impedance — the hazard Figure 4a warns about.
	s.Step([]bool{true, false, true, false})
	if _, hiZ := s.Value(line); !hiZ {
		t.Fatal("idle tristate line must float")
	}
}

func TestTristateLineConflictDetected(t *testing.T) {
	s, _, _ := buildTwoDriverLine(t, Tristate)
	s.Step([]bool{true, true, false, true}) // both enabled
	if len(s.Conflicts()) == 0 {
		t.Fatal("double-driving the tristate line must be detected")
	}
}

func TestActiveHighOrIdlesLow(t *testing.T) {
	s, _, _ := buildTwoDriverLine(t, ActiveHighOr)
	// Idle: the line must read 0 (e.g. memory stays in read mode).
	out, _ := s.Step([]bool{true, false, true, false})
	if out[0] {
		t.Fatal("idle active-high line must be 0")
	}
	// Granted task drives its value.
	out, _ = s.Step([]bool{true, true, false, false})
	if !out[0] {
		t.Fatal("granted 1 should pass through")
	}
	out, _ = s.Step([]bool{false, true, true, false})
	if out[0] {
		t.Fatal("granted 0 should pass through")
	}
}

func TestActiveLowAndIdlesHigh(t *testing.T) {
	s, _, _ := buildTwoDriverLine(t, ActiveLowAnd)
	// Idle: the line must read 1 (inactive level for active-low inputs).
	out, _ := s.Step([]bool{false, false, false, false})
	if !out[0] {
		t.Fatal("idle active-low line must be 1")
	}
	// Granted task asserts 0 (active).
	out, _ = s.Step([]bool{false, true, true, false})
	if out[0] {
		t.Fatal("granted 0 should pull the line low")
	}
}

func TestBuildSharedLineValidation(t *testing.T) {
	n := netlist.New()
	a := n.AddInput("a")
	if _, err := BuildSharedLine(n, Tristate, []netlist.NetID{a}, []netlist.NetID{a}); err == nil {
		t.Fatal("single driver should be rejected")
	}
	if _, err := BuildSharedLine(n, Tristate, []netlist.NetID{a, a}, []netlist.NetID{a}); err == nil {
		t.Fatal("length mismatch should be rejected")
	}
}

func TestRecommendedScheme(t *testing.T) {
	if RecommendedScheme(false, false) != Tristate {
		t.Error("data lines use tristate")
	}
	if RecommendedScheme(true, false) != ActiveHighOr {
		t.Error("active-high controls use OR")
	}
	if RecommendedScheme(true, true) != ActiveLowAnd {
		t.Error("active-low controls use AND")
	}
}

func TestPreemptiveRevokesHog(t *testing.T) {
	p, err := NewPreemptiveRoundRobin(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 requests forever; task 2 joins and waits.
	req := []bool{true, false, false}
	for c := 0; c < 3; c++ {
		g := stepBools(p, req)
		if !g[0] {
			t.Fatalf("cycle %d: task 1 should hold", c)
		}
	}
	req[1] = true // task 2 now waits
	revoked := -1
	for c := 0; c < 10; c++ {
		g := stepBools(p, req)
		if g[1] {
			revoked = c
			break
		}
	}
	if revoked < 0 {
		t.Fatal("hog was never preempted")
	}
	// Non-preemptive round-robin starves task 2 on the same pattern.
	rr := NewRoundRobin(3)
	req = []bool{true, false, false}
	stepBools(rr, req)
	req[1] = true
	for c := 0; c < 10; c++ {
		g := stepBools(rr, req)
		if g[1] {
			t.Fatal("plain round-robin should not preempt")
		}
	}
}

func TestPreemptiveKeepsUncontestedHolder(t *testing.T) {
	p, err := NewPreemptiveRoundRobin(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := []bool{true, false}
	for c := 0; c < 20; c++ {
		g := stepBools(p, req)
		if !g[0] {
			t.Fatalf("cycle %d: uncontested holder must keep the grant", c)
		}
	}
}

func TestPreemptiveSafetyUnderRandomTraffic(t *testing.T) {
	p, err := NewPreemptiveRoundRobin(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var steps []TraceStep
	state := uint64(99)
	req := make([]bool, 4)
	for c := 0; c < 2000; c++ {
		state = state*6364136223846793005 + 1442695040888963407
		for i := range req {
			req[i] = state&(1<<uint(i*8)) != 0
		}
		g := stepBools(p, req)
		steps = append(steps, TraceStep{Req: PackBools(req), Grant: PackBools(g)})
	}
	if err := CheckMutualExclusion(steps); err != nil {
		t.Fatal(err)
	}
	if err := CheckGrantImpliesRequest(steps); err != nil {
		t.Fatal(err)
	}
	if err := CheckWorkConserving(steps); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptiveValidation(t *testing.T) {
	if _, err := NewPreemptiveRoundRobin(1, 2); err == nil {
		t.Error("N=1 rejected")
	}
	if _, err := NewPreemptiveRoundRobin(4, 0); err == nil {
		t.Error("maxHold=0 rejected")
	}
}
