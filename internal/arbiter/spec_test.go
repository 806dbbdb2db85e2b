package arbiter

import (
	"strings"
	"testing"
)

func TestParsePolicySpecCanonical(t *testing.T) {
	cases := map[string]string{
		"round-robin":            "round-robin",
		"rr":                     "round-robin",
		"fifo":                   "fifo",
		"priority":               "priority",
		"random":                 "random:1",
		"random:77":              "random:77",
		"fsm":                    "fsm",
		"netlist":                "netlist:one-hot",
		"netlist:gray":           "netlist:gray",
		"netlist:compact":        "netlist:compact",
		"preemptive":             "preemptive:4",
		"preemptive:16":          "preemptive:16",
		"wrr":                    "wrr:1",
		"wrr:3":                  "wrr:3",
		"wrr:1,2,3":              "wrr:1,2,3",
		"weighted:2":             "wrr:2",
		"weighted-round-robin:2": "wrr:2",
		"hier":                   "hier:2",
		"hier:3":                 "hier:3",
		"tree:3":                 "hier:3",
		"hierarchical:2":         "hier:2",
	}
	for in, want := range cases {
		sp, err := ParsePolicySpec(in)
		if err != nil {
			t.Errorf("ParsePolicySpec(%q): %v", in, err)
			continue
		}
		if got := sp.String(); got != want {
			t.Errorf("ParsePolicySpec(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParsePolicySpecErrors(t *testing.T) {
	for _, in := range []string{
		"", "lottery", "rr:1", "fifo:2", "priority:x", "fsm:gray",
		"random:0", "random:70000", "random:x",
		"netlist:johnson",
		"preemptive:0", "preemptive:-1", "preemptive:x",
		"wrr:0", "wrr:x", "wrr:1,0,2", "wrr:1,,2",
		"hier:0", "hier:-2", "hier:x",
	} {
		if _, err := ParsePolicySpec(in); err == nil {
			t.Errorf("ParsePolicySpec(%q) should error", in)
		}
	}
}

// TestNewPolicyReachesEveryImplementation: the satellite bugfix — every
// policy implementation in the package must be constructible by name,
// including FSMPolicy, NetlistPolicy, and the preemptive round-robin,
// which the old constructor could not reach.
func TestNewPolicyReachesEveryImplementation(t *testing.T) {
	const n = 6
	specs := []string{
		"round-robin", "fifo", "priority", "random:7",
		"fsm", "netlist:one-hot", "preemptive:3", "wrr:2", "wrr:1,2,3,1,2,3", "hier:3",
	}
	seen := map[string]bool{}
	req := make([]bool, n)
	req[1] = true
	for _, spec := range specs {
		p, err := NewPolicy(spec, n)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", spec, err)
		}
		if p.N() != n {
			t.Fatalf("NewPolicy(%q).N() = %d, want %d", spec, p.N(), n)
		}
		g := stepBools(p, req)
		if !g[1] {
			t.Fatalf("NewPolicy(%q): sole requester not granted: %v", spec, g)
		}
		seen[p.Name()] = true
	}
	if len(seen) < 9 {
		t.Fatalf("only %d distinct policy implementations reachable: %v", len(seen), seen)
	}
}

// TestNewPolicySizeConstraints: size-dependent parameters fail cleanly.
func TestNewPolicySizeConstraints(t *testing.T) {
	if _, err := NewPolicy("wrr:1,2", 6); err == nil || !strings.Contains(err.Error(), "weights") {
		t.Errorf("wrr with 2 weights at N=6 should error about weights, got %v", err)
	}
	if _, err := NewPolicy("hier:4", 6); err == nil || !strings.Contains(err.Error(), "divide") {
		t.Errorf("hier:4 at N=6 should error about divisibility, got %v", err)
	}
	if _, err := NewPolicy("hier:3", 6); err != nil {
		t.Errorf("hier:3 at N=6: %v", err)
	}
	if _, err := NewPolicy("hier:7", 6); err == nil {
		t.Error("hier:7 at N=6 should error (more groups than tasks)")
	}
	if _, err := NewPolicy("rr", 1); err == nil {
		t.Error("N=1 should error")
	}
}

// TestRandomSeedVariesTraffic: the satellite bugfix — "random:<seed>"
// must actually change the grant stream, so sweeps stop silently
// replaying seed 1, while equal seeds stay reproducible.
func TestRandomSeedVariesTraffic(t *testing.T) {
	const n = 5
	step := func(spec string) []int {
		p, err := NewPolicy(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		req := make([]bool, n)
		picks := make([]int, 0, 64)
		for c := 0; c < 64; c++ {
			for i := range req {
				req[i] = true
			}
			if len(picks) > 0 && picks[len(picks)-1] >= 0 {
				// The previous holder releases, forcing re-arbitration.
				req[picks[len(picks)-1]] = false
			}
			picks = append(picks, holderOf(stepBools(p, req)))
		}
		return picks
	}
	a, b, c := step("random:2"), step("random:2"), step("random:3")
	if !equalInts(a, b) {
		t.Error("random:2 must be reproducible")
	}
	if equalInts(a, c) {
		t.Error("random:2 and random:3 produced identical grant streams")
	}
	// The bare name keeps its historical meaning: seed 1.
	if !equalInts(step("random"), step("random:1")) {
		t.Error(`"random" must equal "random:1"`)
	}
}

func holderOf(g []bool) int {
	for i, v := range g {
		if v {
			return i
		}
	}
	return -1
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
