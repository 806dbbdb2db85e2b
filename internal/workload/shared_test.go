package workload

import (
	"math"
	"reflect"
	"testing"

	"sparcs/internal/arbiter"
)

// nextBools drives one NextBits cycle on per-bit views: prevGrant[r][j]
// is packed into lane j of resource r's window, and the request word is
// unpacked into req[r][j].
func nextBools(s *SharedSource, req, prevGrant [][]bool) {
	var prev arbiter.BitVec
	for r, sh := range s.shifts {
		prev |= arbiter.PackBools(prevGrant[r]) << sh
	}
	out := s.NextBits(prev)
	for r, sh := range s.shifts {
		(out >> sh).WriteBools(req[r])
	}
}

// step drives one cycle against scripted previous grants.
func step(t *testing.T, s *SharedSource, prevGrant [][]bool) [][]bool {
	t.Helper()
	req := make([][]bool, s.k)
	for r := range req {
		req[r] = make([]bool, s.lanes)
	}
	nextBools(s, req, prevGrant)
	return req
}

// TestSharedHoldAndWaitProtocol walks one lane through the full
// lifecycle against a scripted arbiter: acquire A, hold A while B is
// withheld, acquire B, hold both for the hold time, release.
func TestSharedHoldAndWaitProtocol(t *testing.T) {
	s, err := NewShared([]string{"A", "B"}, 1, 1.0, 2, 7) // p=1: arrives immediately
	if err != nil {
		t.Fatal(err)
	}
	none := [][]bool{{false}, {false}}
	grantA := [][]bool{{true}, {false}}
	grantAB := [][]bool{{true}, {true}}

	// Cycle 0: idle -> arrival. Must request A only: B is NEVER
	// requested before A has been acquired.
	req := step(t, s, none)
	if !req[0][0] || req[1][0] {
		t.Fatalf("after arrival want req A only, got A=%v B=%v", req[0][0], req[1][0])
	}
	// A withheld: keeps requesting A only.
	req = step(t, s, none)
	if !req[0][0] || req[1][0] {
		t.Fatalf("while waiting on A want req A only, got A=%v B=%v", req[0][0], req[1][0])
	}
	// A granted: now holds A (request stays up) and requests B.
	req = step(t, s, grantA)
	if !req[0][0] || !req[1][0] {
		t.Fatalf("after A granted want req A and B, got A=%v B=%v", req[0][0], req[1][0])
	}
	// B withheld for several cycles: the hold-and-wait state — A's
	// request must stay asserted throughout.
	for i := 0; i < 3; i++ {
		req = step(t, s, grantA)
		if !req[0][0] || !req[1][0] {
			t.Fatalf("hold-and-wait cycle %d: want A and B asserted, got A=%v B=%v", i, req[0][0], req[1][0])
		}
	}
	// B granted: first all-held cycle counts toward hold=2.
	req = step(t, s, grantAB)
	if !req[0][0] || !req[1][0] {
		t.Fatalf("critical section: want A and B asserted, got A=%v B=%v", req[0][0], req[1][0])
	}
	// Second all-held cycle reaches the hold time: everything releases.
	req = step(t, s, grantAB)
	if req[0][0] || req[1][0] {
		t.Fatalf("after hold expires want release of both, got A=%v B=%v", req[0][0], req[1][0])
	}
	// p=1: the next cycle arrives again, restarting with A only.
	req = step(t, s, none)
	if !req[0][0] || req[1][0] {
		t.Fatalf("re-arrival want req A only, got A=%v B=%v", req[0][0], req[1][0])
	}
}

// TestSharedResetReplaysIdentically drives a 3-resource, 2-lane source
// through a scripted grant pattern twice around a Reset and requires the
// identical request stream.
func TestSharedResetReplaysIdentically(t *testing.T) {
	s, err := NewShared([]string{"A", "B", "C"}, 2, 0.4, 3, 123)
	if err != nil {
		t.Fatal(err)
	}
	script := func() [][][]bool {
		var out [][][]bool
		grant := [][]bool{{false, false}, {false, false}, {false, false}}
		for c := 0; c < 200; c++ {
			req := make([][]bool, 3)
			for r := range req {
				req[r] = make([]bool, 2)
			}
			nextBools(s, req, grant)
			out = append(out, req)
			// Scripted arbiter: grant whatever is requested every third
			// cycle, one resource at a time.
			for r := range grant {
				for j := range grant[r] {
					grant[r][j] = req[r][j] && (c+r+j)%3 == 0
				}
			}
		}
		return out
	}
	first := script()
	s.Reset()
	second := script()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("Reset did not replay the identical request stream")
	}
}

// TestSharedLaneIndependence: lanes have independent arrival streams —
// with 2 lanes the request patterns must differ somewhere over a long
// run (identical streams would mean the seed derivation collapsed).
func TestSharedLaneIndependence(t *testing.T) {
	s, err := NewShared([]string{"A", "B"}, 2, 0.3, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	grant := [][]bool{{false, false}, {false, false}}
	differ := false
	for c := 0; c < 500 && !differ; c++ {
		req := [][]bool{make([]bool, 2), make([]bool, 2)}
		nextBools(s, req, grant)
		if req[0][0] != req[0][1] || req[1][0] != req[1][1] {
			differ = true
		}
		for r := range grant {
			for j := range grant[r] {
				grant[r][j] = req[r][j] // grant everything: full progress
			}
		}
	}
	if !differ {
		t.Fatal("two lanes never diverged in 500 cycles; arrival streams are not independent")
	}
}

func TestNewSharedErrors(t *testing.T) {
	cases := []struct {
		resources []string
		lanes     int
		p         float64
		hold      int
	}{
		{[]string{"A"}, 1, 0.5, 2},      // one resource
		{[]string{"A", "A"}, 1, 0.5, 2}, // duplicate
		{[]string{"A", ""}, 1, 0.5, 2},  // empty name
		{[]string{"A", "B"}, 0, 0.5, 2}, // no lanes
		{[]string{"A", "B"}, 1, 0, 2},   // zero rate
		{[]string{"A", "B"}, 1, 1.5, 2}, // rate > 1
		{[]string{"A", "B"}, 1, math.NaN(), 2},
		{[]string{"A", "B"}, 1, 0.5, 0}, // no hold
		// All lanes on all resources must fit one request word.
		{[]string{"A", "B"}, 33, 0.5, 2},
		{[]string{"A", "B", "C"}, 22, 0.5, 2},
		// A lane count whose product with k wraps negative.
		{[]string{"A", "B"}, math.MaxInt/2 + 1, 0.5, 2},
	}
	for _, c := range cases {
		if _, err := NewShared(c.resources, c.lanes, c.p, c.hold, 1); err == nil {
			t.Errorf("NewShared(%v, %d, %g, %d) should error", c.resources, c.lanes, c.p, c.hold)
		}
	}
}

func TestNewSharedGeneratorGrammar(t *testing.T) {
	res := []string{"A", "B"}
	s, err := NewSharedGenerator("corr", res, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "corr:0.10:2" {
		t.Fatalf("default name %q", s.Name())
	}
	s, err = NewSharedGenerator("corr:0.25", res, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "corr:0.25:2" || s.N() != 4 {
		t.Fatalf("got %q N=%d, want 2 lanes on each of 2 resources", s.Name(), s.N())
	}
	s, err = NewSharedGenerator("corr:0.25:5", res, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "corr:0.25:5" {
		t.Fatalf("got %q", s.Name())
	}
	// 32 lanes on each of 2 resources fill the request word exactly.
	if s, err = NewSharedGenerator("corr", res, 32, 1); err != nil || s.N() != arbiter.MaxN {
		t.Fatalf("32 lanes over %v: err %v, want one full word", res, err)
	}
	for _, bad := range []string{"bursty", "corr:x", "corr:0.25:0", "corr:0.25:x", "corr:2.0", "corr:NaN", "corr:nan:3"} {
		if _, err := NewSharedGenerator(bad, res, 1, 1); err == nil {
			t.Errorf("spec %q should error", bad)
		}
	}
}
