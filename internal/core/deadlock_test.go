package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sparcs/internal/sim"
)

func mustContention(t *testing.T, spec string) []ContentionSpec {
	t.Helper()
	specs, err := ParseContention(spec)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestCheckProtocols pins the acquisition-order checker: protocols that
// embed in one global order pass, every cyclic-order shape is rejected
// with a deterministic cycle naming.
func TestCheckProtocols(t *testing.T) {
	cases := []struct {
		name  string
		spec  string
		cycle []string // nil = protocol is safe
	}{
		{"empty", "", nil},
		{"single source", "M1+M3=corr:0.25", nil},
		{"consistent order", "M1+M3=corr:0.25,M1+M3=corr:0.50/2", nil},
		{"chained order", "M1+M2=corr:0.25,M2+M3=corr:0.25,M1+M3=corr:0.25", nil},
		{"single-resource only", "M1=hog/2,M3=bursty", nil},
		{"opposite pair", "M1+M3=corr:0.90:64/1,M3+M1=corr:0.90:64/1",
			[]string{"M1", "M3", "M1"}},
		{"three-way ring", "M1+M2=corr:0.25,M2+M3=corr:0.25,M3+M1=corr:0.25",
			[]string{"M1", "M2", "M3", "M1"}},
		{"cycle within one source", "M1+M3+M2+M1... invalid", nil}, // parsed below
	}
	for _, tc := range cases {
		if tc.name == "cycle within one source" {
			// The grammar itself rejects a repeated resource inside one
			// spec (DuplicateResourceError), so a one-source cycle cannot
			// even be expressed; nothing for CheckProtocols to do.
			if _, err := ParseContention("M1+M3+M1=corr:0.25"); err == nil {
				t.Error("duplicate resource inside one spec should not parse")
			}
			continue
		}
		err := CheckProtocols(mustContention(t, tc.spec))
		if tc.cycle == nil {
			if err != nil {
				t.Errorf("%s: unexpected rejection: %v", tc.name, err)
			}
			continue
		}
		var dp *DeadlockProneError
		if !errors.As(err, &dp) {
			t.Errorf("%s: want *DeadlockProneError, got %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(dp.Cycle, tc.cycle) {
			t.Errorf("%s: cycle = %v, want %v", tc.name, dp.Cycle, tc.cycle)
		}
	}
}

// TestSimulateRejectsDeadlockProneProtocol covers the per-run
// composition path (the System API compiles once with no contention and
// injects it at Run time): a clean build plus a cyclic run protocol must
// fail in Simulate, before any cycles execute.
func TestSimulateRejectsDeadlockProneProtocol(t *testing.T) {
	d, mem, _ := compileFFT(t, 2, paperOpts())
	opts := paperOpts()
	opts.Contention = mustContention(t, "M1+M3=corr:0.90:64/1,M3+M1=corr:0.90:64/1")
	opts.MaxCyclesPerStage = 20_000
	_, err := Simulate(d, mem, opts)
	var dp *DeadlockProneError
	if !errors.As(err, &dp) {
		t.Fatalf("Simulate = %v, want *DeadlockProneError", err)
	}
	if !strings.Contains(err.Error(), "M1 -> M3 -> M1") {
		t.Fatalf("error does not name the cycle: %v", err)
	}
}

// TestSafeSharedProtocolUnaffected: a consistent-order correlated
// protocol compiles and runs identically with and without the checker in
// the path — the gate only ever rejects, it never perturbs.
func TestSafeSharedProtocolUnaffected(t *testing.T) {
	mk := func(unsafe bool) *sim.Stats {
		opts := paperOpts()
		opts.Contention = mustContention(t, "M1+M3=corr:0.25/1")
		opts.ContentionSeed = 3
		opts.UnsafeProtocols = unsafe
		d, mem, _ := compileFFT(t, 2, opts)
		res, err := Simulate(d, mem, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages[0].Stats
	}
	if !reflect.DeepEqual(mk(false), mk(true)) {
		t.Fatal("the acquisition-order gate perturbed a safe run")
	}
}
