package arbiter

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sparcs/internal/fsm"
	"sparcs/internal/netlist"
)

// freshHardware builds the fsm policy and the netlist policies of every
// encoding over a newly generated machine and newly synthesized
// netlists, bypassing the shared builds.
func freshHardware(t *testing.T, n int) map[string]Policy {
	t.Helper()
	m, err := Machine(n)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Policy{"fsm": &FSMPolicy{n: n, ref: fsm.NewReference(m), req: make([]bool, n)}}
	for _, enc := range []fsm.Encoding{fsm.OneHot, fsm.Compact, fsm.Gray} {
		nl, _, err := fsm.Synthesize(m, enc)
		if err != nil {
			t.Fatal(err)
		}
		s, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		out["netlist:"+enc.String()] = &NetlistPolicy{
			n: n, name: fmt.Sprintf("round-robin-gates-%s", enc), sim: s,
			req: make([]bool, n), grant: make([]bool, n),
		}
	}
	return out
}

// TestSharedHardwareMatchesFresh steps two policies built over the
// shared machine or netlist on independent request streams, one cycle
// of each in turn, against policies built from scratch: sharing the
// build must not carry one policy's state into another.
func TestSharedHardwareMatchesFresh(t *testing.T) {
	for _, n := range []int{2, 5} {
		freshA, freshB := freshHardware(t, n), freshHardware(t, n)
		for name := range freshA {
			sharedA, err := NewPolicy(name, n)
			if err != nil {
				t.Fatal(err)
			}
			sharedB, err := NewPolicy(name, n)
			if err != nil {
				t.Fatal(err)
			}
			if sharedA.Name() != freshA[name].Name() {
				t.Fatalf("%s N=%d: shared policy is named %q, fresh %q", name, n, sharedA.Name(), freshA[name].Name())
			}
			ra, rb := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)+100))
			for c := 0; c < 2000; c++ {
				reqA, reqB := BitVec(ra.Uint64())&Mask(n), BitVec(rb.Uint64())&Mask(n)
				if got, want := sharedA.StepBits(reqA), freshA[name].StepBits(reqA); got != want {
					t.Fatalf("%s N=%d cycle %d: stream A grants %#x, fresh %#x", name, n, c, got, want)
				}
				if got, want := sharedB.StepBits(reqB), freshB[name].StepBits(reqB); got != want {
					t.Fatalf("%s N=%d cycle %d: stream B grants %#x, fresh %#x", name, n, c, got, want)
				}
			}
		}
	}
	if m1, _ := sharedMachine(4); m1 == nil || m1 != machines[4].m {
		t.Fatal("sharedMachine(4) does not return the shared build")
	}
	if m, _ := Machine(4); m == machines[4].m {
		t.Fatal("Machine returns the shared build; callers may modify what it returns")
	}
	if _, err := NewNetlistPolicy(4, fsm.Gray+1); err == nil {
		t.Fatal("NewNetlistPolicy accepted an unknown encoding")
	}
}

// TestSharedHardwareConcurrent builds and steps generated policies from
// several goroutines at once, so the race detector sees the first
// builds and the shared reads.
func TestSharedHardwareConcurrent(t *testing.T) {
	specs := []string{"fsm", "netlist:one-hot", "netlist:compact", "netlist:gray"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 3 + g%2
			p, err := NewPolicy(specs[g%len(specs)], n)
			if err != nil {
				t.Error(err)
				return
			}
			ref := NewRoundRobin(n)
			r := rand.New(rand.NewSource(int64(g)))
			for c := 0; c < 500; c++ {
				req := BitVec(r.Uint64()) & Mask(n)
				if got, want := p.StepBits(req), ref.StepBits(req); got != want {
					t.Errorf("%s N=%d goroutine %d cycle %d: grant %#x, round-robin %#x", p.Name(), n, g, c, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
