package arbiter

import (
	"math/rand"
	"reflect"
	"testing"

	"sparcs/internal/fsm"
)

// settleKind builds one policy of a kind at a width, or reports that
// the kind has no instance there.
type settleKind struct {
	name string
	mk   func(n int) (Policy, bool)
}

// settleKinds lists every behavioral kind, wrr with uniform and
// per-task weights, hier balanced and widened with phantom lanes, and
// the generated hardware up to six lines.
func settleKinds() []settleKind {
	ok := func(p Policy, err error) (Policy, bool) { return p, err == nil }
	return []settleKind{
		{"rr", func(n int) (Policy, bool) { return NewRoundRobin(n), true }},
		{"fifo", func(n int) (Policy, bool) { return NewFIFO(n), true }},
		{"priority", func(n int) (Policy, bool) { return NewPriority(n), true }},
		{"random", func(n int) (Policy, bool) { return NewRandom(n, 77), true }},
		{"wrr-uniform", func(n int) (Policy, bool) {
			w := make([]int, n)
			for i := range w {
				w[i] = 3
			}
			return ok(NewWeightedRoundRobin(n, w))
		}},
		{"wrr-per-task", func(n int) (Policy, bool) {
			w := make([]int, n)
			for i := range w {
				w[i] = 1 + i%4
			}
			return ok(NewWeightedRoundRobin(n, w))
		}},
		{"preemptive-1", func(n int) (Policy, bool) { return ok(NewPreemptiveRoundRobin(n, 1)) }},
		{"preemptive-4", func(n int) (Policy, bool) { return ok(NewPreemptiveRoundRobin(n, 4)) }},
		{"hier", func(n int) (Policy, bool) {
			groups := 2
			if n%2 != 0 {
				groups = 1
			}
			return ok(NewHierarchical(n, groups))
		}},
		{"hier-widened", func(n int) (Policy, bool) {
			members := n * 2 / 3 &^ 1 // even, so two groups divide it
			if members < MinN {
				return nil, false
			}
			return ok(NewHierarchicalWidened(members, n, 2))
		}},
		{"fsm", func(n int) (Policy, bool) {
			if n > 6 {
				return nil, false
			}
			return ok(NewFSMPolicy(n))
		}},
		{"netlist", func(n int) (Policy, bool) {
			if n > 6 {
				return nil, false
			}
			return ok(NewNetlistPolicy(n, fsm.OneHot))
		}},
	}
}

// checkSettle is the Settle contract: two instances fed the same prefix
// and then StepBits(req) must agree; if Settle(req, k) on one returns
// true, each of k StepBits(req) on the other returns the grant of that
// step and leaves it deeply equal to the settled one; if it returns
// false, the first must still equal the unstepped second.
func checkSettle(t *testing.T, kind settleKind, n int, prefix []BitVec, req BitVec, k int) {
	t.Helper()
	a, ok := kind.mk(n)
	if !ok {
		return
	}
	b, _ := kind.mk(n)
	for _, r := range prefix {
		if ga, gb := a.StepBits(r), b.StepBits(r); ga != gb {
			t.Fatalf("%s N=%d: twin instances diverge on the prefix: %#x vs %#x", kind.name, n, ga, gb)
		}
	}
	grant := a.StepBits(req)
	if g := b.StepBits(req); g != grant {
		t.Fatalf("%s N=%d: twin instances diverge on req %#x: %#x vs %#x", kind.name, n, req, grant, g)
	}
	if !a.Settle(req, k) {
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s N=%d: Settle(%#x, %d) returned false but changed the policy:\n got  %+v\n want %+v", kind.name, n, req, k, a, b)
		}
		return
	}
	for i := 0; i < k; i++ {
		if g := b.StepBits(req); g != grant {
			t.Fatalf("%s N=%d: Settle(%#x, %d) returned true, but step %d of %d grants %#x, not %#x (prefix %#x)",
				kind.name, n, req, k, i+1, k, g, grant, prefix)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s N=%d: after Settle(%#x, %d) the policy differs from %d steps (prefix %#x):\n settled %+v\n stepped %+v",
			kind.name, n, req, k, k, prefix, a, b)
	}
}

// settleReq draws a request word that makes holds likely: the previous
// word half the time, otherwise none, one or two lines, a random half,
// or every line.
func settleReq(r *rand.Rand, n int, prev BitVec) BitVec {
	line := func() BitVec { return 1 << uint(r.Intn(n)) }
	switch r.Intn(10) {
	case 0:
		return 0
	case 1, 2:
		return line()
	case 3:
		return line() | line()
	case 4:
		return BitVec(r.Uint64()) & Mask(n)
	case 5:
		return Mask(n)
	}
	return prev
}

// TestSettleMatchesSteps checks the Settle contract of every kind at
// widths 2, 6, 16 and 64 after random prefixes whose holds run past the
// wrr and preemptive quanta.
func TestSettleMatchesSteps(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, kind := range settleKinds() {
		for _, n := range []int{2, 6, 16, 64} {
			trials := 700
			if kind.name == "fsm" || kind.name == "netlist" {
				trials = 100
			}
			for trial := 0; trial < trials; trial++ {
				prefix := make([]BitVec, r.Intn(24))
				var prev BitVec
				for i := range prefix {
					prev = settleReq(r, n, prev)
					prefix[i] = prev
				}
				checkSettle(t, kind, n, prefix, settleReq(r, n, prev), r.Intn(12))
			}
		}
	}
}

// FuzzSettle drives the Settle contract from bytes: the kind, the width
// (2 to 64), k, and then one request word a byte, the last one the
// word Settle is asked about. A byte's top two bits pick the word: the
// previous one, one line, the previous with one line toggled, or none
// (low bits zero) or every line.
//
//	go test -run '^$' -fuzz '^FuzzSettle$' -fuzztime 15s ./internal/arbiter/
func FuzzSettle(f *testing.F) {
	f.Add([]byte{4, 4, 9, 0x41, 0, 0, 0})
	f.Add([]byte{4, 4, 9, 0x41, 0, 0, 0, 0x81, 0})
	f.Add([]byte{7, 62, 200, 0x45, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{6, 14, 3, 0xc1, 0, 0x43, 0x80, 0})
	f.Add([]byte{9, 4, 5, 0x82, 0x83, 0x43, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		kinds := settleKinds()
		kind := kinds[int(data[0])%len(kinds)]
		n := MinN + int(data[1])%(MaxN-MinN+1)
		k := int(data[2])
		var words []BitVec
		var prev BitVec
		for _, b := range data[3:] {
			line := BitVec(1) << uint(int(b&63)%n)
			switch b >> 6 {
			case 1:
				prev = line
			case 2:
				prev ^= line
			case 3:
				prev = 0
				if b&63 != 0 {
					prev = Mask(n)
				}
			}
			words = append(words, prev)
		}
		checkSettle(t, kind, n, words[:len(words)-1], words[len(words)-1], k)
	})
}
