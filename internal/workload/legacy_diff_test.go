package workload

// Differential oracle for the bitset arbitration kernel: the pre-bitset
// []bool policy implementations are frozen here verbatim (modulo
// unexported naming) and driven closed-loop against the live policies
// through the word-level BitStepper path, under every default workload
// shape. Any grant-stream divergence — a single bit on a single cycle —
// fails with the full cycle context. Because the generators are
// closed-loop (requests react to last cycle's grants), matching grants
// every cycle inductively proves matching requests too, so the test
// pins the entire request/grant trajectory, not just the arbiter in
// isolation.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"sparcs/internal/arbiter"
)

// legacyStepper is the frozen pre-refactor arbitration surface: one
// in-place []bool step per cycle.
type legacyStepper interface {
	step(req, grant []bool)
}

// legacyRR is the seed's RoundRobin.StepInto: linear cyclic scan from
// the holder (or the priority pointer), modulo arithmetic throughout.
type legacyRR struct {
	n        int
	holder   int
	priority int
}

func newLegacyRR(n int) *legacyRR { return &legacyRR{n: n, holder: -1} }

func (a *legacyRR) step(req, grant []bool) {
	for i := range grant {
		grant[i] = false
	}
	start := a.priority
	if a.holder >= 0 {
		start = a.holder
	}
	granted := -1
	for k := 0; k < a.n; k++ {
		t := (start + k) % a.n
		if req[t] {
			granted = t
			break
		}
	}
	if granted < 0 {
		if a.holder >= 0 {
			a.priority = (a.holder + 1) % a.n
		}
		a.holder = -1
		return
	}
	a.holder = granted
	grant[granted] = true
}

// legacyFIFO is the seed's FIFO.StepInto: rising-edge enqueue in index
// order, head-indexed queue over a 2N backing array.
type legacyFIFO struct {
	n      int
	queue  []int
	head   int
	queued []bool
	prev   []bool
}

func newLegacyFIFO(n int) *legacyFIFO {
	return &legacyFIFO{
		n:      n,
		queue:  make([]int, 0, 2*n),
		queued: make([]bool, n),
		prev:   make([]bool, n),
	}
}

func (a *legacyFIFO) step(req, grant []bool) {
	for t := 0; t < a.n; t++ {
		if req[t] && !a.prev[t] && !a.queued[t] {
			a.queue = append(a.queue, t)
			a.queued[t] = true
		}
		a.prev[t] = req[t]
	}
	for a.head < len(a.queue) && !req[a.queue[a.head]] {
		a.queued[a.queue[a.head]] = false
		a.head++
	}
	if a.head == len(a.queue) {
		a.queue = a.queue[:0]
		a.head = 0
	} else if a.head >= a.n {
		a.queue = a.queue[:copy(a.queue, a.queue[a.head:])]
		a.head = 0
	}
	for i := range grant {
		grant[i] = false
	}
	if a.head < len(a.queue) {
		grant[a.queue[a.head]] = true
	}
}

// legacyPriority is the seed's Priority.StepInto: holder-sticky, else
// lowest-indexed requester.
type legacyPriority struct {
	n      int
	holder int
}

func newLegacyPriority(n int) *legacyPriority { return &legacyPriority{n: n, holder: -1} }

func (a *legacyPriority) step(req, grant []bool) {
	for i := range grant {
		grant[i] = false
	}
	if a.holder >= 0 && req[a.holder] {
		grant[a.holder] = true
		return
	}
	a.holder = -1
	for t := 0; t < a.n; t++ {
		if req[t] {
			a.holder = t
			grant[t] = true
			break
		}
	}
}

// legacyRandom is the seed's Random.StepInto: Galois LFSR (taps
// 0xB400), k-th requester by linear index scan.
type legacyRandom struct {
	n      int
	lfsr   uint16
	holder int
}

func newLegacyRandom(n int, seed uint16) *legacyRandom {
	if seed == 0 {
		seed = 1
	}
	return &legacyRandom{n: n, lfsr: seed, holder: -1}
}

func (a *legacyRandom) step(req, grant []bool) {
	for i := range grant {
		grant[i] = false
	}
	if a.holder >= 0 && req[a.holder] {
		grant[a.holder] = true
		return
	}
	a.holder = -1
	requesters := 0
	for t := 0; t < a.n; t++ {
		if req[t] {
			requesters++
		}
	}
	if requesters == 0 {
		return
	}
	lsb := a.lfsr & 1
	a.lfsr >>= 1
	if lsb != 0 {
		a.lfsr ^= 0xB400
	}
	k := int(a.lfsr) % requesters
	for t := 0; t < a.n; t++ {
		if req[t] {
			if k == 0 {
				a.holder = t
				grant[t] = true
				return
			}
			k--
		}
	}
}

// legacyWeighted is the seed's WeightedRoundRobin.StepInto, which with
// uniform weights was also the seed's PreemptiveRoundRobin: revoke a
// quantum-exhausted holder by masking its request for one scan.
type legacyWeighted struct {
	n       int
	weights []int
	inner   *legacyRR
	heldFor int
	masked  []bool
}

func newLegacyWeighted(n int, weights []int) *legacyWeighted {
	return &legacyWeighted{n: n, weights: weights, inner: newLegacyRR(n), masked: make([]bool, n)}
}

func (p *legacyWeighted) step(req, grant []bool) {
	holder := p.inner.holder
	othersWaiting := false
	for t, r := range req {
		if r && t != holder {
			othersWaiting = true
			break
		}
	}
	if holder >= 0 && req[holder] && othersWaiting && p.heldFor >= p.weights[holder] {
		copy(p.masked, req)
		p.masked[holder] = false
		p.inner.step(p.masked, grant)
		p.heldFor = legacyCurrentHold(grant)
		return
	}
	p.inner.step(req, grant)
	if newHolder := p.inner.holder; newHolder == holder && holder >= 0 && grant[holder] {
		p.heldFor++
	} else {
		p.heldFor = legacyCurrentHold(grant)
	}
}

func legacyCurrentHold(grants []bool) int {
	for _, g := range grants {
		if g {
			return 1
		}
	}
	return 0
}

// legacyHier is the seed's Hierarchical.StepInto: nested modulo scans
// over the cluster pointer and per-cluster member pointers.
type legacyHier struct {
	n      int
	groups int
	size   int
	holder int
	top    int
	leaf   []int
}

func newLegacyHier(n, groups int) *legacyHier {
	return &legacyHier{n: n, groups: groups, size: n / groups, holder: -1, leaf: make([]int, groups)}
}

func (p *legacyHier) step(req, grant []bool) {
	for i := range grant {
		grant[i] = false
	}
	if p.holder >= 0 && req[p.holder] {
		grant[p.holder] = true
		return
	}
	for gi := 0; gi < p.groups; gi++ {
		g := (p.top + gi) % p.groups
		base := g * p.size
		for mi := 0; mi < p.size; mi++ {
			m := (p.leaf[g] + mi) % p.size
			t := base + m
			if req[t] {
				grant[t] = true
				p.holder = t
				p.leaf[g] = (m + 1) % p.size
				p.top = (g + 1) % p.groups
				return
			}
		}
	}
	p.holder = -1
}

// newLegacy builds the frozen implementation for a policy spec, using
// the same kind:param grammar as arbiter.ParsePolicySpec.
func newLegacy(spec string, n int) (legacyStepper, error) {
	kind, param := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind, param = spec[:i], spec[i+1:]
	}
	switch kind {
	case "rr":
		return newLegacyRR(n), nil
	case "fifo":
		return newLegacyFIFO(n), nil
	case "priority":
		return newLegacyPriority(n), nil
	case "random":
		seed, err := strconv.ParseUint(param, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad random seed %q: %v", param, err)
		}
		return newLegacyRandom(n, uint16(seed)), nil
	case "preemptive":
		k, err := strconv.Atoi(param)
		if err != nil {
			return nil, fmt.Errorf("bad preemptive maxHold %q: %v", param, err)
		}
		weights := make([]int, n)
		for i := range weights {
			weights[i] = k
		}
		return newLegacyWeighted(n, weights), nil
	case "wrr":
		parts := strings.Split(param, ",")
		weights := make([]int, n)
		if len(parts) == 1 {
			w, err := strconv.Atoi(parts[0])
			if err != nil {
				return nil, fmt.Errorf("bad wrr weight %q: %v", parts[0], err)
			}
			for i := range weights {
				weights[i] = w
			}
		} else {
			if len(parts) != n {
				return nil, fmt.Errorf("wrr weight list %q has %d entries for n=%d", param, len(parts), n)
			}
			for i, s := range parts {
				w, err := strconv.Atoi(s)
				if err != nil {
					return nil, fmt.Errorf("bad wrr weight %q: %v", s, err)
				}
				weights[i] = w
			}
		}
		return newLegacyWeighted(n, weights), nil
	case "hier":
		g, err := strconv.Atoi(param)
		if err != nil {
			return nil, fmt.Errorf("bad hier groups %q: %v", param, err)
		}
		return newLegacyHier(n, g), nil
	}
	return nil, fmt.Errorf("no legacy implementation for %q", kind)
}

// diffPolicySpecs are the behavioral policy specs the differential test
// covers — every refactored kind, with both uniform and per-task wrr
// weights. fsm and netlist were not rewritten (they still run the
// synthesized machines) and are pinned against the behavioral
// round-robin by TestRoundRobinFamilyIdentical in internal/arbiter.
func diffPolicySpecs(n int) []string {
	weights := make([]string, n)
	for i := range weights {
		weights[i] = strconv.Itoa(1 + i%3)
	}
	return []string{
		"rr", "fifo", "priority", "random:1", "random:777",
		"preemptive:1", "preemptive:4",
		"wrr:2", "wrr:" + strings.Join(weights, ","),
		"hier:2",
	}
}

// TestBitsetMatchesLegacyGrantStreams drives every behavioral policy
// spec against its frozen pre-bitset implementation under every default
// workload shape at N ∈ {2, 4, 16, 64}, through the exact word-level
// path Drive and the simulator use (Generator.NextBits feeding
// Policy.StepBits), and requires bit-identical request and grant words
// on every cycle. N=64 fills the whole word, where a shift overflow in
// the kernel would wrap silently; every N is even because hier:2 needs
// it.
func TestBitsetMatchesLegacyGrantStreams(t *testing.T) {
	const cycles = 4096
	workloads := append(DefaultWorkloads(), "silent")
	for _, n := range []int{2, 4, 16, 64} {
		for _, pspec := range diffPolicySpecs(n) {
			for _, wspec := range workloads {
				legacy, err := newLegacy(pspec, n)
				if err != nil {
					t.Fatalf("N=%d %s: %v", n, pspec, err)
				}
				p, err := arbiter.NewPolicy(pspec, n)
				if err != nil {
					t.Fatalf("N=%d %s: %v", n, pspec, err)
				}
				gL, err := NewGenerator(wspec, n, 1)
				if err != nil {
					t.Fatalf("N=%d %s: %v", n, wspec, err)
				}
				gB, err := NewGenerator(wspec, n, 1)
				if err != nil {
					t.Fatalf("N=%d %s: %v", n, wspec, err)
				}

				reqL := make([]bool, n)
				grantL := make([]bool, n)
				var req, grant arbiter.BitVec
				for c := 0; c < cycles; c++ {
					// Both loops are closed: the generators react to
					// their own side's previous grant, so a divergence
					// cannot silently re-converge.
					gL.NextBits(arbiter.PackBools(grantL)).WriteBools(reqL)
					legacy.step(reqL, grantL)
					req = gB.NextBits(grant)
					grant = p.StepBits(req)
					if wantReq := arbiter.PackBools(reqL); req != wantReq {
						t.Fatalf("N=%d %s under %s cycle %d: bitset req %064b, legacy %064b",
							n, pspec, wspec, c, req, wantReq)
					}
					if wantGrant := arbiter.PackBools(grantL); grant != wantGrant {
						t.Fatalf("N=%d %s under %s cycle %d: req %064b, bitset grant %064b, legacy %064b",
							n, pspec, wspec, c, req, grant, wantGrant)
					}
				}
			}
		}
	}
}
