package arbiter

import "fmt"

// WeightedRoundRobin is the round-robin arbiter with per-task service
// quanta: a holder keeps the resource while it keeps requesting, but
// once it has held for weights[holder] consecutive granted cycles while
// another task waits, its grant is revoked and the cyclic scan resumes
// at the next task. Under saturation every task's long-run grant share
// is proportional to its weight, while the round-robin scan order
// preserves the N-1 grant-episode wait bound (each competitor is served
// at most one episode per rotation). With no competing requests the
// holder keeps the resource indefinitely, so work conservation is
// preserved.
type WeightedRoundRobin struct {
	name    string
	n       int
	weights []int
	inner   *RoundRobin
	heldFor int
}

// NewWeightedRoundRobin returns a weighted round-robin arbiter; weights
// must hold one positive quantum per task.
func NewWeightedRoundRobin(n int, weights []int) (*WeightedRoundRobin, error) {
	if n < MinN || n > MaxN {
		return nil, RangeError(n)
	}
	if len(weights) != n {
		return nil, fmt.Errorf("arbiter: got %d weights for %d tasks", len(weights), n)
	}
	for i, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("arbiter: weight for task %d must be >= 1, got %d", i+1, w)
		}
	}
	return &WeightedRoundRobin{
		name:    "weighted-round-robin",
		n:       n,
		weights: append([]int(nil), weights...),
		inner:   NewRoundRobin(n),
	}, nil
}

// NewPreemptiveRoundRobin returns the extension the paper's conclusion
// proposes as future work: "preemption techniques could be introduced
// to ensure that no task is granted access to a shared resource and
// never relinquishes its request." It is the round-robin arbiter, except
// that a holder that keeps requesting for more than maxHold consecutive
// granted cycles while another task waits has its grant revoked — that
// is, weighted round-robin with every quantum equal to maxHold. maxHold
// must be at least 1.
func NewPreemptiveRoundRobin(n, maxHold int) (*WeightedRoundRobin, error) {
	if n < MinN || n > MaxN {
		return nil, RangeError(n)
	}
	if maxHold < 1 {
		return nil, fmt.Errorf("arbiter: maxHold must be >= 1, got %d", maxHold)
	}
	weights := make([]int, n)
	for i := range weights {
		weights[i] = maxHold
	}
	p, err := NewWeightedRoundRobin(n, weights)
	if err != nil {
		return nil, err
	}
	p.name = "round-robin-preemptive"
	return p, nil
}

// Name implements Policy.
func (p *WeightedRoundRobin) Name() string { return p.name }

// N implements Policy.
func (p *WeightedRoundRobin) N() int { return p.n }

// StepBits implements BitStepper: the inner round-robin scan, with the
// holder's request bit masked out for one step once its quantum is
// exhausted while another task waits.
//
//sparcs:hotpath
func (p *WeightedRoundRobin) StepBits(req BitVec) BitVec {
	req &= p.inner.mask
	holder := p.inner.holder
	var holderBit BitVec
	if holder >= 0 {
		holderBit = 1 << uint(holder)
	}
	if holder >= 0 && req&holderBit != 0 && req&^holderBit != 0 && p.heldFor >= p.weights[holder] {
		// Quantum exhausted: mask the holder's request for this
		// arbitration step so the scan passes it by; it re-enters
		// contention from the next cycle on.
		g := p.inner.StepBits(req &^ holderBit)
		p.heldFor = grantHold(g)
		return g
	}
	g := p.inner.StepBits(req)
	if p.inner.holder == holder && holder >= 0 && g&holderBit != 0 {
		p.heldFor++
	} else {
		p.heldFor = grantHold(g)
	}
	return g
}

// Settle implements Policy. With no request the arbiter stays idle. A
// holder that is the only requester keeps its grant, and its hold count
// grows by one a cycle, so Settle adds k to it. With a competitor
// waiting, the quantum can run out within the k cycles, so Settle
// returns false.
func (p *WeightedRoundRobin) Settle(req BitVec, k int) bool {
	req &= p.inner.mask
	if req == 0 {
		return true
	}
	if h := p.inner.holder; h >= 0 && req == 1<<uint(h) {
		p.heldFor += k
		return true
	}
	return false
}

// grantHold returns the hold count to restart from after a holder
// change: 1 if some task was just granted, 0 on an idle cycle.
func grantHold(grant BitVec) int {
	if grant != 0 {
		return 1
	}
	return 0
}
