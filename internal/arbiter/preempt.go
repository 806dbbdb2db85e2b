package arbiter

import "fmt"

// PreemptiveRoundRobin implements the extension the paper's conclusion
// proposes as future work: "preemption techniques could be introduced to
// ensure that no task is granted access to a shared resource and never
// relinquishes its request."
//
// It behaves exactly like the round-robin arbiter except that a holder
// that keeps requesting for more than MaxHold consecutive granted cycles
// while another task is waiting has its grant revoked: the scan resumes
// at the next task, and the hog re-enters contention like any requester.
// With no competing requests the holder may keep the resource
// indefinitely (work conservation is preserved).
type PreemptiveRoundRobin struct {
	n       int
	maxHold int
	inner   *RoundRobin
	heldFor int
}

// NewPreemptiveRoundRobin returns a preempting arbiter; maxHold must be
// at least 1 (grants are revoked after maxHold consecutive cycles).
func NewPreemptiveRoundRobin(n, maxHold int) (*PreemptiveRoundRobin, error) {
	if n < MinN || n > MaxN {
		return nil, RangeError(n)
	}
	if maxHold < 1 {
		return nil, fmt.Errorf("arbiter: maxHold must be >= 1, got %d", maxHold)
	}
	return &PreemptiveRoundRobin{
		n:       n,
		maxHold: maxHold,
		inner:   NewRoundRobin(n),
	}, nil
}

// Name implements Policy.
func (p *PreemptiveRoundRobin) Name() string { return "round-robin-preemptive" }

// N implements Policy.
func (p *PreemptiveRoundRobin) N() int { return p.n }

// Reset implements Policy.
func (p *PreemptiveRoundRobin) Reset() {
	p.inner.Reset()
	p.heldFor = 0
}

// StepBits implements BitStepper: the inner round-robin scan, with the
// hog's request bit masked out for one step once it has held for
// maxHold granted cycles while another task waits.
//
//sparcs:hotpath
func (p *PreemptiveRoundRobin) StepBits(req BitVec) BitVec {
	req &= p.inner.mask
	holder := p.inner.holder
	var holderBit BitVec
	if holder >= 0 {
		holderBit = 1 << uint(holder)
	}
	if holder >= 0 && req&holderBit != 0 && req&^holderBit != 0 && p.heldFor >= p.maxHold {
		// Revoke: mask the hog's request for this arbitration step so the
		// scan passes it by; it stays eligible from the next cycle on.
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
