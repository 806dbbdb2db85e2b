package arbiter

import "fmt"

// Policy is a cycle-level behavioral arbiter: each StepBits consumes the
// request word for one clock cycle and returns the grant word for the
// same cycle (Mealy semantics, matching the FSM).
//
// All implementations guarantee mutual exclusion (at most one grant) and
// never grant a non-requester. Fairness properties differ by policy; the
// paper selects round-robin as the only one that is both fair and cheap in
// hardware.
type Policy interface {
	// Name identifies the policy ("round-robin", "fifo", ...).
	Name() string
	// N returns the number of request lines.
	N() int
	// BitStepper arbitrates one cycle on the packed request word.
	BitStepper
	// Settle lets a caller skip cycles whose request word does not
	// change. It is called right after StepBits(req). A true result
	// means each of the next k StepBits(req) calls would return the
	// grant that call returned, and the policy has already applied
	// the state change those k calls would make, so the caller skips
	// them. A false result means the policy changed nothing, and the
	// caller steps the k cycles itself.
	Settle(req BitVec, k int) bool
}

// NewPolicy constructs a policy by name. Every implementation in the
// package is reachable, with parameters via the "kind:param" grammar
// documented on PolicySpec: "rr", "fifo", "priority", "random:77",
// "fsm", "netlist:gray", "preemptive:8", "wrr:1,2,4,8", "hier:2", ...
func NewPolicy(name string, n int) (Policy, error) {
	sp, err := ParsePolicySpec(name)
	if err != nil {
		return nil, err
	}
	return sp.New(n)
}

// RoundRobin is the behavioral reference for the Figure 5 FSM,
// implemented independently of internal/fsm so the two can cross-check.
type RoundRobin struct {
	n        int
	holder   int // task holding the resource, or -1
	priority int // task with highest scan priority when free
	mask     BitVec
}

// NewRoundRobin returns a round-robin arbiter in state F1.
func NewRoundRobin(n int) *RoundRobin {
	return &RoundRobin{n: n, holder: -1, priority: 0, mask: Mask(n)}
}

// Name implements Policy.
func (a *RoundRobin) Name() string { return "round-robin" }

// N implements Policy.
func (a *RoundRobin) N() int { return a.n }

// StepBits implements BitStepper with the exact Figure 5 semantics: scan
// requests cyclically starting at the holder (if any) or the priority
// task; the first requester found is granted and becomes the holder.
// With no requests, a releasing holder passes priority to its successor.
// The scan is a branchless rotate / isolate-lowest-set / rotate-back
// over the request word — the parallel round-robin arbiter datapath.
//
//sparcs:hotpath
func (a *RoundRobin) StepBits(req BitVec) BitVec {
	req &= a.mask
	start := a.priority
	if a.holder >= 0 {
		start = a.holder
	}
	rot := req.rotr(start, a.n)
	if rot == 0 {
		if a.holder >= 0 {
			a.priority = a.holder + 1 // Ci --zeroes--> F(i+1)
			if a.priority == a.n {
				a.priority = 0
			}
		}
		a.holder = -1
		return 0
	}
	t := start + rot.FirstSet()
	if t >= a.n {
		t -= a.n
	}
	a.holder = t
	return 1 << uint(t)
}

// Settle implements Policy: after one step a requesting holder keeps its
// grant without moving a pointer, and an idle arbiter stays idle.
func (a *RoundRobin) Settle(BitVec, int) bool { return true }

// State reports the symbolic FSM state the behavioral arbiter is in, for
// cross-checking against fsm.Reference ("C3", "F1", ...). It reflects the
// state after the most recent StepBits.
func (a *RoundRobin) State() string {
	if a.holder >= 0 {
		return fmt.Sprintf("C%d", a.holder+1)
	}
	return fmt.Sprintf("F%d", a.priority+1)
}

// FIFO grants in arrival order: a task joins the queue on the rising edge
// of its request and is served when it reaches the head. In hardware this
// needs an N-deep queue of log2(N)-bit entries — the complexity the paper
// cites for rejecting it.
//
// The queue is a head-indexed slice over a fixed 2N-capacity backing
// array: pops advance head instead of reslicing the front away, and the
// live tail (at most N entries, one per queued task) is shifted down
// whenever head reaches N. Steady-state stepping therefore never
// allocates, no matter how long the run streams.
type FIFO struct {
	n      int
	mask   BitVec
	queue  []int
	head   int // queue[head:] is live
	queued BitVec
	prev   BitVec
}

// NewFIFO returns a FIFO arbiter with an empty queue.
func NewFIFO(n int) *FIFO {
	return &FIFO{
		n:     n,
		mask:  Mask(n),
		queue: make([]int, 0, 2*n),
	}
}

// Name implements Policy.
func (a *FIFO) Name() string { return "fifo" }

// N implements Policy.
func (a *FIFO) N() int { return a.n }

// StepBits implements BitStepper: rising edges (req & ^prev & ^queued)
// enqueue in index order via successive lowest-set extraction, the head
// drops non-requesters, and the head entry (if any) is granted.
//
//sparcs:hotpath
func (a *FIFO) StepBits(req BitVec) BitVec {
	req &= a.mask
	// Enqueue rising edges in index order (simultaneous arrivals tie-break
	// by index, like a priority encoder feeding the queue).
	for rising := req &^ a.prev &^ a.queued; rising != 0; rising &= rising - 1 {
		t := rising.FirstSet()
		a.queue = append(a.queue, t) //sparcs:ignore hotpath stays within the 2N backing array; compacted before it can grow
		a.queued |= 1 << uint(t)
	}
	a.prev = req
	// Drop head entries that no longer request (released or withdrawn).
	for a.head < len(a.queue) && !req.Bit(a.queue[a.head]) {
		a.queued &^= 1 << uint(a.queue[a.head])
		a.head++
	}
	// Reclaim the dead prefix: immediately when the queue drains, or by
	// shifting the at-most-N live entries down once head reaches N — so
	// len(queue) never exceeds the 2N backing capacity and the slice
	// never drifts off its original array.
	if a.head == len(a.queue) {
		a.queue = a.queue[:0]
		a.head = 0
	} else if a.head >= a.n {
		a.queue = a.queue[:copy(a.queue, a.queue[a.head:])]
		a.head = 0
	}
	if a.head < len(a.queue) {
		return 1 << uint(a.queue[a.head])
	}
	return 0
}

// Settle implements Policy: one step queued every rising edge of req and
// dropped every non-requesting head, so the queue, and the head's grant,
// stay as they are while req does.
func (a *FIFO) Settle(BitVec, int) bool { return true }

// Priority grants the lowest-indexed requester, except that a holder is
// not preempted while it keeps requesting. Starvation-prone by design:
// high-priority tasks can lock out low-priority ones indefinitely.
type Priority struct {
	n      int
	mask   BitVec
	holder int
}

// NewPriority returns a static-priority arbiter (task 1 highest).
func NewPriority(n int) *Priority {
	return &Priority{n: n, mask: Mask(n), holder: -1}
}

// Name implements Policy.
func (a *Priority) Name() string { return "priority" }

// N implements Policy.
func (a *Priority) N() int { return a.n }

// StepBits implements BitStepper: a still-requesting holder persists,
// otherwise the lowest set request bit wins (task 1 highest priority).
//
//sparcs:hotpath
func (a *Priority) StepBits(req BitVec) BitVec {
	req &= a.mask
	if a.holder >= 0 && req.Bit(a.holder) {
		return 1 << uint(a.holder)
	}
	if req == 0 {
		a.holder = -1
		return 0
	}
	a.holder = req.FirstSet()
	return req & -req // isolate the lowest set bit
}

// Settle implements Policy: after one step a requesting holder keeps its
// grant, and an idle arbiter stays idle.
func (a *Priority) Settle(BitVec, int) bool { return true }

// Random grants a pseudo-random requester (16-bit LFSR, deterministic),
// without preempting a still-requesting holder. Fair only in expectation;
// offers no worst-case wait bound.
type Random struct {
	n      int
	mask   BitVec
	lfsr   uint16
	holder int
}

// NewRandom returns a random arbiter seeded deterministically (seed must
// be nonzero; 0 is replaced by 1).
func NewRandom(n int, seed uint16) *Random {
	if seed == 0 {
		seed = 1
	}
	return &Random{n: n, mask: Mask(n), lfsr: seed, holder: -1}
}

// Name implements Policy.
func (a *Random) Name() string { return "random" }

// N implements Policy.
func (a *Random) N() int { return a.n }

// StepBits implements BitStepper: a still-requesting holder persists,
// otherwise the k-th set request bit (k from the LFSR) wins.
//
//sparcs:hotpath
func (a *Random) StepBits(req BitVec) BitVec {
	req &= a.mask
	if a.holder >= 0 && req.Bit(a.holder) {
		return 1 << uint(a.holder)
	}
	a.holder = -1
	requesters := req.Count()
	if requesters == 0 {
		return 0
	}
	// Galois LFSR x^16 + x^14 + x^13 + x^11 + 1.
	lsb := a.lfsr & 1
	a.lfsr >>= 1
	if lsb != 0 {
		a.lfsr ^= 0xB400
	}
	// Pick the k-th requester in index order, matching the slice-based
	// original: clear k lowest set bits, then take the next.
	v := req
	for k := int(a.lfsr) % requesters; k > 0; k-- {
		v &= v - 1
	}
	a.holder = v.FirstSet()
	return v & -v
}

// Settle implements Policy: after one step a requesting holder keeps its
// grant without drawing from the LFSR, and an idle arbiter draws nothing.
func (a *Random) Settle(BitVec, int) bool { return true }
