package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sparcs/internal/arbiter"
)

// Class is one admission class: a named request lane with a weighted
// round-robin service quantum. Weight is the QoS knob — a class with
// weight 4 drains up to 4 queued experiments for every 1 a weight-1
// class gets while both have work queued (arbiter wrr semantics).
type Class struct {
	Name   string
	Weight int
}

// ErrDraining rejects new experiments while the server drains for
// shutdown: queued and in-flight experiments run to completion, new
// arrivals get 503.
var ErrDraining = errors.New("service: draining; new experiments rejected")

// QueueFullError rejects an experiment whose admission class already
// has a full queue — the bounded-queue backpressure signal (429).
type QueueFullError struct {
	Class string
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: admission queue for class %s is full (%d queued)", e.Class, e.Depth)
}

// UnknownClassError rejects an experiment naming a class the server
// was not configured with.
type UnknownClassError struct {
	Class string
}

func (e *UnknownClassError) Error() string {
	return fmt.Sprintf("service: unknown admission class %q", e.Class)
}

// waiter is one queued request: granted is set (under the admission
// mutex) before ch closes, so a cancelled waiter can tell whether it
// was handed a slot in the race window and must give it back.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// admission is the in-process arbitration policy in front of the
// experiment executor: per-class bounded FIFO queues drained into a
// bounded set of execution slots, with the next class picked by the
// repo's own weighted-round-robin arbiter stepping over the "class has
// queued work" request word. The same kernel that arbitrates memory
// banks inside the simulator arbitrates the server's compute.
type admission struct {
	classes []Class
	index   map[string]int
	slots   int // max concurrently executing experiments
	depth   int // per-class queue bound

	// wrr picks the next class to dispatch; nil (single class)
	// degenerates to FIFO.
	wrr *arbiter.WeightedRoundRobin

	mu         sync.Mutex
	cond       *sync.Cond
	queues     [][]*waiter
	inflight   int
	draining   bool
	drainAbort bool // set when drain's ctx expires, so its watcher exits

	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64
}

func newAdmission(classes []Class, slots, depth int) (*admission, error) {
	if len(classes) == 0 {
		return nil, errors.New("service: need at least one admission class")
	}
	a := &admission{
		classes: classes,
		index:   make(map[string]int, len(classes)),
		slots:   slots,
		depth:   depth,
		queues:  make([][]*waiter, len(classes)),
	}
	a.cond = sync.NewCond(&a.mu)
	weights := make([]int, len(classes))
	for i, c := range classes {
		if c.Name == "" {
			return nil, fmt.Errorf("service: admission class %d has no name", i)
		}
		if c.Weight < 1 {
			return nil, fmt.Errorf("service: admission class %s has weight %d; need >= 1", c.Name, c.Weight)
		}
		if _, dup := a.index[c.Name]; dup {
			return nil, fmt.Errorf("service: duplicate admission class %s", c.Name)
		}
		a.index[c.Name] = i
		weights[i] = c.Weight
	}
	if len(classes) >= arbiter.MinN {
		p, err := arbiter.NewWeightedRoundRobin(len(classes), weights)
		if err != nil {
			return nil, err
		}
		a.wrr = p
	}
	return a, nil
}

// acquire blocks until the request holds an execution slot, or fails
// typed: *UnknownClassError (bad class), ErrDraining (shutdown),
// *QueueFullError (backpressure), or ctx.Err() (client gone). A nil
// return must be paired with release().
func (a *admission) acquire(ctx context.Context, class string) error {
	ci, ok := a.index[class]
	if !ok {
		return &UnknownClassError{Class: class}
	}
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		a.rejectedDraining.Add(1)
		return ErrDraining
	}
	if a.tryFastGrantLocked() {
		a.mu.Unlock()
		return nil
	}
	if len(a.queues[ci]) >= a.depth {
		a.mu.Unlock()
		a.rejectedFull.Add(1)
		return &QueueFullError{Class: class, Depth: a.depth}
	}
	w := &waiter{ch: make(chan struct{})}
	a.queues[ci] = append(a.queues[ci], w)
	a.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Dispatch won the race: the slot is ours, give it back.
			a.mu.Unlock()
			a.release()
			return ctx.Err()
		}
		q := a.queues[ci]
		for i, x := range q {
			if x == w {
				a.queues[ci] = append(q[:i], q[i+1:]...)
				break
			}
		}
		a.cond.Broadcast()
		a.mu.Unlock()
		return ctx.Err()
	}
}

// tryFastGrantLocked admits immediately when a slot is free and no
// waiter is queued — wrr only matters under contention, so an idle
// server grants without touching the wrr arbiter or the heap. This is the
// per-request fast path: it must stay allocation-free
// (TestAdmissionFastPathAllocs pins it at zero).
//
//sparcs:hotpath
func (a *admission) tryFastGrantLocked() bool {
	if a.inflight < a.slots && a.queuedLocked() == 0 {
		a.inflight++
		return true
	}
	return false
}

// release returns an execution slot and dispatches queued waiters. Like
// the grant fast path, the uncontended release (empty queues) is on
// every request's critical path and must not allocate.
//
//sparcs:hotpath
func (a *admission) release() {
	a.mu.Lock()
	a.inflight--
	a.dispatchLocked()
	a.cond.Broadcast()
	a.mu.Unlock()
}

// dispatchLocked hands free slots to queued waiters, one wrr step per
// slot: the request word has bit c set when class c has queued work,
// and the wrr grant picks the class to dequeue from.
func (a *admission) dispatchLocked() {
	for a.inflight < a.slots {
		var req arbiter.BitVec
		for ci, q := range a.queues {
			if len(q) > 0 {
				req |= arbiter.BitVec(1) << uint(ci)
			}
		}
		if req == 0 {
			return
		}
		ci := req.FirstSet()
		if a.wrr != nil {
			if g := a.wrr.StepBits(req); g != 0 {
				ci = g.FirstSet()
			}
		}
		w := a.queues[ci][0]
		a.queues[ci] = a.queues[ci][1:]
		w.granted = true
		a.inflight++
		close(w.ch)
	}
}

func (a *admission) queuedLocked() int {
	n := 0
	for _, q := range a.queues {
		n += len(q)
	}
	return n
}

// drain flips the server into draining mode — new acquires fail with
// ErrDraining — and blocks until every queued and in-flight experiment
// has completed, or ctx expires.
func (a *admission) drain(ctx context.Context) error {
	a.mu.Lock()
	a.draining = true
	a.drainAbort = false
	a.mu.Unlock()
	done := make(chan struct{})
	// The watcher cannot select on ctx.Done() inside cond.Wait; instead
	// the ctx branch below sets drainAbort under the mutex and
	// Broadcasts, so the Wait provably wakes and the goroutine exits.
	//sparcs:ignore goroleak ctx expiry sets drainAbort under mu and Broadcasts, waking this cond.Wait; the watcher cannot outlive drain by more than one wakeup
	go func() {
		a.mu.Lock()
		for !a.drainAbort && (a.inflight > 0 || a.queuedLocked() > 0) {
			a.cond.Wait()
		}
		a.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		a.drainAbort = true
		a.cond.Broadcast()
		a.mu.Unlock()
		return ctx.Err()
	}
}

// snapshot reports the controller's live state for /v1/stats.
func (a *admission) snapshot() (inflight int, queued map[string]int, draining bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	queued = make(map[string]int, len(a.classes))
	for ci, c := range a.classes {
		queued[c.Name] = len(a.queues[ci])
	}
	return a.inflight, queued, a.draining
}
