package arbiter

import (
	"fmt"
	"math/bits"
)

// TraceStep records one arbitration cycle for property checking: the
// request and grant words the arbiter saw and issued, bit i carrying
// line i.
type TraceStep struct {
	Req   BitVec
	Grant BitVec
}

// Trace is one arbiter's recorded request/grant stream, one step per
// cycle. N is the recorded width: the member lines plus any background
// lines appended after them.
type Trace struct {
	N     int
	Steps []TraceStep
}

// CheckMutualExclusion verifies that no cycle grants more than one task
// (paper Section 4.1: "each state acknowledges at most one request").
func CheckMutualExclusion(steps []TraceStep) error {
	for c, s := range steps {
		if granted := s.Grant.Count(); granted > 1 {
			return fmt.Errorf("arbiter: cycle %d grants %d tasks, violating mutual exclusion", c, granted)
		}
	}
	return nil
}

// CheckGrantImpliesRequest verifies that grants only go to requesters.
func CheckGrantImpliesRequest(steps []TraceStep) error {
	for c, s := range steps {
		if idle := s.Grant &^ s.Req; idle != 0 {
			return fmt.Errorf("arbiter: cycle %d grants idle task %d", c, idle.FirstSet()+1)
		}
	}
	return nil
}

// CheckWorkConserving verifies that every cycle with at least one request
// issues exactly one grant — the round-robin FSM's deadlock-freedom
// argument: the resource is never idle while wanted.
func CheckWorkConserving(steps []TraceStep) error {
	for c, s := range steps {
		if s.Req != 0 && s.Grant == 0 {
			return fmt.Errorf("arbiter: cycle %d has pending requests but no grant", c)
		}
		if s.Req == 0 && s.Grant != 0 {
			return fmt.Errorf("arbiter: cycle %d grants with no requests", c)
		}
	}
	return nil
}

// MaxWaitEpisodes measures, for each task, the worst number of distinct
// grant episodes to other tasks that elapse while the task requests
// continuously before being served. A grant episode is a maximal run of
// cycles granted to one task; a cycle's holder is its highest granted
// line.
//
// The paper's round-robin bound (Section 4.1) is N-1 episodes: a requester
// waits for at most all other tasks to be served once.
func MaxWaitEpisodes(n int, steps []TraceStep) []int {
	worst := make([]int, n)
	waiting := make([]bool, n)
	episodes := make([]int, n)
	prevHolder := -1
	for _, s := range steps {
		holder := bits.Len64(uint64(s.Grant)) - 1
		newEpisode := holder >= 0 && holder != prevHolder
		for t := 0; t < n; t++ {
			switch {
			case s.Grant.Bit(t):
				if episodes[t] > worst[t] {
					worst[t] = episodes[t]
				}
				waiting[t] = false
				episodes[t] = 0
			case s.Req.Bit(t):
				if !waiting[t] {
					waiting[t] = true
					episodes[t] = 0
				}
				if newEpisode {
					episodes[t]++
				}
			default:
				waiting[t] = false
				episodes[t] = 0
			}
		}
		prevHolder = holder
	}
	// Unserved tasks at trace end still report their accumulated wait.
	for t := 0; t < n; t++ {
		if waiting[t] && episodes[t] > worst[t] {
			worst[t] = episodes[t]
		}
	}
	return worst
}

// CheckBoundedWait verifies the round-robin bound: no continuously
// requesting task waits through more than N-1 grant episodes to others.
func CheckBoundedWait(n int, steps []TraceStep) error {
	for t, w := range MaxWaitEpisodes(n, steps) {
		if w > n-1 {
			return fmt.Errorf("arbiter: task %d waited %d grant episodes, bound is %d", t+1, w, n-1)
		}
	}
	return nil
}

// CheckAll runs every safety and fairness check appropriate to the
// round-robin arbiter.
func CheckAll(n int, steps []TraceStep) error {
	if err := CheckMutualExclusion(steps); err != nil {
		return err
	}
	if err := CheckGrantImpliesRequest(steps); err != nil {
		return err
	}
	if err := CheckWorkConserving(steps); err != nil {
		return err
	}
	return CheckBoundedWait(n, steps)
}
