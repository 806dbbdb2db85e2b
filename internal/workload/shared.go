// Correlated multi-resource sources: one generator driving request
// lines on several arbiters with hold-A-while-waiting-on-B semantics —
// the deadlock-adjacent sharing pattern (a task holds bank A while it
// waits for channel B) that no per-arbiter generator can express, and
// the ROADMAP's multi-resource workload item.

package workload

import (
	"fmt"
	"strconv"
	"strings"

	"sparcs/internal/arbiter"
)

// SharedSource is a closed-loop Generator spanning k ≥ 2 arbitrated
// resources. It runs `lanes` jobs, each claiming one request line on
// every resource, and packs them into one word of N() =
// k·lanes lines: bit r·lanes+j is lane j's line on resource r. Attached
// through sim.Source with the same resource list, each resource's
// window of `lanes` bits lands on that resource's arbiter.
//
// A lane's lifecycle is the classic hold-and-wait protocol:
//
//  1. Idle. Each cycle an arrival fires with probability p (one draw
//     per lane per cycle, consumed unconditionally, so the arrival
//     process is identical no matter which policies serve it). The
//     lanes read one sequence (see the window type), so lane j+1's
//     draw on one cycle is lane j's on the next.
//  2. Acquire the resources strictly in list order: request
//     resource i while KEEPING the request lines of resources 0..i-1
//     asserted — under the paper's non-preemptive protocol an asserted
//     request retains its grant, so the lane holds everything it has
//     acquired while it waits.
//  3. Once every resource has been acquired, hold them all for `hold`
//     cycles counted while all grants are simultaneously observed (a
//     preemptive policy can revoke a grant mid-hold; such cycles do not
//     count), then release every line at once and go idle.
//
// Two SharedSources spanning the same resources in opposite orders
// create a circular hold-and-wait — genuinely deadlock-adjacent load the
// simulator's watchdog must catch.
type SharedSource struct {
	name     string
	k, lanes int
	seed     uint64
	hold     int
	// win holds the lanes' arrival draws (see the window type), against
	// the arrival threshold of an idle lane.
	win window
	// Per resource r: the lane-0 line r·lanes of its window, and
	// prefix[r], one bit per window 0..r — the lines a lane requests
	// while it acquires resource r (shifted up by the lane index).
	shifts []uint
	prefix []arbiter.BitVec
	// Per lane: number of resources acquired so far, -1 when idle. A
	// resource counts as acquired once its grant has been observed; the
	// line stays asserted from first request through release.
	stage []int
	// Per lane: all-held cycles accumulated toward the hold time.
	heldFor []int
}

// NewShared returns a correlated source over the named resources in
// acquisition order. Each of the lanes runs a job stream of its own,
// drawn from one sequence derived from seed, lane j one position ahead
// of lane j−1; p is the per-cycle arrival probability of an idle lane
// and hold the number of all-held cycles before release. All lanes on
// all resources must fit one request word: len(resources)·lanes ≤
// arbiter.MaxN.
func NewShared(resources []string, lanes int, p float64, hold int, seed uint64) (*SharedSource, error) {
	if len(resources) < 2 {
		return nil, fmt.Errorf("workload: shared source needs at least 2 resources, got %v", resources)
	}
	seen := map[string]bool{}
	for _, r := range resources {
		if r == "" {
			return nil, fmt.Errorf("workload: shared source has an empty resource name in %v", resources)
		}
		if seen[r] {
			return nil, fmt.Errorf("workload: shared source names resource %s twice", r)
		}
		seen[r] = true
	}
	if lanes < 1 {
		return nil, fmt.Errorf("workload: shared source lanes must be positive, got %d", lanes)
	}
	// Divide rather than multiply: a huge lane count must not wrap the
	// product past the bound.
	if lanes > arbiter.MaxN/len(resources) {
		return nil, fmt.Errorf("workload: shared source spans %d resources × %d lanes; one request word holds at most %d request lines",
			len(resources), lanes, arbiter.MaxN)
	}
	if err := checkRate("corr", p); err != nil {
		return nil, err
	}
	if hold < 1 {
		return nil, fmt.Errorf("workload: shared source hold must be positive, got %d", hold)
	}
	s := &SharedSource{
		name:    fmt.Sprintf("corr:%.2f:%d", p, hold),
		k:       len(resources),
		lanes:   lanes,
		seed:    seed,
		hold:    hold,
		win:     newWindow(lanes, threshold(p), 0),
		stage:   make([]int, lanes),
		heldFor: make([]int, lanes),
	}
	var prefix arbiter.BitVec
	for r := range resources {
		sh := uint(r * lanes)
		prefix |= arbiter.BitVec(1) << sh
		s.shifts = append(s.shifts, sh)
		s.prefix = append(s.prefix, prefix)
	}
	s.Reset()
	return s, nil
}

// Name identifies the source shape with its parameters.
func (s *SharedSource) Name() string { return s.name }

// N returns the packed line count: lanes on every spanned resource.
func (s *SharedSource) N() int { return s.k * s.lanes }

// Reset returns every lane to idle and rewinds the arrival draws.
func (s *SharedSource) Reset() {
	s.win.prime(s.seed)
	for j := range s.stage {
		s.stage[j] = -1
		s.heldFor[j] = 0
	}
}

// NextBits advances every lane one cycle: it consumes last cycle's
// grants and returns the request word, both in the packed layout (bit
// r·lanes+j = lane j on resource r). It implements Generator and is
// allocation-free.
//
//sparcs:hotpath
func (s *SharedSource) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	// allHeld: the lanes granted on every resource last cycle.
	allHeld := arbiter.Mask(s.lanes)
	for _, sh := range s.shifts {
		allHeld &= prevGrant >> sh
	}
	// One draw per lane per cycle regardless of state, so arrivals are
	// policy-independent.
	arrivals := s.win.read(0)
	s.win.advance()
	var req arbiter.BitVec
	for j := 0; j < s.lanes; j++ {
		bit := arbiter.BitVec(1) << uint(j)
		arrive := arrivals&bit != 0
		switch {
		case s.stage[j] < 0:
			if arrive {
				s.stage[j] = 0
			}
		case s.stage[j] < s.k:
			// Waiting on resource stage[j]: advance when its grant lands.
			// Several may land in back-to-back cycles; latch one per cycle
			// (the request for the next resource only went up last cycle).
			if prevGrant>>s.shifts[s.stage[j]]&bit != 0 {
				s.stage[j]++
			}
		}
		if s.stage[j] == s.k {
			// All acquired: count cycles where every grant is held
			// simultaneously (preemption can take one away mid-hold).
			if allHeld&bit != 0 {
				s.heldFor[j]++
			}
			if s.heldFor[j] >= s.hold {
				s.stage[j] = -1
				s.heldFor[j] = 0
			}
		}
		// Request lines: everything acquired so far plus the one being
		// waited on; idle lanes release everything.
		if s.stage[j] >= 0 {
			req |= s.prefix[min(s.stage[j], s.k-1)] << uint(j)
		}
	}
	return req
}

// NewSharedGenerator constructs a correlated source from the textual
// grammar used by contention specs:
//
//	corr[:p[:hold]]
//
// p is the per-lane arrival probability when idle (default 0.10) and
// hold the all-held cycles before release (default 2; the separator is
// ':' because contention spec lists are comma-separated). The resource
// list, lane count, and seed come from the surrounding spec
// ("M1+M3=corr:0.25/2" spans M1 and M3 with 2 lanes).
func NewSharedGenerator(spec string, resources []string, lanes int, seed uint64) (*SharedSource, error) {
	shape, param := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		shape, param = spec[:i], spec[i+1:]
	}
	if shape != "corr" {
		return nil, fmt.Errorf("workload: unknown shared workload %q (only \"corr[:p[:hold]]\" spans resources)", spec)
	}
	p, hold := 0.10, 2
	if param != "" {
		ps, hs, hasHold := param, "", false
		if i := strings.IndexByte(param, ':'); i >= 0 {
			ps, hs, hasHold = param[:i], param[i+1:], true
		}
		v, err := strconv.ParseFloat(ps, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: corr rate %q is not a number", ps)
		}
		p = v
		if hasHold {
			h, err := strconv.Atoi(hs)
			if err != nil || h < 1 {
				return nil, fmt.Errorf("workload: corr hold %q must be a positive integer", hs)
			}
			hold = h
		}
	}
	return NewShared(resources, lanes, p, hold, seed)
}
