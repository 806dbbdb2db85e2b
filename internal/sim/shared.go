package sim

import (
	"fmt"

	"sparcs/internal/arbiter"
)

// SharedRequester is a closed-loop background traffic source whose single
// generator drives request lines on SEVERAL arbiters at once — the
// correlated multi-resource pattern a per-arbiter Requester cannot
// express ("hold bank A while waiting on channel B"). It is structurally
// identical to workload.SharedSource, so the workload package's
// correlated generators attach to a Config without an import cycle.
//
// The source claims Lanes() request lines on each of its Resources(): one
// line per (lane, resource) pair, where lane j's lines across all
// resources belong to one logical job that acquires the resources in
// Resources() order, holding everything already granted while waiting for
// the next — the hold-and-wait discipline behind deadlock-adjacent
// sharing patterns.
//
// NextBits is called once per cycle before any arbiter steps, observing
// the previous cycle's grants on every resource coherently.
// Implementations must be deterministic and allocation-free in NextBits;
// Run passes setup-allocated per-resource lane words and copies the
// results into the arbiters' request words.
type SharedRequester interface {
	// Name identifies the source ("corr:0.10").
	Name() string
	// Resources lists the arbitrated resource names the source spans, in
	// acquisition order. It must have at least two distinct entries.
	Resources() []string
	// Lanes returns the number of independent jobs the source runs; each
	// lane claims one request line on every resource.
	Lanes() int
	// NextBits rewrites req[r], resource r's lane word (bit j = lane j),
	// in place for the coming cycle after observing prevGrant[r], the
	// grants those lanes received last cycle. len(req) ==
	// len(prevGrant) == len(Resources()); bits at or above Lanes() are
	// ignored.
	NextBits(req, prevGrant []arbiter.BitVec)
	// Reset returns the source to its initial state. Run calls it once at
	// setup so a source replays identically across runs.
	Reset()
}

// SharedSource attaches one multi-resource background requester to the
// arbiters guarding its resources. On each resource, the source's lanes
// are appended after the member tasks' request lines and any
// single-resource ContentionSource lines (in Config.Shared order), the
// arbitration policy is constructed over the widened count, and the
// grants each lane wins feed back into the source's closed loop.
//
// Sources are stateful: each Config needs its own instances.
type SharedSource struct {
	// Gen produces the correlated phantom request lines.
	Gen SharedRequester
}

// SharedStats aggregates one shared source's cross-resource experience
// over a run. Per-line grant/wait counts additionally land in
// Stats.Contention under each spanned resource, exactly like
// single-resource phantom lines.
type SharedStats struct {
	// Name is the source's Name(), Resources its spanned resources in
	// acquisition order.
	Name      string
	Resources []string
	// Grants[r] counts granted line-cycles on resource r (summed over
	// lanes); Waits[r] counts line-cycles requesting without a grant.
	Grants []int
	Waits  []int
	// HoldWait counts lane-cycles in the hold-and-wait overlap: a lane
	// holding (granted) at least one resource while requesting another
	// without holding it — the deadlock-adjacent state the correlated
	// source exists to exercise.
	HoldWait int
	// AllHeld counts lane-cycles with every spanned resource granted
	// simultaneously — the lane's critical section.
	AllHeld int
}

// sharedInst is one wired shared source: per resource, the lane window
// [offs[r], offs[r]+lanes) in arbs[r]'s request/grant words, plus
// reusable per-resource lane-word scratch.
type sharedInst struct {
	gen      SharedRequester
	arbs     []*arbInst
	offs     []int
	lanes    int
	laneMask arbiter.BitVec   // low `lanes` bits
	reqW     []arbiter.BitVec // per-resource lane-word scratch
	prevW    []arbiter.BitVec
	stats    *SharedStats
}

// next refreshes the source's lane windows on every spanned resource
// from one coherent snapshot of last cycle's grants.
//
//sparcs:hotpath
func (inst *sharedInst) next() {
	for r, ai := range inst.arbs {
		off := uint(inst.offs[r])
		inst.reqW[r] = ai.req >> off & inst.laneMask
		inst.prevW[r] = ai.grant >> off & inst.laneMask
	}
	inst.gen.NextBits(inst.reqW, inst.prevW)
	for r, ai := range inst.arbs {
		off := uint(inst.offs[r])
		ai.req = ai.req&^(inst.laneMask<<off) | (inst.reqW[r]&inst.laneMask)<<off
	}
}

// wireShared validates the configured shared sources and appends their
// lanes to the named arbiters. Called after wireContention (shared lanes
// sit after single-resource phantom lines) and before policy
// construction, so policies are sized over the fully widened counts.
func wireShared(sources []SharedSource, arbs map[string]*arbInst) ([]*sharedInst, error) {
	var insts []*sharedInst
	for i, src := range sources {
		if src.Gen == nil {
			return nil, fmt.Errorf("sim: shared source %d has no generator", i)
		}
		resources := src.Gen.Resources()
		if len(resources) < 2 {
			return nil, fmt.Errorf("sim: shared source %d (%s) spans %d resource(s); need at least 2 (use a ContentionSource for one)",
				i, src.Gen.Name(), len(resources))
		}
		seen := map[string]bool{}
		for _, r := range resources {
			if seen[r] {
				return nil, fmt.Errorf("sim: shared source %d (%s) names resource %s twice", i, src.Gen.Name(), r)
			}
			seen[r] = true
			if arbs[r] == nil {
				return nil, fmt.Errorf("sim: shared source %d (%s) spans %s, but no arbiter guards it", i, src.Gen.Name(), r)
			}
		}
		lanes := src.Gen.Lanes()
		if lanes < 1 {
			return nil, fmt.Errorf("sim: shared source %d (%s) claims %d lanes", i, src.Gen.Name(), lanes)
		}
		if s, ok := src.Gen.(StaticallySilent); ok && s.Silent() {
			continue // statically silent sources are elided, like ContentionSources
		}
		for _, r := range resources {
			if ai := arbs[r]; ai.width+lanes > arbiter.MaxN {
				return nil, fmt.Errorf("sim: shared source %d (%s) widens the arbiter on %s to %d request lines; the bitset kernel supports at most %d",
					i, src.Gen.Name(), r, ai.width+lanes, arbiter.MaxN)
			}
		}
		src.Gen.Reset()
		inst := &sharedInst{
			gen:      src.Gen,
			lanes:    lanes,
			laneMask: arbiter.Mask(lanes),
			reqW:     make([]arbiter.BitVec, len(resources)),
			prevW:    make([]arbiter.BitVec, len(resources)),
			stats: &SharedStats{
				Name:      src.Gen.Name(),
				Resources: append([]string(nil), resources...),
				Grants:    make([]int, len(resources)),
				Waits:     make([]int, len(resources)),
			},
		}
		for _, r := range resources {
			ai := arbs[r]
			inst.arbs = append(inst.arbs, ai)
			inst.offs = append(inst.offs, ai.width)
			ai.width += lanes
		}
		insts = append(insts, inst)
	}
	return insts, nil
}

// observe accumulates this cycle's cross-resource statistics from the
// freshly issued grants. For lane j: every granted line counts toward its
// resource's Grants, every requesting-but-ungranted line toward Waits;
// a lane holding at least one resource while waiting on another is in
// hold-and-wait; a lane holding all of them is in its critical section.
//
//sparcs:hotpath
func (inst *sharedInst) observe() {
	for j := 0; j < inst.lanes; j++ {
		held, want, all := false, false, true
		for r, ai := range inst.arbs {
			//sparcs:ignore bitwidth offs[r]+j < width <= MaxN by wiring-time validation
			bit := arbiter.BitVec(1) << uint(inst.offs[r]+j)
			switch {
			case ai.grant&bit != 0:
				held = true
				inst.stats.Grants[r]++
			case ai.req&bit != 0:
				want = true
				inst.stats.Waits[r]++
				all = false
			default:
				all = false
			}
		}
		if held && want {
			inst.stats.HoldWait++
		}
		if held && all {
			inst.stats.AllHeld++
		}
	}
}
