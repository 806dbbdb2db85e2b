package sim

import (
	"fmt"
	"slices"
	"strings"

	"sparcs/internal/arbiter"
)

// Requester is a closed-loop background traffic source for contention
// injection: each cycle NextBits observes the grants its lines received
// last cycle and returns the request word for the coming cycle. It is
// structurally identical to workload.Generator, so any generator from
// internal/workload — the correlated workload.SharedSource included —
// can be attached to a Config without an import cycle (workload already
// imports sim for its grid fan-out).
//
// Implementations must be deterministic and allocation-free in
// NextBits, keeping the hot loop allocation-free.
type Requester interface {
	// Name identifies the traffic shape ("bursty", "hog", ...).
	Name() string
	// N returns the number of phantom request lines the source claims,
	// over all the resources it spans (see Source).
	N() int
	// NextBits returns the request word for the coming cycle (bit i =
	// phantom line i) after observing prevGrant, the grants issued to
	// these lines last cycle. Bits at or above N() are ignored.
	NextBits(prevGrant arbiter.BitVec) arbiter.BitVec
	// Reset returns the source to its initial state. New calls it once
	// at setup so a source replays identically across runs.
	Reset()
}

// StaticallySilent is the optional no-op marker for Requesters: a
// source reporting Silent() == true guarantees it never asserts a
// request, and Run elides it entirely — no phantom lines, no policy
// resizing, no per-cycle sampling — so a Config that differs from an
// uninstrumented one only by silent contention produces byte-identical
// Stats under every policy (including policies like the hierarchical
// tree whose internal structure depends on the total line count).
// workload.NewSilent implements it.
type StaticallySilent interface {
	// Silent reports whether the source is statically request-free.
	Silent() bool
}

// Source attaches one background requester to the arbiters guarding its
// resources. Gen's N() lines split into len(Resources) equal windows of
// L = N()/len(Resources) lanes: bit r·L+j of Gen's words is lane j on
// Resources[r], so N() must fit one request word (≤ arbiter.MaxN). On
// each resource the window is appended after the member tasks' request
// lines and the windows of earlier sources (in Config.Sources order),
// the arbitration policy is constructed over the widened line count,
// and the source competes for grants exactly like a compiled task — the
// grants it wins are fed back into its closed loop and starve or delay
// the real tasks.
//
// One resource makes an independent phantom requester. Several make a
// correlated source whose lanes act across all of them at once (the
// hold-A-while-waiting-on-B pattern of workload.SharedSource); Run
// reports its cross-resource statistics in Stats.Shared.
//
// Sources are stateful: each Config needs its own instances (concurrent
// runs must not share one).
type Source struct {
	// Resources names the arbitrated banks or physical channels, in
	// acquisition order for a correlated source; each must have an
	// arbiter in the Config.
	Resources []string
	// Gen produces the phantom request lines.
	Gen Requester
}

// ContentionStats aggregates the background phantom lines' experience
// on one resource over a run, per phantom line in attachment order.
type ContentionStats struct {
	// Grants[i] is the number of cycles phantom line i held the
	// resource. These grants are not counted in Stats.GrantsByRes,
	// which remains member-task grants only.
	Grants []int
	// Waits[i] is the number of cycles phantom line i requested without
	// receiving the grant, including a wait still in progress when the
	// run ends (no censoring: a phantom starved for the whole run
	// reports the full run length).
	Waits []int
}

// SharedStats aggregates one correlated source's cross-resource
// experience over a run. Per-line grant/wait counts additionally land in
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

// source is one wired (non-elided) background source, with one window
// per spanned resource.
type source struct {
	gen   Requester
	wins  []window
	mask  arbiter.BitVec // one bit per lane: the low N()/len(Resources) bits
	stats *SharedStats   // cross-resource statistics; nil for one resource
}

// window places resource r's lanes: bits [off, off+lanes) of the
// arbiter's request/grant words carry bits [shift, shift+lanes) of the
// generator's words.
type window struct {
	ai    *arbInst
	off   uint
	shift uint // r·lanes
}

// next refreshes the source's windows from one coherent snapshot of
// last cycle's grants. Run calls it before any arbiter steps; each
// source reads and writes only its own windows.
//
//sparcs:hotpath
func (s *source) next() {
	var prev arbiter.BitVec
	for _, w := range s.wins {
		prev |= (w.ai.grant >> w.off & s.mask) << w.shift
	}
	out := s.gen.NextBits(prev)
	for _, w := range s.wins {
		w.ai.req = w.ai.req&^(s.mask<<w.off) | (out>>w.shift&s.mask)<<w.off
	}
}

// observe accumulates this cycle's cross-resource statistics from the
// freshly issued grants, one lane per bit: every granted line counts
// toward its resource's Grants, every requesting-but-ungranted line
// toward Waits; a lane holding at least one resource while waiting on
// another is in hold-and-wait; a lane holding all of them is in its
// critical section.
//
//sparcs:hotpath
func (s *source) observe() {
	var held, want arbiter.BitVec
	all := s.mask
	for r, w := range s.wins {
		g := w.ai.grant >> w.off & s.mask
		q := w.ai.req >> w.off & s.mask &^ g
		s.stats.Grants[r] += g.Count()
		s.stats.Waits[r] += q.Count()
		held |= g
		want |= q
		all &= g
	}
	s.stats.HoldWait += (held & want).Count()
	s.stats.AllHeld += all.Count()
}

// wire validates the configured sources and appends each one's windows
// to the arbiters it spans, in Config.Sources order, then sizes the
// per-phantom-line counters. Called before policy construction so
// policies are sized over the widened line counts.
func wire(sources []Source, arbs map[string]*arbInst) ([]*source, error) {
	var wired []*source
	for i, src := range sources {
		if src.Gen == nil {
			return nil, fmt.Errorf("sim: source %d on %s has no generator", i, strings.Join(src.Resources, "+"))
		}
		for r, res := range src.Resources {
			if slices.Contains(src.Resources[:r], res) {
				return nil, fmt.Errorf("sim: source %d (%s) names resource %s twice", i, src.Gen.Name(), res)
			}
			// Validate before eliding, so a typo'd resource errors even
			// when the source is silent.
			if arbs[res] == nil {
				return nil, fmt.Errorf("sim: source %d (%s) on %s, but no arbiter guards it", i, src.Gen.Name(), res)
			}
		}
		k, n := len(src.Resources), src.Gen.N()
		if k == 0 || n < 1 || n%k != 0 {
			return nil, fmt.Errorf("sim: source %d (%s) claims %d lines over %d resources (%s); need a positive multiple",
				i, src.Gen.Name(), n, k, strings.Join(src.Resources, "+"))
		}
		if s, ok := src.Gen.(StaticallySilent); ok && s.Silent() {
			continue // the no-op path: statically silent sources are elided
		}
		if n > arbiter.MaxN {
			return nil, fmt.Errorf("sim: source %d (%s) packs %d request lines into one word; at most %d fit",
				i, src.Gen.Name(), n, arbiter.MaxN)
		}
		lanes := n / k
		for _, r := range src.Resources {
			if w := arbs[r].width + lanes; w > arbiter.MaxN {
				return nil, fmt.Errorf("sim: source %d (%s) widens the arbiter on %s to %d request lines; the bitset kernel supports at most %d",
					i, src.Gen.Name(), r, w, arbiter.MaxN)
			}
		}
		src.Gen.Reset()
		s := &source{gen: src.Gen, wins: make([]window, k), mask: arbiter.Mask(lanes)}
		for r, res := range src.Resources {
			ai := arbs[res]
			s.wins[r] = window{ai: ai, off: uint(ai.width), shift: uint(r * lanes)}
			ai.width += lanes
		}
		if k > 1 {
			s.stats = &SharedStats{
				Name:      src.Gen.Name(),
				Resources: append([]string(nil), src.Resources...),
				Grants:    make([]int, k),
				Waits:     make([]int, k),
			}
		}
		wired = append(wired, s)
	}
	//sparcs:ignore determinism each instance is sized independently; iteration order cannot change the result
	for _, ai := range arbs {
		if phantoms := ai.width - ai.memberN; phantoms > 0 {
			ai.phGrants = make([]int, phantoms)
			ai.phWaits = make([]int, phantoms)
		}
	}
	return wired, nil
}
