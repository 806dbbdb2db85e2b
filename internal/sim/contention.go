package sim

import (
	"fmt"

	"sparcs/internal/arbiter"
)

// Requester is a closed-loop background traffic source for contention
// injection: each cycle NextBits observes the grants its lines received
// last cycle and returns the request word for the coming cycle. It is
// structurally identical to workload.Generator, so any generator from
// internal/workload can be attached to a Config without an import cycle
// (workload already imports sim for its grid fan-out).
//
// Implementations must be deterministic and allocation-free in
// NextBits, keeping the hot loop allocation-free.
type Requester interface {
	// Name identifies the traffic shape ("bursty", "hog", ...).
	Name() string
	// N returns the number of phantom request lines the source claims.
	N() int
	// NextBits returns the request word for the coming cycle (bit i =
	// phantom line i) after observing prevGrant, the grants issued to
	// these lines last cycle. Bits at or above N() are ignored.
	NextBits(prevGrant arbiter.BitVec) arbiter.BitVec
	// Reset returns the source to its initial state. Run calls it once
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

// ContentionSource attaches one background phantom requester to the
// arbiter guarding a named resource. The source's N() lines are
// appended after the member tasks' request lines (in Config.Contention
// order when several sources share a resource), the arbitration policy
// is constructed over the widened line count, and the source competes
// for grants exactly like a compiled task — the grants it wins are fed
// back into its closed loop and starve or delay the real tasks.
//
// Sources are stateful: each Config needs its own instances (concurrent
// runs must not share one).
type ContentionSource struct {
	// Resource names the arbitrated bank or physical channel; it must
	// have an arbiter in the Config.
	Resource string
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

// contSource is one wired (non-elided) phantom source: its line window
// [off, off+N()) in the owning arbInst's request/grant words.
type contSource struct {
	gen  Requester
	off  int
	mask arbiter.BitVec // low N() bits
}

// wireContention validates the configured sources and appends phantom
// lines to the named arbiters. Called before policy construction so
// policies are sized over the widened line counts.
func wireContention(sources []ContentionSource, arbs map[string]*arbInst) error {
	for i, src := range sources {
		if src.Gen == nil {
			return fmt.Errorf("sim: contention source %d on %s has no generator", i, src.Resource)
		}
		// Validate before eliding, so a typo'd resource errors even when
		// the source is silent.
		ai := arbs[src.Resource]
		if ai == nil {
			return fmt.Errorf("sim: contention on %s, but no arbiter guards it", src.Resource)
		}
		n := src.Gen.N()
		if n < 1 {
			return fmt.Errorf("sim: contention source %d on %s claims %d lines", i, src.Resource, n)
		}
		if s, ok := src.Gen.(StaticallySilent); ok && s.Silent() {
			continue // the no-op path: statically silent sources are elided
		}
		if ai.width+n > arbiter.MaxN {
			return fmt.Errorf("sim: contention on %s widens its arbiter to %d request lines; the bitset kernel supports at most %d",
				src.Resource, ai.width+n, arbiter.MaxN)
		}
		src.Gen.Reset()
		ai.sources = append(ai.sources, contSource{gen: src.Gen, off: ai.width, mask: arbiter.Mask(n)})
		ai.width += n
	}
	return nil
}

// sizePhantoms allocates the per-phantom-line counters once every source
// — single-resource and shared — has widened its arbiters.
func sizePhantoms(arbs map[string]*arbInst) {
	//sparcs:ignore determinism each instance is sized independently; iteration order cannot change the result
	for _, ai := range arbs {
		if phantoms := ai.width - ai.memberN; phantoms > 0 {
			ai.phGrants = make([]int, phantoms)
			ai.phWaits = make([]int, phantoms)
		}
	}
}
