package sim

import (
	"maps"
	"slices"
)

// densePageCap bounds the dense per-segment page: addresses in
// [0, densePageCap) live in a flat []int64 (the hot path), anything
// outside falls back to a sparse map so pathological address patterns
// cannot blow up memory.
const densePageCap = 1 << 20

// memSegment is one named memory region: a dense page for small
// non-negative addresses plus a sparse overflow map. written tracks
// which dense words hold a stored value, preserving the original
// map-backed semantics where writing 0 still creates an entry that
// Snapshot reports.
type memSegment struct {
	page    []int64
	written []bool
	sparse  map[int]int64
}

func (s *memSegment) grow(n int) {
	c := 2 * len(s.page)
	if c < 64 { //sparcs:ignore bitwidth minimum dense-page capacity in words, not a lane-width bound
		c = 64
	}
	if c < n {
		c = n
	}
	if c > densePageCap {
		c = densePageCap
	}
	page := make([]int64, c) //sparcs:ignore hotpath amortized dense-page doubling, paid O(log) times per segment
	copy(page, s.page)
	s.page = page
	written := make([]bool, c) //sparcs:ignore hotpath,bitwidth written-flag vector for the dense page, not a request vector; amortized doubling
	copy(written, s.written)
	s.written = written
}

// Memory is the persistent segment storage shared across temporal
// partitions (physical banks retain data over reconfiguration). Segment
// names are interned to dense integer IDs so the simulator's per-cycle
// accesses are plain slice indexing instead of nested map lookups.
type Memory struct {
	ids  map[string]int
	segs []*memSegment
}

// NewMemory returns empty storage.
func NewMemory() *Memory { return &Memory{ids: map[string]int{}} }

// SegID interns a segment name and returns its dense ID for use with
// ReadID/WriteID. Interning an absent segment creates it empty.
func (m *Memory) SegID(segment string) int {
	if m.ids == nil {
		m.ids = map[string]int{}
	}
	if id, ok := m.ids[segment]; ok {
		return id
	}
	id := len(m.segs)
	m.ids[segment] = id
	m.segs = append(m.segs, &memSegment{})
	return id
}

// Read returns mem[segment][addr] (0 when unwritten).
func (m *Memory) Read(segment string, addr int) int64 {
	id, ok := m.ids[segment]
	if !ok {
		return 0
	}
	return m.ReadID(id, addr)
}

// ReadID is Read by interned segment ID — the simulator's hot path.
func (m *Memory) ReadID(id, addr int) int64 {
	s := m.segs[id]
	if addr >= 0 && addr < len(s.page) {
		return s.page[addr]
	}
	return s.sparse[addr]
}

// Write stores mem[segment][addr] = v.
func (m *Memory) Write(segment string, addr int, v int64) {
	m.WriteID(m.SegID(segment), addr, v)
}

// WriteID is Write by interned segment ID — the simulator's hot path.
func (m *Memory) WriteID(id, addr int, v int64) {
	s := m.segs[id]
	if addr >= 0 && addr < densePageCap {
		if addr >= len(s.page) {
			s.grow(addr + 1)
		}
		s.page[addr] = v
		s.written[addr] = true
		return
	}
	if s.sparse == nil {
		s.sparse = map[int]int64{} //sparcs:ignore hotpath sparse overflow fallback for pathological addresses outside the dense page
	}
	s.sparse[addr] = v //sparcs:ignore hotpath sparse overflow fallback for pathological addresses outside the dense page
}

// Clone returns a deep copy of the memory: the same segments under the
// same IDs, the same written words and sparse entries. Writes to either
// memory after the call do not show in the other.
func (m *Memory) Clone() *Memory {
	c := &Memory{ids: maps.Clone(m.ids), segs: slices.Clone(m.segs)}
	for i, s := range c.segs {
		c.segs[i] = &memSegment{
			page:    slices.Clone(s.page),
			written: slices.Clone(s.written),
			sparse:  maps.Clone(s.sparse),
		}
	}
	return c
}

// Snapshot returns a copied dump of one segment for assertions: every
// written address and its value, dense or sparse.
func (m *Memory) Snapshot(segment string) map[int]int64 {
	out := map[int]int64{}
	id, ok := m.ids[segment]
	if !ok {
		return out
	}
	s := m.segs[id]
	for a, w := range s.written {
		if w {
			out[a] = s.page[a]
		}
	}
	//sparcs:ignore determinism distinct-key writes into a result map; iteration order cannot change the result
	for a, v := range s.sparse {
		out[a] = v
	}
	return out
}
