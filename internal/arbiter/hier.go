package arbiter

import "fmt"

// Hierarchical arbitrates with a two-level tree of round-robin
// pointers, the structure high-speed parallel round-robin arbiters use
// to shorten the priority-propagation critical path: the request lines
// are split into clusters, a top-level pointer rotates over clusters
// and a per-cluster pointer rotates over members. Each grant advances
// both the winning cluster's member pointer and the top-level cluster
// pointer, so clusters take strict turns and members take strict turns
// within their cluster.
//
// Like the flat round-robin it is non-preemptive (a holder keeps the
// resource while it keeps requesting) and work conserving. For balanced
// trees (NewHierarchical: `groups` equal clusters of consecutive lines)
// the worst-case wait of a continuously requesting task is
// (N/groups-1) turns of its own cluster plus (groups-1) foreign-cluster
// episodes between consecutive turns — exactly the flat arbiter's N-1
// grant-episode bound. With groups=1 or groups=N the tree degenerates
// to the flat round-robin and produces identical grant sequences.
//
// NewHierarchicalWidened builds the ragged variant the simulator uses
// when background contention widens an arbiter: the member lines keep
// the balanced layout they would have WITHOUT contention and the
// appended phantom/shared lanes form one extra cluster, so the members'
// tree shape — and therefore their grant stream whenever the extra
// lanes stay quiet — is independent of the widening.
type Hierarchical struct {
	n      int
	name   string
	mask   BitVec
	holder int      // line holding the resource, or -1
	top    int      // next group the cluster scan starts at
	base   []int    // per-group first line
	size   []int    // per-group line count
	gmask  []BitVec // per-group request window (low size[g] bits)
	leaf   []int    // per-group member offset the intra-cluster scan starts at
}

// NewHierarchical returns a tree-of-round-robins arbiter over `groups`
// equal clusters of consecutive lines; groups must divide n.
func NewHierarchical(n, groups int) (*Hierarchical, error) {
	return NewHierarchicalWidened(n, n, groups)
}

// NewHierarchicalWidened returns the tree arbiter for an arbiter
// widened from `members` real lines to `n` total lines: the first
// `members` lines are split into `groups` equal clusters exactly as
// NewHierarchical(members, groups) would, and lines [members, n) — the
// appended background lanes — form one additional cluster at the end of
// the rotation instead of rebalancing the member clusters. groups must
// divide members. With n == members the tree is the balanced one.
//
// Because an always-idle cluster is transparent to the cluster
// rotation, the member lines' grant stream is byte-identical to the
// unwidened arbiter's whenever the appended lanes never request.
func NewHierarchicalWidened(members, n, groups int) (*Hierarchical, error) {
	if n < MinN || n > MaxN {
		return nil, RangeError(n)
	}
	if members < MinN || members > n {
		return nil, fmt.Errorf("arbiter: hier member count must be in [%d,%d], got %d", MinN, n, members)
	}
	if groups < 1 || groups > members {
		return nil, fmt.Errorf("arbiter: hier group count must be in [1,%d], got %d", members, groups)
	}
	if members%groups != 0 {
		return nil, fmt.Errorf("arbiter: hier needs a balanced member tree: %d groups do not divide %d tasks", groups, members)
	}
	size := members / groups
	p := &Hierarchical{
		n:      n,
		name:   fmt.Sprintf("hierarchical-%dx%d", groups, size),
		mask:   Mask(n),
		holder: -1,
	}
	for g := 0; g < groups; g++ {
		p.addGroup(g*size, size)
	}
	if extra := n - members; extra > 0 {
		p.name = fmt.Sprintf("hierarchical-%dx%d+%d", groups, size, extra)
		p.addGroup(members, extra)
	}
	return p, nil
}

// addGroup appends one cluster of `size` consecutive lines at `base`.
func (p *Hierarchical) addGroup(base, size int) {
	p.base = append(p.base, base)
	p.size = append(p.size, size)
	p.gmask = append(p.gmask, Mask(size))
	p.leaf = append(p.leaf, 0)
}

// Name implements Policy ("hierarchical-<groups>x<size>", with a
// "+<extra>" suffix for the widened ragged form).
func (p *Hierarchical) Name() string { return p.name }

// N implements Policy.
func (p *Hierarchical) N() int { return p.n }

// StepBits implements BitStepper: grant a still-requesting holder,
// otherwise scan clusters cyclically from the top pointer — each
// cluster's request window extracted as a size-bit word and scanned
// with the same rotate / isolate-lowest-set kernel as the flat arbiter
// — advancing both pointers past the grantee.
//
//sparcs:hotpath
func (p *Hierarchical) StepBits(req BitVec) BitVec {
	req &= p.mask
	if p.holder >= 0 && req.Bit(p.holder) {
		return 1 << uint(p.holder)
	}
	groups := len(p.size)
	for gi := 0; gi < groups; gi++ {
		g := p.top + gi
		if g >= groups {
			g -= groups
		}
		w := req >> uint(p.base[g]) & p.gmask[g]
		if w == 0 {
			continue
		}
		size := p.size[g]
		m := p.leaf[g] + w.rotr(p.leaf[g], size).FirstSet()
		if m >= size {
			m -= size
		}
		t := p.base[g] + m
		p.holder = t
		p.leaf[g] = m + 1
		if p.leaf[g] == size {
			p.leaf[g] = 0
		}
		p.top = g + 1
		if p.top == groups {
			p.top = 0
		}
		return 1 << uint(t)
	}
	p.holder = -1
	return 0
}

// Settle implements Policy: after one step a requesting holder keeps its
// grant without moving a pointer, and an idle tree stays idle.
func (p *Hierarchical) Settle(BitVec, int) bool { return true }
