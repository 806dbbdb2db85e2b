package partition

import (
	"fmt"
	"slices"
	"sort"

	"sparcs/internal/estimate"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// mapSegments packs the stage's segments into the board's physical banks,
// minimizing
//
//	10 * (total arbiter request lines) + (remote bus pin cost)
//
// by greedy placement followed by move/swap local improvement. Arbiter
// request lines are counted with dependency elision: only tasks with an
// unordered peer on the same bank need lines, so co-locating segments
// whose accessors are strictly ordered (e.g. an F task's input with a g
// task's output) is free — the packing structure behind the paper's
// Figure 11.
//
// The cost counts lines with elision under opts.Conservative too. The
// paper's arbitration-aware mapping assumes elision, and conservative
// insertion is an ablation of insertion alone: it widens the arbiters of
// the bank map elision chooses. Counting every accessor here would move
// conservative bank maps, and their simulations, with it.
func mapSegments(g *taskgraph.Graph, board *rc.Board, st *Stage, opts Options) error {
	inStage := map[string]bool{}
	for _, t := range st.Tasks {
		inStage[t] = true
	}
	// Segments accessed in this stage, with their stage-local accessors.
	// Cohort members (segments the host streams as one block) fuse into a
	// single placement unit.
	type segInfo struct {
		name      string // segment or cohort name
		members   []string
		size      int
		accessors []string
	}
	var segs []segInfo
	cohortIdx := map[string]int{}
	seen := map[string]bool{}
	for _, tname := range st.Tasks {
		for _, s := range g.TaskByName(tname).Segments() {
			if seen[s] {
				continue
			}
			seen[s] = true
			var acc []string
			for _, a := range g.Accessors(s) {
				if inStage[a] {
					acc = append(acc, a)
				}
			}
			sd := g.SegmentByName(s)
			if sd.Cohort != "" {
				if ci, ok := cohortIdx[sd.Cohort]; ok {
					segs[ci].members = append(segs[ci].members, s)
					segs[ci].size += sd.SizeBytes
					segs[ci].accessors = mergeNames(segs[ci].accessors, acc)
					continue
				}
				cohortIdx[sd.Cohort] = len(segs)
				segs = append(segs, segInfo{name: "cohort:" + sd.Cohort, members: []string{s}, size: sd.SizeBytes, accessors: acc})
				continue
			}
			segs = append(segs, segInfo{name: s, members: []string{s}, size: sd.SizeBytes, accessors: acc})
		}
	}
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].size > segs[j].size })

	nBanks := len(board.Banks)
	bankSegs := make([][]string, nBanks)
	bankUsed := make([]int, nBanks)
	assign := map[string]int{}
	accessorsOf := map[string][]string{}
	for _, s := range segs {
		accessorsOf[s.name] = s.accessors
	}

	// bankCost computes the arbitration + pin cost of one bank's grouping.
	bankCost := func(bi int, members []string) int {
		if len(members) == 0 {
			return 0
		}
		accSet := map[string]bool{}
		var accList []string
		for _, s := range members {
			for _, a := range accessorsOf[s] {
				if !accSet[a] {
					accSet[a] = true
					accList = append(accList, a)
				}
			}
		}
		arbMembers := g.UnorderedMembers(accList)
		cost := 0
		if len(arbMembers) >= 2 {
			cost += 10 * len(arbMembers)
		}
		// Remote bus cost: one bus per remote PE with accessors.
		remotePEs := map[int]bool{}
		for _, a := range accList {
			if pe := st.TaskPE[a]; pe != board.Banks[bi].PE {
				remotePEs[pe] = true
			}
		}
		cost += len(remotePEs) * opts.busPins() / 5
		return cost
	}

	// Greedy placement.
	for _, s := range segs {
		best, bestDelta := -1, 0
		for bi := range board.Banks {
			if bankUsed[bi]+s.size > board.Banks[bi].SizeBytes {
				continue
			}
			delta := bankCost(bi, append(append([]string(nil), bankSegs[bi]...), s.name)) - bankCost(bi, bankSegs[bi])
			// Affinity tie-break: prefer banks sharing accessors.
			if best < 0 || delta < bestDelta {
				best, bestDelta = bi, delta
			}
		}
		if best < 0 {
			return fmt.Errorf("segment %s (%d bytes) does not fit any bank", s.name, s.size)
		}
		bankSegs[best] = append(bankSegs[best], s.name)
		bankUsed[best] += s.size
		assign[s.name] = best
	}

	// Local improvement: single-segment moves and pairwise swaps.
	totalCost := func() int {
		c := 0
		for bi := range board.Banks {
			c += bankCost(bi, bankSegs[bi])
		}
		return c
	}
	remove := func(bi int, name string) {
		for i, s := range bankSegs[bi] {
			if s == name {
				bankSegs[bi] = append(bankSegs[bi][:i], bankSegs[bi][i+1:]...)
				return
			}
		}
	}
	unitSize := map[string]int{}
	for _, s := range segs {
		unitSize[s.name] = s.size
	}
	sizeOf := func(name string) int { return unitSize[name] }
	improved := true
	for iter := 0; improved && iter < 50; iter++ {
		improved = false
		base := totalCost()
		// Moves.
		for _, s := range segs {
			from := assign[s.name]
			for to := range board.Banks {
				if to == from || bankUsed[to]+s.size > board.Banks[to].SizeBytes {
					continue
				}
				remove(from, s.name)
				bankSegs[to] = append(bankSegs[to], s.name)
				bankUsed[from] -= s.size
				bankUsed[to] += s.size
				assign[s.name] = to
				if totalCost() < base {
					improved = true
					base = totalCost()
				} else {
					remove(to, s.name)
					bankSegs[from] = append(bankSegs[from], s.name)
					bankUsed[to] -= s.size
					bankUsed[from] += s.size
					assign[s.name] = from
				}
			}
		}
		// Swaps.
		for i := 0; i < len(segs); i++ {
			for j := i + 1; j < len(segs); j++ {
				a, b := segs[i].name, segs[j].name
				ba, bb := assign[a], assign[b]
				if ba == bb {
					continue
				}
				if bankUsed[ba]-sizeOf(a)+sizeOf(b) > board.Banks[ba].SizeBytes ||
					bankUsed[bb]-sizeOf(b)+sizeOf(a) > board.Banks[bb].SizeBytes {
					continue
				}
				swap := func() {
					remove(ba, a)
					remove(bb, b)
					bankSegs[ba] = append(bankSegs[ba], b)
					bankSegs[bb] = append(bankSegs[bb], a)
					bankUsed[ba] += sizeOf(b) - sizeOf(a)
					bankUsed[bb] += sizeOf(a) - sizeOf(b)
					assign[a], assign[b] = bb, ba
					ba, bb = bb, ba
				}
				swap()
				if totalCost() < base {
					improved = true
					base = totalCost()
				} else {
					swap()
				}
			}
		}
	}

	// Expand placement units back into real segments.
	memberOf := map[string][]string{}
	for _, s := range segs {
		memberOf[s.name] = s.members
	}
	st.SegBank = map[string]int{}
	st.Banks = make([][]string, nBanks)
	for unit, bi := range assign {
		for _, seg := range memberOf[unit] {
			st.SegBank[seg] = bi
			st.Banks[bi] = append(st.Banks[bi], seg)
		}
	}
	for bi := range st.Banks {
		sort.Strings(st.Banks[bi])
	}
	st.Arbiters = deriveArbiters(g, board, st, inStage, opts)
	return nil
}

// mergeNames unions two name lists preserving first-seen order.
func mergeNames(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, lst := range [][]string{a, b} {
		for _, n := range lst {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// deriveArbiters computes the arbiter of each bank with contending
// accessors.
func deriveArbiters(g *taskgraph.Graph, board *rc.Board, st *Stage, inStage map[string]bool, opts Options) []ArbiterSpec {
	var out []ArbiterSpec
	for bi, segs := range st.Banks {
		accSet := map[string]bool{}
		var accList []string
		for _, s := range segs {
			for _, a := range g.Accessors(s) {
				if inStage[a] && !accSet[a] {
					accSet[a] = true
					accList = append(accList, a)
				}
			}
		}
		sort.Strings(accList)
		if arb := arbiterFor(g, board.Banks[bi].Name, accList, opts); arb != nil {
			out = append(out, *arb)
		}
	}
	return out
}

// arbiterFor decides which of a resource's stage-local accessors hold
// request lines on its arbiter; every bank and physical-channel arbiter
// is decided here. Under opts.Conservative every accessor does, in name
// order. Otherwise only the accessors with an unordered peer among them
// do, in accessor order, and the rest are elided in accessor order: the
// control dependencies order them against every contender (paper
// Section 5). It returns nil below two members.
func arbiterFor(g *taskgraph.Graph, resource string, accessors []string, opts Options) *ArbiterSpec {
	if opts.Conservative {
		members := slices.Sorted(slices.Values(accessors))
		if len(members) < 2 {
			return nil
		}
		return &ArbiterSpec{Resource: resource, Members: members}
	}
	members := g.UnorderedMembers(accessors)
	if len(members) < 2 {
		return nil
	}
	arb := &ArbiterSpec{Resource: resource, Members: members}
	for _, a := range accessors {
		if !slices.Contains(members, a) {
			arb.Elided = append(arb.Elided, a)
		}
	}
	return arb
}

// checkAreaWithArbiters verifies per-PE CLB capacity including the
// arbiters hosted on each bank's PE.
func checkAreaWithArbiters(g *taskgraph.Graph, board *rc.Board, st *Stage, opts Options) error {
	load := make([]int, len(board.PEs))
	for t, pe := range st.TaskPE {
		load[pe] += g.TaskByName(t).AreaCLBs
	}
	bankPE := map[string]int{}
	for bi, b := range board.Banks {
		bankPE[b.Name] = board.Banks[bi].PE
	}
	for _, arb := range st.Arbiters {
		if pe, ok := bankPE[arb.Resource]; ok {
			// Price the arbiter at its simulated width: expected
			// background phantom lines widen the policy at run time and
			// its hardware footprint with it.
			load[pe] += estimate.ArbiterCLBs(arb.N() + opts.ExpectedContention[arb.Resource])
		}
	}
	for pe, l := range load {
		if l > board.PEs[pe].Device.CLBs {
			return fmt.Errorf("PE %s over capacity: %d > %d CLBs (incl. arbiters)",
				board.PEs[pe].Name, l, board.PEs[pe].Device.CLBs)
		}
	}
	return nil
}

// checkPins verifies per-PE pin budgets: every PE needs one bus
// (opts.BusPins wide) per distinct remote bank its tasks access, plus two
// pins (request+grant) per arbitrated task with a remote arbiter. Buses
// ride a direct link when one exists, otherwise the crossbar.
func checkPins(g *taskgraph.Graph, board *rc.Board, st *Stage, opts Options) error {
	arbMembers := map[string]map[string]bool{} // bank -> member tasks
	for _, a := range st.Arbiters {
		m := map[string]bool{}
		for _, t := range a.Members {
			m[t] = true
		}
		arbMembers[a.Resource] = m
	}
	xbarUse := make([]int, len(board.PEs))
	linkUse := map[[2]int]int{}
	st.PinUse = make([]int, len(board.PEs))

	for pe := range board.PEs {
		// Distinct remote banks accessed from this PE.
		remote := map[int][]string{} // bank index -> accessing tasks on pe
		for t, tpe := range st.TaskPE {
			if tpe != pe {
				continue
			}
			for _, s := range g.TaskByName(t).Segments() {
				bi, ok := st.SegBank[s]
				if !ok || board.Banks[bi].PE == pe {
					continue
				}
				remote[bi] = append(remote[bi], t)
			}
		}
		for bi, tasks := range remote {
			pins := opts.busPins()
			seenTask := map[string]bool{}
			for _, t := range tasks {
				if seenTask[t] {
					continue
				}
				seenTask[t] = true
				if arbMembers[board.Banks[bi].Name][t] {
					pins += 2 // request + grant across the fabric
				}
			}
			target := board.Banks[bi].PE
			if link, ok := board.LinkBetween(pe, target); ok {
				key := [2]int{min(pe, target), max(pe, target)}
				linkUse[key] += pins
				if linkUse[key] > link.Pins {
					// Spill to the crossbar instead.
					linkUse[key] -= pins
					xbarUse[pe] += pins
				}
			} else {
				xbarUse[pe] += pins
			}
			st.PinUse[pe] += pins
		}
	}
	for pe, use := range xbarUse {
		if use > board.XbarPins {
			return fmt.Errorf("PE %s crossbar pins over budget: %d > %d",
				board.PEs[pe].Name, use, board.XbarPins)
		}
	}
	return nil
}
