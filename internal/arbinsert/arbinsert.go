// Package arbinsert implements the paper's automatic arbiter-insertion
// pass (Sections 4.3 and 5): given a partitioned stage, it wires the
// arbiters the partitioner decided and rewrites each member task's
// program with the Request/Grant access protocol of Figure 8.
//
// The partitioner chooses between the paper's two modes
// (partition.Options.Conservative), so the arbiters a stage is priced for
// are the ones inserted here:
//
//   - Conservative: every resource with two or more accessor tasks gets an
//     arbiter wired to all of them ("the arbiter insertion assumed that
//     all 6 tasks were executing in parallel").
//   - Dependency-aware (default): tasks ordered by control dependencies
//     against every other accessor are elided — they access the resource
//     bare, only driving the shared lines to defaults when idle — which is
//     the improvement Section 5 proposes.
package arbinsert

import (
	"fmt"

	"sparcs/internal/behav"
	"sparcs/internal/partition"
	"sparcs/internal/rc"
)

// Options tunes insertion.
type Options struct {
	// M is the maximum number of accesses performed per grant before the
	// request must be released (Figure 8 uses M=2). Values < 1 default
	// to 2.
	M int
	// HoldThrough implements the alternative task-modification scheme the
	// paper's conclusion suggests ("different task modification schemes
	// ... to decrease the number of clock cycles due to arbiter
	// insertion"): up to HoldThrough consecutive non-access instructions
	// may sit inside a grant window when another access to the same
	// resource follows, avoiding a release/re-request round trip. 0 (the
	// default) reproduces Figure 8 exactly.
	HoldThrough int
}

func (o Options) m() int {
	if o.M < 1 {
		return 2
	}
	return o.M
}

// Result is a stage's complete arbitration configuration: the rewritten
// programs plus everything the simulator needs to wire arbiters.
type Result struct {
	// Programs maps task name to its rewritten program.
	Programs map[string]behav.Program
	// Arbiters lists the arbiter instances (banks and channels).
	Arbiters []partition.ArbiterSpec
	// ResourceOfSegment maps segment name to its arbitrated resource
	// (bank) name.
	ResourceOfSegment map[string]string
	// ResourceOfChannel maps logical channel name to the physical channel
	// resource name ("" when the channel stays on-chip).
	ResourceOfChannel map[string]string
	// ExtraCyclesPerTask estimates the protocol overhead inserted into
	// each task per program iteration (instructions added).
	ExtraCyclesPerTask map[string]int
}

// Insert wires the stage's arbiters (st.Arbiters, then each route's
// Arbiter) and rewrites the given raw task programs.
func Insert(board *rc.Board, st *partition.Stage,
	routes []partition.PhysChannel, programs map[string]behav.Program, opts Options) (*Result, error) {

	res := &Result{
		Programs:           map[string]behav.Program{},
		ResourceOfSegment:  map[string]string{},
		ResourceOfChannel:  map[string]string{},
		ExtraCyclesPerTask: map[string]int{},
	}
	for seg, bi := range st.SegBank {
		res.ResourceOfSegment[seg] = board.Banks[bi].Name
	}
	for _, pc := range routes {
		for _, lc := range pc.Logical {
			res.ResourceOfChannel[lc] = pc.Name
		}
	}

	// The partitioner decided every arbiter: the stage's bank arbiters,
	// then each routed channel's.
	specs := append([]partition.ArbiterSpec(nil), st.Arbiters...)
	for _, pc := range routes {
		if pc.Arbiter != nil {
			specs = append(specs, *pc.Arbiter)
		}
	}
	res.Arbiters = specs

	// memberOf[resource][task] = task holds request/grant lines there.
	memberOf := map[string]map[string]bool{}
	for _, spec := range specs {
		if spec.N() < 2 {
			return nil, fmt.Errorf("arbinsert: arbiter on %s has %d members", spec.Resource, spec.N())
		}
		m := map[string]bool{}
		for _, t := range spec.Members {
			m[t] = true
		}
		memberOf[spec.Resource] = m
	}

	for _, tname := range st.Tasks {
		prog, ok := programs[tname]
		if !ok {
			return nil, fmt.Errorf("arbinsert: no program for task %s", tname)
		}
		rewritten, added := rewrite(tname, prog, res, memberOf, opts.m(), opts.HoldThrough)
		res.Programs[tname] = rewritten
		res.ExtraCyclesPerTask[tname] = added
	}
	return res, nil
}

// rewrite applies the Figure 8 task-modification process: every maximal
// run of accesses to one arbitrated resource is chunked into groups of at
// most M accesses, each wrapped in Req / WaitGrant ... Release. With
// holdThrough > 0, short non-access stretches may ride inside a grant
// window when another same-resource access follows.
func rewrite(task string, prog behav.Program, res *Result, memberOf map[string]map[string]bool, m, holdThrough int) (behav.Program, int) {
	resourceOf := func(in behav.Instr) string {
		switch in.Op {
		case behav.OpRead, behav.OpWrite:
			r := res.ResourceOfSegment[in.Res]
			if memberOf[r][task] {
				return r
			}
		case behav.OpSend:
			r := res.ResourceOfChannel[in.Res]
			if r != "" && memberOf[r][task] {
				return r
			}
		}
		return ""
	}

	var out []behav.Instr
	added := 0
	body := prog.Body
	for i := 0; i < len(body); {
		r := resourceOf(body[i])
		if r == "" {
			out = append(out, body[i])
			i++
			continue
		}
		// Collect one grant window: up to m accesses to r, optionally
		// holding through short neutral stretches.
		var region []behav.Instr
		accesses := 0
		k := i
		for k < len(body) {
			rr := resourceOf(body[k])
			if rr == r {
				if accesses == m {
					break
				}
				region = append(region, body[k])
				accesses++
				k++
				continue
			}
			if rr == "" && holdThrough > 0 && accesses < m {
				gapEnd := k
				for gapEnd < len(body) && gapEnd-k < holdThrough && resourceOf(body[gapEnd]) == "" {
					gapEnd++
				}
				if gapEnd < len(body) && resourceOf(body[gapEnd]) == r {
					region = append(region, body[k:gapEnd]...)
					k = gapEnd
					continue
				}
			}
			break
		}
		out = append(out, behav.Req(r), behav.WaitGrant(r))
		out = append(out, region...)
		out = append(out, behav.Release(r))
		added += 2 // Req and Release consume a cycle; WaitGrant is free when immediate
		i = k
	}
	return behav.Program{Body: out, Repeat: prog.Repeat}, added
}
