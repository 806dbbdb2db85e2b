package partition

import (
	"fmt"
	"sort"

	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// PhysChannel is one physical inter-PE connection carrying one or more
// logical channels (paper Section 2.2, Figure 3). Every logical channel
// terminates in a register at its receiving end, so sharing never loses
// data; an arbiter is required when two or more of the merged channels'
// source tasks hold request lines: every source under
// Options.Conservative, otherwise those not ordered against every other
// source.
type PhysChannel struct {
	Name     string
	A, B     int // PE endpoints
	Pins     int // data width of the shared channel (max logical width)
	Logical  []string
	Arbiter  *ArbiterSpec // nil below two sources holding request lines
	ViaXbar  bool
	SrcTasks []string
}

// RouteChannels merges the stage's logical channels onto physical
// channels: all logical channels between one PE pair share a single
// physical channel sized to the widest logical channel. Channels between
// tasks on the same PE need no physical resources. opts.Conservative
// decides channel arbiters as it does bank arbiters.
func RouteChannels(g *taskgraph.Graph, board *rc.Board, st *Stage, opts Options) ([]PhysChannel, error) {
	inStage := map[string]bool{}
	for _, t := range st.Tasks {
		inStage[t] = true
	}
	group := map[[2]int][]*taskgraph.Channel{}
	for _, c := range g.Channels {
		if !inStage[c.From] || !inStage[c.To] {
			continue
		}
		pa, pb := st.TaskPE[c.From], st.TaskPE[c.To]
		if pa == pb {
			continue // on-chip connection
		}
		key := [2]int{min(pa, pb), max(pa, pb)}
		group[key] = append(group[key], c)
	}
	keys := make([][2]int, 0, len(group))
	for k := range group {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	var out []PhysChannel
	for _, key := range keys {
		chans := group[key]
		width := 0
		var logical, sources []string
		srcSeen := map[string]bool{}
		for _, c := range chans {
			if c.WidthBits > width {
				width = c.WidthBits
			}
			logical = append(logical, c.Name)
			if !srcSeen[c.From] {
				srcSeen[c.From] = true
				sources = append(sources, c.From)
			}
		}
		pc := PhysChannel{
			Name:     fmt.Sprintf("chan_%d_%d", key[0]+1, key[1]+1),
			A:        key[0],
			B:        key[1],
			Pins:     width,
			Logical:  logical,
			SrcTasks: sources,
		}
		if _, ok := board.LinkBetween(key[0], key[1]); !ok {
			pc.ViaXbar = true
		}
		// Paper Section 4.3: "an arbiter is required when different
		// sources of the shared channels belong to different tasks";
		// arbiterFor elides the sources ordered against every other.
		pc.Arbiter = arbiterFor(g, pc.Name, sources, opts)
		out = append(out, pc)
	}
	return out, nil
}
