package core

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"

	"sparcs/internal/behav"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// Fingerprint returns a stable content hash ("sha256:<hex>") over
// everything Compile consumes that shapes the compiled design: the
// taskgraph, the board, the task programs, and the build options
// (Partition and Insert knobs, all plain values). Two calls agree
// exactly when Compile would produce structurally identical designs,
// which is what lets a compile cache (cmd/sparcsd) key on the
// fingerprint and skip Compile entirely on repeat designs.
//
// Run-time options (Policy, contention, seeds, capture) are
// deliberately outside the hash — they parameterize experiments, not
// the compiled design. One caveat: behav.Instr.Fn transform functions
// contribute only their presence, not their behavior; programs that
// differ solely in the pure function behind an identical instruction
// structure hash alike (the simulator's cycle structure is identical —
// only data values diverge).
func Fingerprint(g *taskgraph.Graph, board *rc.Board, programs map[string]behav.Program, opts Options) string {
	h := sha256.New()
	// Version tag: bump when the serialization changes so stale cache
	// keys can never alias across encodings.
	fmt.Fprintf(h, "sparcs-design/1\n")
	writeGraph(h, g)
	writeBoard(h, board)
	writePrograms(h, programs)
	writeBuildOptions(h, opts)
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

func writeGraph(w io.Writer, g *taskgraph.Graph) {
	fmt.Fprintf(w, "graph %q tasks=%d segs=%d chans=%d\n", g.Name, len(g.Tasks), len(g.Segments), len(g.Channels))
	for _, t := range g.Tasks {
		fmt.Fprintf(w, "task %q area=%d deps=%d accesses=%d\n", t.Name, t.AreaCLBs, len(t.Deps), len(t.Accesses))
		for _, d := range t.Deps {
			fmt.Fprintf(w, " dep %q\n", d)
		}
		for _, a := range t.Accesses {
			fmt.Fprintf(w, " access %q %d\n", a.Segment, a.Kind)
		}
	}
	for _, s := range g.Segments {
		fmt.Fprintf(w, "segment %q size=%d width=%d cohort=%q\n", s.Name, s.SizeBytes, s.WidthBits, s.Cohort)
	}
	for _, c := range g.Channels {
		fmt.Fprintf(w, "channel %q %q->%q width=%d\n", c.Name, c.From, c.To, c.WidthBits)
	}
}

func writeBoard(w io.Writer, b *rc.Board) {
	fmt.Fprintf(w, "board %q xbar=%d\n", b.Name, b.XbarPins)
	for _, pe := range b.PEs {
		fmt.Fprintf(w, "pe %q device=%q clbs=%d pins=%d\n", pe.Name, pe.Device.Name, pe.Device.CLBs, pe.Device.Pins)
	}
	for _, bk := range b.Banks {
		fmt.Fprintf(w, "bank %q pe=%d size=%d width=%d\n", bk.Name, bk.PE, bk.SizeBytes, bk.WidthBits)
	}
	for _, l := range b.Links {
		fmt.Fprintf(w, "link %d-%d pins=%d\n", l.A, l.B, l.Pins)
	}
}

func writePrograms(w io.Writer, programs map[string]behav.Program) {
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := programs[name]
		fmt.Fprintf(w, "program %q repeat=%d body=%d\n", name, p.Repeat, len(p.Body))
		for _, in := range p.Body {
			fn := "-"
			if in.Fn != nil {
				fn = "fn"
			}
			fmt.Fprintf(w, " %d %q addr=%d stride=%d n=%d cycles=%d val=%d %s\n",
				in.Op, in.Res, in.Addr, in.Stride, in.N, in.Cycles, in.Val, fn)
		}
	}
}

func writeBuildOptions(w io.Writer, opts Options) {
	fmt.Fprintf(w, "partition buspins=%d\n", opts.Partition.BusPins)
	for _, stage := range opts.Partition.FixedStages {
		fmt.Fprintf(w, "stage %d\n", len(stage))
		for _, task := range stage {
			fmt.Fprintf(w, " %q\n", task)
		}
	}
	if ec := opts.Partition.ExpectedContention; len(ec) > 0 {
		res := make([]string, 0, len(ec))
		for r := range ec {
			res = append(res, r)
		}
		sort.Strings(res)
		for _, r := range res {
			fmt.Fprintf(w, "expected %q %d\n", r, ec[r])
		}
	}
	// Conservative is a partition option now, but it keeps its place on
	// the insert line, so every hash recorded before the move holds.
	fmt.Fprintf(w, "insert m=%d conservative=%t holdthrough=%d\n",
		opts.Insert.M, opts.Partition.Conservative, opts.Insert.HoldThrough)
}
