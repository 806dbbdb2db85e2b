package fft

import (
	"fmt"

	"sparcs/internal/behav"
	"sparcs/internal/sim"
	"sparcs/internal/taskgraph"
)

// Case-study constants. Areas are per-task CLB estimates (a behavioral
// 4-point complex FFT datapath plus controller on an XC4013E); compute
// latencies are per-tile cycle counts of the HLS-produced datapaths,
// calibrated so the full-image hardware time lands at the paper's
// reported 4.4 s for a 512x512 image at the 6 MHz system clock.
const (
	// FTaskArea is the CLB estimate for a first-dimension (row) task.
	FTaskArea = 410
	// GTaskArea is the CLB estimate for a second-dimension (column) task.
	GTaskArea = 130
	// RowComputeCycles is the row-FFT datapath latency per tile.
	RowComputeCycles = 255
	// ColComputeCycles is the column-FFT datapath latency per tile.
	ColComputeCycles = 255
	// SegmentBytes is each logical segment's streaming window.
	SegmentBytes = 8 * 1024
	// ClockMHz is the achieved system clock of the synthesized design
	// (paper Section 5: "the design clocked at about 6MHz").
	ClockMHz = 6.0
	// TileDim is the FFT tile edge (4x4-pixel 2-D FFT).
	TileDim = 4
)

// Taskgraph builds the paper's Figure 10 taskgraph: four first-dimension
// tasks F1..F4 (row FFTs of a 4x4 tile), eight second-dimension tasks
// g1r..g4r and g1i..g4i (column FFTs producing real and imaginary output
// planes), input segments MI1..MI4, intermediate segments ML1..ML4, and
// output segments MO1..MO4.
//
// Control dependencies: every g task waits for all F tasks (the second
// dimension consumes the complete first-dimension output), and each
// imaginary-plane task waits for its column's real-plane task (the
// designer's serialization the paper alludes to when noting g-task
// accesses are "implicitly arbitrated").
func Taskgraph() *taskgraph.Graph {
	g := &taskgraph.Graph{Name: "fft4x4"}
	var fNames []string
	for i := 1; i <= 4; i++ {
		g.Segments = append(g.Segments,
			&taskgraph.Segment{Name: fmt.Sprintf("MI%d", i), SizeBytes: SegmentBytes, WidthBits: 32},
			// The ML intermediates form one host-DMA block ("ML" cohort),
			// so they must live in a single physical bank — the grouping
			// behind the paper's 6-input arbiter.
			&taskgraph.Segment{Name: fmt.Sprintf("ML%d", i), SizeBytes: SegmentBytes, WidthBits: 32, Cohort: "ML"},
			&taskgraph.Segment{Name: fmt.Sprintf("MO%d", i), SizeBytes: SegmentBytes, WidthBits: 32},
		)
		fNames = append(fNames, fmt.Sprintf("F%d", i))
	}
	for i := 1; i <= 4; i++ {
		g.Tasks = append(g.Tasks, &taskgraph.Task{
			Name:     fmt.Sprintf("F%d", i),
			AreaCLBs: FTaskArea,
			Accesses: []taskgraph.Access{
				{Segment: fmt.Sprintf("MI%d", i), Kind: taskgraph.Read},
				{Segment: fmt.Sprintf("ML%d", i), Kind: taskgraph.Write},
			},
		})
	}
	mlReads := func() []taskgraph.Access {
		var acc []taskgraph.Access
		for i := 1; i <= 4; i++ {
			acc = append(acc, taskgraph.Access{Segment: fmt.Sprintf("ML%d", i), Kind: taskgraph.Read})
		}
		return acc
	}
	for k := 1; k <= 4; k++ {
		r := &taskgraph.Task{
			Name:     fmt.Sprintf("g%dr", k),
			AreaCLBs: GTaskArea,
			Deps:     append([]string(nil), fNames...),
			Accesses: append(mlReads(), taskgraph.Access{Segment: fmt.Sprintf("MO%d", k), Kind: taskgraph.Write}),
		}
		i := &taskgraph.Task{
			Name:     fmt.Sprintf("g%di", k),
			AreaCLBs: GTaskArea,
			Deps:     append(append([]string(nil), fNames...), r.Name),
			Accesses: append(mlReads(), taskgraph.Access{Segment: fmt.Sprintf("MO%d", k), Kind: taskgraph.Write}),
		}
		g.Tasks = append(g.Tasks, r, i)
	}
	return g
}

// PaperStages is the paper's three-way temporal partitioning of the FFT
// design (temporal partition #0 shown in Figure 11). The split itself
// came from SPARCS' temporal partitioning ILP, which is outside this
// paper; we take it as a given stage constraint.
func PaperStages() [][]string {
	return [][]string{
		{"F1", "F2", "F3", "F4", "g1r", "g2r"},
		{"g1i", "g2i", "g3r", "g3i"},
		{"g4r", "g4i"},
	}
}

// Programs builds the per-task behavioral programs for the given number
// of tiles per stage run. Addresses stride per tile: MI/ML hold 4 words
// per tile per segment; MO holds 8 words per tile (real plane rows 0..3,
// imaginary plane rows 4..7).
func Programs(tiles int) map[string]behav.Program {
	progs := map[string]behav.Program{}
	for i := 1; i <= 4; i++ {
		mi := fmt.Sprintf("MI%d", i)
		ml := fmt.Sprintf("ML%d", i)
		var body []behav.Instr
		for c := 0; c < TileDim; c++ {
			body = append(body, behav.ReadStride(mi, c, 4))
		}
		body = append(body, behav.Instr{Op: behav.OpTransform, N: 4, Cycles: RowComputeCycles, Fn: FFT4Fixed})
		for c := 0; c < TileDim; c++ {
			body = append(body, behav.WriteStride(ml, c, 4))
		}
		progs[fmt.Sprintf("F%d", i)] = behav.Program{Body: body, Repeat: tiles}
	}
	for k := 1; k <= 4; k++ {
		col := k - 1
		mo := fmt.Sprintf("MO%d", k)
		colReads := func() []behav.Instr {
			var ins []behav.Instr
			for row := 1; row <= 4; row++ {
				ins = append(ins, behav.ReadStride(fmt.Sprintf("ML%d", row), col, 4))
			}
			return ins
		}
		// Real-plane task: column FFT, keep real parts, rows 0..3.
		rBody := colReads()
		rBody = append(rBody, behav.Instr{Op: behav.OpTransform, N: 4, Cycles: ColComputeCycles,
			Fn: func(in []int64) []int64 { return RealParts(FFT4Fixed(in)) }})
		for row := 0; row < TileDim; row++ {
			rBody = append(rBody, behav.WriteStride(mo, row, 8))
		}
		progs[fmt.Sprintf("g%dr", k)] = behav.Program{Body: rBody, Repeat: tiles}
		// Imaginary-plane task: same column, imaginary parts, rows 4..7.
		iBody := colReads()
		iBody = append(iBody, behav.Instr{Op: behav.OpTransform, N: 4, Cycles: ColComputeCycles,
			Fn: func(in []int64) []int64 { return ImagParts(FFT4Fixed(in)) }})
		for row := 0; row < TileDim; row++ {
			iBody = append(iBody, behav.WriteStride(mo, 4+row, 8))
		}
		progs[fmt.Sprintf("g%di", k)] = behav.Program{Body: iBody, Repeat: tiles}
	}
	return progs
}

// LoadInput fills the MI segments with deterministic pseudo-random pixel
// tiles and returns the raw tiles (row-major packed words) for checking.
func LoadInput(mem *sim.Memory, tiles int, seed int64) [][]int64 {
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() int {
		state = state*2862933555777941757 + 3037000493
		return int(state>>40) % 256
	}
	mi := segNames("MI")
	all := make([][]int64, tiles)
	for t := 0; t < tiles; t++ {
		tile := make([]int64, 16)
		for row := 0; row < 4; row++ {
			for c := 0; c < 4; c++ {
				v := FromPixel(next())
				tile[row*4+c] = v
				mem.Write(mi[row], t*4+c, v)
			}
		}
		all[t] = tile
	}
	return all
}

// segNames returns the names of the four segments prefix1..prefix4, the
// MI inputs or MO outputs, once for all the words LoadInput and
// CheckOutput touch.
func segNames(prefix string) [4]string {
	var names [4]string
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return names
}

// CheckOutput verifies that the MO segments hold exactly the 2-D
// fixed-point FFT of every input tile: real plane at words 0..3, imaginary
// plane at words 4..7 per tile, with MOk holding column k-1. Any
// arbitration or routing fault shows up here as a value mismatch.
func CheckOutput(mem *sim.Memory, tiles [][]int64) error {
	mo := segNames("MO")
	for t, tile := range tiles {
		want := Tile2DFixed(tile)
		for k := 1; k <= 4; k++ {
			col := k - 1
			for row := 0; row < 4; row++ {
				re, im := Unpack(want[row*4+col])
				gotRe := mem.Read(mo[col], t*8+row)
				gotIm := mem.Read(mo[col], t*8+4+row)
				if gotRe != int64(re) {
					return fmt.Errorf("fft: tile %d MO%d row %d real = %d, want %d", t, k, row, gotRe, re)
				}
				if gotIm != int64(im) {
					return fmt.Errorf("fft: tile %d MO%d row %d imag = %d, want %d", t, k, row, gotIm, im)
				}
			}
		}
	}
	return nil
}
