package sparcs_test

import (
	"testing"

	"sparcs"
	"sparcs/internal/behav"
	"sparcs/internal/taskgraph"
	"sparcs/internal/xc4000"
)

// fftCaseStudy holds the Section 5 reproduction outputs.
type fftCaseStudy struct {
	sys           *sparcs.System
	res           *sparcs.Result
	outputErr     error // the memory image against the fixed-point 2-D FFT
	cyclesPerTile float64
	hwSeconds     float64 // 512x512 image at 6 MHz
	swSeconds     float64 // Pentium-150 model
	speedup       float64
}

// runFFTCaseStudy builds the paper's 4x4 2-D FFT on the Wildforce model
// with the three-stage temporal partitioning, runs it over a loaded
// input image with every arbiter's trace tapped, verifies the memory
// image and extrapolates full-image timings.
func runFFTCaseStudy(tb testing.TB, tiles int) *fftCaseStudy {
	tb.Helper()
	sys, err := sparcs.FFTSystem(tiles)
	if err != nil {
		tb.Fatal(err)
	}
	mem := sparcs.NewMemory()
	in := sparcs.LoadFFTInput(mem, tiles, 42)
	res, err := sys.Run(sparcs.WithCapture(), sparcs.WithMemory(mem))
	if err != nil {
		tb.Fatal(err)
	}
	cpt := float64(res.TotalCycles) / float64(tiles)
	cs := &fftCaseStudy{
		sys:           sys,
		res:           res,
		outputErr:     sparcs.CheckFFTOutput(mem, in),
		cyclesPerTile: cpt,
		hwSeconds:     sparcs.FFTHardwareSeconds(cpt, 512),
		swSeconds:     sparcs.FFTSoftwareSeconds(512),
	}
	cs.speedup = cs.swSeconds / cs.hwSeconds
	return cs
}

// table1Graph builds the Table 1 / Figure 3 channel-sharing scenario: two
// logical channels with different source tasks that will merge onto one
// physical inter-FPGA channel.
func table1Graph() *taskgraph.Graph {
	return &taskgraph.Graph{
		Name: "table1",
		Segments: []*taskgraph.Segment{
			{Name: "OUT", SizeBytes: 64, WidthBits: 32},
		},
		Channels: []*taskgraph.Channel{
			{Name: "c1", From: "Task1", To: "Task2", WidthBits: 16},
			{Name: "c4", From: "Task4", To: "Task3", WidthBits: 8},
		},
		Tasks: []*taskgraph.Task{
			{Name: "Task1", AreaCLBs: 200},
			{Name: "Task2", AreaCLBs: 200, Accesses: []taskgraph.Access{{Segment: "OUT", Kind: taskgraph.Write}}},
			{Name: "Task3", AreaCLBs: 200, Accesses: []taskgraph.Access{{Segment: "OUT", Kind: taskgraph.Write}}},
			{Name: "Task4", AreaCLBs: 200},
		},
	}
}

func table1Programs() map[string]behav.Program {
	return map[string]behav.Program{
		"Task1": {Body: []behav.Instr{behav.SendImm("c1", 10)}},
		"Task4": {Body: []behav.Instr{behav.Compute(1), behav.SendImm("c4", 102)}},
		"Task2": {Body: []behav.Instr{behav.Compute(6), behav.Recv("c1"), behav.Write("OUT", 0)}},
		"Task3": {Body: []behav.Instr{behav.Recv("c4"), behav.Write("OUT", 1)}},
	}
}

func wildforceDevice() xc4000.Device { return xc4000.XC4013E }

// twoTaskGraph is a minimal graph with two tasks sharing segment S, for
// protocol-overhead measurements.
func twoTaskGraph() *taskgraph.Graph {
	g := &taskgraph.Graph{
		Name: "two",
		Segments: []*taskgraph.Segment{
			{Name: "S", SizeBytes: 1024, WidthBits: 32},
		},
		Tasks: []*taskgraph.Task{
			{Name: "A", AreaCLBs: 10, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "B", AreaCLBs: 10, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
		},
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}
