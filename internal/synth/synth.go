// Package synth drives the full synthesis pipeline — FSM encoding, logic
// minimization, gate construction, 4-LUT mapping, XC4000E CLB packing, and
// static timing — and models the two commercial tools the paper compared:
//
//   - Synplify 5.1.4: always re-encodes FSMs one-hot regardless of the
//     VHDL's requested encoding (the paper notes "Synplify used one-hot
//     encoding regardless of what the VHDL files specified"), with strong
//     logic optimization.
//   - FPGA Express 2.1: honors the requested encoding attribute, with a
//     faster but weaker optimization pass.
//
// The pipeline differences are behavioral stand-ins for the real tools'
// internals, chosen so the structural causes of the paper's Figure 6/7
// trends (flip-flop count vs next-state logic size, priority-chain depth)
// act on the results the same way.
package synth

import (
	"fmt"

	"sparcs/internal/fsm"
	"sparcs/internal/logic"
	"sparcs/internal/lutmap"
	"sparcs/internal/netlist"
	"sparcs/internal/xc4000"
)

// Tool models one synthesis tool's behavior.
type Tool struct {
	Name string
	// ForceOneHot re-encodes every FSM one-hot, ignoring the request.
	ForceOneHot bool
	// FullEffort selects exact two-level minimization (Quine-McCluskey
	// with don't-cares); false selects the fast merge-only pass.
	FullEffort bool
	// AreaMap selects area-oriented LUT mapping (shared logic implemented
	// once); false selects depth-oriented mapping (faster, larger).
	AreaMap bool
}

// The two tools of the paper's Figures 6 and 7.
var (
	Synplify = Tool{Name: "synplify", ForceOneHot: true, FullEffort: true, AreaMap: true}
	Express  = Tool{Name: "fpga-express", ForceOneHot: false, FullEffort: false, AreaMap: false}
)

// ParseTool resolves a command-line tool name.
func ParseTool(s string) (Tool, error) {
	switch s {
	case "synplify":
		return Synplify, nil
	case "fpga-express", "express":
		return Express, nil
	}
	return Tool{}, fmt.Errorf("synth: unknown tool %q (want synplify or fpga-express)", s)
}

// Result is one synthesis run's report, in the paper's units.
type Result struct {
	Tool       string
	Encoding   fsm.Encoding // effective encoding (after tool policy)
	Requested  fsm.Encoding
	CLBs       int
	MaxMHz     float64
	CriticalNs float64
	LUTs       int
	FFs        int
	Depth      int // LUT levels
	HMerges    int
}

// Label names the tool/encoding combination as the paper's figure legends
// do, e.g. "FPGA_express One-Hot".
func (r Result) Label() string {
	tool := map[string]string{"synplify": "Synplify", "fpga-express": "FPGA_express"}[r.Tool]
	enc := map[fsm.Encoding]string{fsm.OneHot: "One-Hot", fsm.Compact: "Compact", fsm.Gray: "Gray"}[r.Encoding]
	return tool + " " + enc
}

// Run synthesizes the machine with the tool's policies and returns the
// area/timing report plus the mapped netlist for further analysis.
func Run(m *fsm.Machine, requested fsm.Encoding, tool Tool) (Result, *netlist.Netlist, error) {
	enc := requested
	if tool.ForceOneHot {
		enc = fsm.OneHot
	}
	// Both tools run the stronger algebraic pass (single-variant cube
	// merging through shared OR products).
	opt := fsm.Options{FactorOr: true}
	if !tool.FullEffort {
		opt.Minimize = func(on, dc *logic.Cover) *logic.Cover { return logic.Simplify(on) }
	}
	nl, _, err := fsm.SynthesizeOpts(m, enc, opt)
	if err != nil {
		return Result{}, nil, fmt.Errorf("synth %s: %w", tool.Name, err)
	}
	mode := lutmap.DepthMode
	if tool.AreaMap {
		mode = lutmap.AreaMode
	}
	mapping, err := lutmap.MapMode(nl, 4, mode)
	if err != nil {
		return Result{}, nil, fmt.Errorf("synth %s: %w", tool.Name, err)
	}
	pack := xc4000.Pack(mapping)
	timing := xc4000.Timing(mapping)
	return Result{
		Tool:       tool.Name,
		Encoding:   enc,
		Requested:  requested,
		CLBs:       pack.CLBs,
		MaxMHz:     timing.MaxClockMHz,
		CriticalNs: timing.CriticalPathNs,
		LUTs:       mapping.NumLUTs(),
		FFs:        mapping.NumFFs,
		Depth:      mapping.Depth,
		HMerges:    pack.HMerges,
	}, nl, nil
}

// Variant is one curve of the paper's Figures 6 and 7.
type Variant struct {
	Tool Tool
	Enc  fsm.Encoding
}

// Figure67Variants are the three tool/encoding combinations plotted in the
// paper: FPGA Express one-hot, FPGA Express compact, Synplify one-hot.
var Figure67Variants = []Variant{
	{Tool: Express, Enc: fsm.OneHot},
	{Tool: Express, Enc: fsm.Compact},
	{Tool: Synplify, Enc: fsm.OneHot},
}

// Sweep synthesizes one machine generator over a range of sizes for each
// variant. gen(n) must produce the machine for size n.
func Sweep(gen func(n int) (*fsm.Machine, error), sizes []int, variants []Variant) ([][]Result, error) {
	out := make([][]Result, len(variants))
	for vi, v := range variants {
		for _, n := range sizes {
			m, err := gen(n)
			if err != nil {
				return nil, err
			}
			r, _, err := Run(m, v.Enc, v.Tool)
			if err != nil {
				return nil, err
			}
			out[vi] = append(out[vi], r)
		}
	}
	return out, nil
}
