// Package netlist provides a gate-level netlist representation and a
// deterministic two-phase cycle simulator.
//
// Netlists are produced by internal/fsm when synthesizing arbiter FSMs and
// consumed by internal/lutmap for technology mapping and by tests that
// co-simulate synthesized arbiters against behavioral references.
//
// The simulator models one clock domain: each Step evaluates all
// combinational logic (levelized), resolves tristate buses, samples the
// primary outputs, and then clocks every DFF. Tristate nets track
// high-impedance and multiple-driver conflicts, which the arbitration tests
// use to prove mutual exclusion on shared lines (paper Figure 4).
package netlist

import (
	"fmt"
	"sort"
)

// NetID identifies a single-bit net within one Netlist.
type NetID int

// Invalid is the zero-value NetID guard; valid nets start at 0, so Invalid
// is deliberately out of range.
const Invalid NetID = -1

// GateKind enumerates the supported combinational gate types.
type GateKind uint8

const (
	And GateKind = iota
	Or
	Not
	Xor
	Nand
	Nor
	Buf
)

func (k GateKind) String() string {
	switch k {
	case And:
		return "AND"
	case Or:
		return "OR"
	case Not:
		return "NOT"
	case Xor:
		return "XOR"
	case Nand:
		return "NAND"
	case Nor:
		return "NOR"
	case Buf:
		return "BUF"
	default:
		return fmt.Sprintf("GateKind(%d)", int(k))
	}
}

// Gate is one combinational gate. Not and Buf take exactly one input;
// all others take one or more.
type Gate struct {
	Kind GateKind
	In   []NetID
	Out  NetID
}

// DFF is a positive-edge D flip-flop with a reset value applied by
// Simulator.Reset.
type DFF struct {
	D    NetID
	Q    NetID
	Init bool
}

// TBuf is a tristate buffer driving Out with In when En is high. Several
// TBufs may share one Out net; the simulator resolves them.
type TBuf struct {
	In  NetID
	En  NetID
	Out NetID
}

// Netlist is a single-clock gate-level design.
type Netlist struct {
	names   []string
	inputs  []NetID
	outputs []NetID
	gates   []Gate
	dffs    []DFF
	tbufs   []TBuf

	const0 NetID
	const1 NetID

	outputIndex map[string]NetID
}

// New returns an empty netlist with constant-0 and constant-1 nets
// pre-allocated.
func New() *Netlist {
	n := &Netlist{outputIndex: map[string]NetID{}}
	n.const0 = n.AddNet("const0")
	n.const1 = n.AddNet("const1")
	return n
}

// AddNet creates a new net with the given name (for diagnostics only;
// names need not be unique).
func (n *Netlist) AddNet(name string) NetID {
	id := NetID(len(n.names))
	n.names = append(n.names, name)
	return id
}

// NetName returns the diagnostic name of a net.
func (n *Netlist) NetName(id NetID) string {
	if id < 0 || int(id) >= len(n.names) {
		return fmt.Sprintf("net#%d", int(id))
	}
	return n.names[id]
}

// NumNets returns the total net count.
func (n *Netlist) NumNets() int { return len(n.names) }

// Const returns the constant net for the given value.
func (n *Netlist) Const(v bool) NetID {
	if v {
		return n.const1
	}
	return n.const0
}

// AddInput declares a named primary input and returns its net.
func (n *Netlist) AddInput(name string) NetID {
	id := n.AddNet(name)
	n.inputs = append(n.inputs, id)
	return id
}

// AddOutput declares net id as the named primary output.
func (n *Netlist) AddOutput(name string, id NetID) {
	n.outputs = append(n.outputs, id)
	n.outputIndex[name] = id
}

// Inputs returns the primary input nets in declaration order.
func (n *Netlist) Inputs() []NetID { return n.inputs }

// Outputs returns the primary output nets in declaration order.
func (n *Netlist) Outputs() []NetID { return n.outputs }

// AddGate creates a gate driving a fresh net and returns that net.
func (n *Netlist) AddGate(kind GateKind, in ...NetID) NetID {
	if (kind == Not || kind == Buf) && len(in) != 1 {
		panic(fmt.Sprintf("netlist: %v takes exactly 1 input, got %d", kind, len(in)))
	}
	if len(in) == 0 {
		panic("netlist: gate with no inputs")
	}
	out := n.AddNet(fmt.Sprintf("%s#%d", kind, len(n.gates)))
	n.gates = append(n.gates, Gate{Kind: kind, In: append([]NetID(nil), in...), Out: out})
	return out
}

// AddGateOut creates a gate driving an existing net (used when an output
// net was declared ahead of its logic).
func (n *Netlist) AddGateOut(kind GateKind, out NetID, in ...NetID) {
	if (kind == Not || kind == Buf) && len(in) != 1 {
		panic(fmt.Sprintf("netlist: %v takes exactly 1 input, got %d", kind, len(in)))
	}
	n.gates = append(n.gates, Gate{Kind: kind, In: append([]NetID(nil), in...), Out: out})
}

// AddDFF creates a flip-flop with the given D input and initial value,
// returning the Q net.
func (n *Netlist) AddDFF(d NetID, init bool, name string) NetID {
	q := n.AddNet(name)
	n.dffs = append(n.dffs, DFF{D: d, Q: q, Init: init})
	return q
}

// AddTBuf attaches a tristate buffer to the shared net out.
func (n *Netlist) AddTBuf(in, en, out NetID) {
	n.tbufs = append(n.tbufs, TBuf{In: in, En: en, Out: out})
}

// Gates returns the gate list. Callers must not mutate it.
func (n *Netlist) Gates() []Gate { return n.gates }

// DFFs returns the flip-flop list. Callers must not mutate it.
func (n *Netlist) DFFs() []DFF { return n.dffs }

// TBufs returns the tristate buffer list. Callers must not mutate it.
func (n *Netlist) TBufs() []TBuf { return n.tbufs }

// Stats summarizes netlist contents.
type Stats struct {
	Nets    int
	Gates   int
	ByKind  map[GateKind]int
	DFFs    int
	TBufs   int
	Inputs  int
	Outputs int
	Depth   int // combinational gate levels (0 if purely sequential wiring)
}

// Stats computes summary statistics, including combinational depth.
func (n *Netlist) Stats() (Stats, error) {
	order, err := n.Levelize()
	if err != nil {
		return Stats{}, err
	}
	depth := make([]int, n.NumNets())
	maxd := 0
	for _, gi := range order {
		g := n.gates[gi]
		d := 0
		for _, in := range g.In {
			if depth[in] > d {
				d = depth[in]
			}
		}
		depth[g.Out] = d + 1
		if d+1 > maxd {
			maxd = d + 1
		}
	}
	byKind := map[GateKind]int{}
	for _, g := range n.gates {
		byKind[g.Kind]++
	}
	return Stats{
		Nets:    n.NumNets(),
		Gates:   len(n.gates),
		ByKind:  byKind,
		DFFs:    len(n.dffs),
		TBufs:   len(n.tbufs),
		Inputs:  len(n.inputs),
		Outputs: len(n.outputs),
		Depth:   maxd,
	}, nil
}

// Levelize returns gate indices in topological evaluation order, or an
// error if the combinational logic contains a cycle. DFF Q nets, primary
// inputs, constants, and tristate-resolved nets are sources.
func (n *Netlist) Levelize() ([]int, error) {
	producer := make(map[NetID]int, len(n.gates)) // net -> gate index
	for gi, g := range n.gates {
		if prev, dup := producer[g.Out]; dup {
			return nil, fmt.Errorf("netlist: net %q driven by gates %d and %d",
				n.NetName(g.Out), prev, gi)
		}
		producer[g.Out] = gi
	}
	// Tristate outputs are resolved before gate evaluation; a gate must not
	// also drive a tristate net.
	for _, tb := range n.tbufs {
		if gi, dup := producer[tb.Out]; dup {
			return nil, fmt.Errorf("netlist: tristate net %q also driven by gate %d",
				n.NetName(tb.Out), gi)
		}
	}

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(n.gates))
	var order []int
	var visit func(gi int) error
	visit = func(gi int) error {
		switch color[gi] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("netlist: combinational cycle through gate %d (%v)", gi, n.gates[gi].Kind)
		}
		color[gi] = gray
		for _, in := range n.gates[gi].In {
			if pg, ok := producer[in]; ok {
				if err := visit(pg); err != nil {
					return err
				}
			}
		}
		color[gi] = black
		order = append(order, gi)
		return nil
	}
	// Visit in stable order for deterministic levelization.
	gis := make([]int, len(n.gates))
	for i := range gis {
		gis[i] = i
	}
	sort.Ints(gis)
	for _, gi := range gis {
		if err := visit(gi); err != nil {
			return nil, err
		}
	}
	return order, nil
}
