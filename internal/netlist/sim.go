package netlist

import (
	"fmt"
	"sort"
)

// Conflict records a cycle in which two or more tristate drivers were
// simultaneously enabled on one net — a violation of mutual exclusion on a
// shared resource line.
type Conflict struct {
	Cycle   int
	Net     NetID
	Drivers int
}

func (c Conflict) String() string {
	return fmt.Sprintf("cycle %d: net %d driven by %d enabled tristates", c.Cycle, int(c.Net), c.Drivers)
}

// simNode is one evaluation step: either a gate or a resolved tristate net.
type simNode struct {
	gate    int   // gate index, or -1
	tnet    NetID // tristate net, valid when gate < 0
	tbufs   []int // tbuf indices driving tnet
	inputs  []NetID
	outputs []NetID
}

// Simulator evaluates a Netlist cycle by cycle.
//
// Each Step: primary inputs are applied, DFF Q nets present their held
// state, combinational nodes evaluate in topological order, outputs are
// sampled, and finally every DFF captures its D input (positive edge).
type Simulator struct {
	n     *Netlist
	val   []bool
	hiZ   []bool
	state []bool

	order     []simNode
	cycle     int
	conflicts []Conflict
}

// NewSimulator levelizes the netlist (including tristate resolution order)
// and returns a simulator in the reset state. It fails on combinational
// cycles or nets with contradictory structural drivers.
func NewSimulator(n *Netlist) (*Simulator, error) {
	nodes, err := buildNodes(n)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		n:     n,
		val:   make([]bool, n.NumNets()),
		hiZ:   make([]bool, n.NumNets()),
		state: make([]bool, len(n.DFFs())),
		order: nodes,
	}
	s.Reset()
	return s, nil
}

func buildNodes(n *Netlist) ([]simNode, error) {
	gates := n.Gates()
	tbufs := n.TBufs()

	// Group tristate buffers by output net.
	tgroup := map[NetID][]int{}
	for ti, tb := range tbufs {
		tgroup[tb.Out] = append(tgroup[tb.Out], ti)
	}

	var nodes []simNode
	for gi, g := range gates {
		nodes = append(nodes, simNode{gate: gi, inputs: g.In, outputs: []NetID{g.Out}})
	}
	tnets := make([]NetID, 0, len(tgroup))
	for net := range tgroup {
		tnets = append(tnets, net)
	}
	sort.Slice(tnets, func(i, j int) bool { return tnets[i] < tnets[j] })
	for _, net := range tnets {
		var ins []NetID
		for _, ti := range tgroup[net] {
			ins = append(ins, tbufs[ti].In, tbufs[ti].En)
		}
		nodes = append(nodes, simNode{gate: -1, tnet: net, tbufs: tgroup[net], inputs: ins, outputs: []NetID{net}})
	}

	producer := map[NetID]int{} // net -> node index
	for ni, nd := range nodes {
		for _, out := range nd.outputs {
			if prev, dup := producer[out]; dup {
				return nil, fmt.Errorf("netlist: net %q driven by nodes %d and %d", n.NetName(out), prev, ni)
			}
			producer[out] = ni
		}
	}

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(nodes))
	var order []simNode
	var visit func(ni int) error
	visit = func(ni int) error {
		switch color[ni] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("netlist: combinational cycle through node %d", ni)
		}
		color[ni] = gray
		for _, in := range nodes[ni].inputs {
			if p, ok := producer[in]; ok {
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		color[ni] = black
		order = append(order, nodes[ni])
		return nil
	}
	for ni := range nodes {
		if err := visit(ni); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Reset restores every DFF to its initial value and clears statistics.
func (s *Simulator) Reset() {
	for i, d := range s.n.DFFs() {
		s.state[i] = d.Init
	}
	s.cycle = 0
	s.conflicts = nil
}

// Cycle returns the number of completed Steps since Reset.
func (s *Simulator) Cycle() int { return s.cycle }

// Conflicts returns tristate double-driver events observed since Reset.
func (s *Simulator) Conflicts() []Conflict { return s.conflicts }

// Step applies the primary inputs (in declaration order), evaluates one
// clock cycle, and returns the sampled primary outputs (in declaration
// order). The output slice is freshly allocated each call; use StepInto
// on hot paths.
func (s *Simulator) Step(inputs []bool) ([]bool, error) {
	result := make([]bool, len(s.n.Outputs()))
	if err := s.StepInto(inputs, result); err != nil {
		return nil, err
	}
	return result, nil
}

// StepInto is Step writing the sampled outputs into the caller's slice
// (len(out) must equal the output count), avoiding the per-cycle result
// allocation.
func (s *Simulator) StepInto(inputs, out []bool) error {
	ins := s.n.Inputs()
	if len(inputs) != len(ins) {
		//sparcs:ignore hotpath cold error path on a width mismatch
		return fmt.Errorf("netlist: got %d inputs, want %d", len(inputs), len(ins))
	}
	if len(out) != len(s.n.Outputs()) {
		//sparcs:ignore hotpath cold error path on a width mismatch
		return fmt.Errorf("netlist: got %d output slots, want %d", len(out), len(s.n.Outputs()))
	}
	// Drive sources: constants, primary inputs, DFF Q values.
	s.val[s.n.Const(false)] = false
	s.val[s.n.Const(true)] = true
	for i, id := range ins {
		s.val[id] = inputs[i]
	}
	for i, d := range s.n.DFFs() {
		s.val[d.Q] = s.state[i]
	}
	for i := range s.hiZ {
		s.hiZ[i] = false
	}

	// Combinational evaluation.
	tbufs := s.n.TBufs()
	gates := s.n.Gates()
	for i := range s.order {
		nd := &s.order[i]
		if nd.gate >= 0 {
			g := &gates[nd.gate]
			s.val[g.Out] = evalGate(g, s.val)
			continue
		}
		enabled := 0
		v := false
		for _, ti := range nd.tbufs {
			tb := &tbufs[ti]
			if s.val[tb.En] {
				enabled++
				v = s.val[tb.In]
			}
		}
		switch {
		case enabled == 0:
			s.hiZ[nd.tnet] = true
			s.val[nd.tnet] = false
		case enabled == 1:
			s.val[nd.tnet] = v
		default:
			//sparcs:ignore hotpath drive conflicts are exceptional diagnostics, not steady-state work
			s.conflicts = append(s.conflicts, Conflict{Cycle: s.cycle, Net: nd.tnet, Drivers: enabled})
			s.val[nd.tnet] = v
		}
	}

	// Sample outputs.
	for i, id := range s.n.Outputs() {
		out[i] = s.val[id]
	}

	// Positive clock edge.
	for i, d := range s.n.DFFs() {
		s.state[i] = s.val[d.D]
	}
	s.cycle++
	return nil
}

// Value returns the most recently computed value of a net and whether it
// was high-impedance this cycle.
func (s *Simulator) Value(id NetID) (v bool, hiZ bool) {
	return s.val[id], s.hiZ[id]
}

// StepNamed is Step with named input/output maps, for readability in tests
// and examples. Missing inputs default to false.
func (s *Simulator) StepNamed(inputs map[string]bool) (map[string]bool, error) {
	ins := s.n.Inputs()
	vec := make([]bool, len(ins))
	for i, id := range ins {
		vec[i] = inputs[s.n.NetName(id)]
	}
	outVec, err := s.Step(vec)
	if err != nil {
		return nil, err
	}
	outs := s.n.Outputs()
	result := make(map[string]bool, len(outs))
	for i := range outs {
		// Output names live in the output index; recover them.
		result[s.outputName(i)] = outVec[i]
	}
	return result, nil
}

func (s *Simulator) outputName(i int) string {
	// Outputs were registered by name in declaration order; reverse-map.
	id := s.n.Outputs()[i]
	for name, oid := range s.n.outputIndex {
		if oid == id {
			return name
		}
	}
	return s.n.NetName(id)
}

func evalGate(g *Gate, val []bool) bool {
	switch g.Kind {
	case And, Nand:
		v := true
		for _, in := range g.In {
			v = v && val[in]
		}
		if g.Kind == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, in := range g.In {
			v = v || val[in]
		}
		if g.Kind == Nor {
			return !v
		}
		return v
	case Xor:
		v := false
		for _, in := range g.In {
			v = v != val[in]
		}
		return v
	case Not:
		return !val[g.In[0]]
	case Buf:
		return val[g.In[0]]
	default:
		//sparcs:ignore hotpath cold panic path; gate kinds are validated at build time
		panic(fmt.Sprintf("netlist: unknown gate kind %v", g.Kind))
	}
}
