package arbiter

import (
	"fmt"

	"sparcs/internal/fsm"
	"sparcs/internal/netlist"
)

// FSMPolicy adapts the Figure 5 symbolic machine to the Policy interface,
// so the system simulator arbitrates with the exact transition table that
// gets synthesized.
type FSMPolicy struct {
	n   int
	ref *fsm.Reference
	req []bool // per-bit view of the request word, allocated once
}

// NewFSMPolicy builds the N-task round-robin machine and wraps its
// reference interpreter.
func NewFSMPolicy(n int) (*FSMPolicy, error) {
	m, err := Machine(n)
	if err != nil {
		return nil, err
	}
	return &FSMPolicy{n: n, ref: fsm.NewReference(m), req: make([]bool, n)}, nil
}

// Name implements Policy.
func (p *FSMPolicy) Name() string { return "round-robin-fsm" }

// N implements Policy.
func (p *FSMPolicy) N() int { return p.n }

// Reset implements Policy.
func (p *FSMPolicy) Reset() { p.ref.Reset() }

// StepBits implements BitStepper. The machine is per-bit by nature: the
// request word is unpacked into its input lines, and the transition
// table's precomputed output row is packed into the grant word.
//
//sparcs:hotpath
func (p *FSMPolicy) StepBits(req BitVec) BitVec {
	req.WriteBools(p.req)
	out, err := p.ref.Step(p.req)
	if err != nil {
		//sparcs:ignore hotpath cold panic path; the reference machine is validated at construction
		panic(fmt.Sprintf("arbiter: FSM policy: %v", err))
	}
	return PackBools(out)
}

// NetlistPolicy drives a synthesized gate-level arbiter netlist as the
// Policy implementation — the strongest fidelity level: the system
// simulation is arbitrated by the very gates the synthesis pipeline
// produced.
type NetlistPolicy struct {
	n          int
	name       string
	sim        *netlist.Simulator
	req, grant []bool // per-bit views of the request and grant words, allocated once
}

// NewNetlistPolicy synthesizes the N-task round-robin arbiter under the
// given encoding and wraps its gate-level simulator.
func NewNetlistPolicy(n int, enc fsm.Encoding) (*NetlistPolicy, error) {
	m, err := Machine(n)
	if err != nil {
		return nil, err
	}
	nl, _, err := fsm.Synthesize(m, enc)
	if err != nil {
		return nil, err
	}
	s, err := netlist.NewSimulator(nl)
	if err != nil {
		return nil, err
	}
	return &NetlistPolicy{
		n: n, name: fmt.Sprintf("round-robin-gates-%s", enc), sim: s,
		req: make([]bool, n), grant: make([]bool, n),
	}, nil
}

// Name implements Policy.
func (p *NetlistPolicy) Name() string { return p.name }

// N implements Policy.
func (p *NetlistPolicy) N() int { return p.n }

// Reset implements Policy.
func (p *NetlistPolicy) Reset() { p.sim.Reset() }

// StepBits implements BitStepper. The gates are per-bit by nature: the
// request word is unpacked into the netlist's input pins, clocked
// through the gate-level simulator's allocation-free StepInto, and the
// sampled grant pins are packed into the grant word.
//
//sparcs:hotpath
func (p *NetlistPolicy) StepBits(req BitVec) BitVec {
	req.WriteBools(p.req)
	if err := p.sim.StepInto(p.req, p.grant); err != nil {
		//sparcs:ignore hotpath cold panic path; widths are validated at construction
		panic(fmt.Sprintf("arbiter: netlist policy: %v", err))
	}
	return PackBools(p.grant)
}
