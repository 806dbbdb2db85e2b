package arbiter

import (
	"fmt"
	"sync"

	"sparcs/internal/fsm"
	"sparcs/internal/netlist"
)

// The generated hardware depends only on the width and, for a netlist,
// the state encoding, and it is slow to build: Machine checks all 2^N
// inputs of every state, and synthesis validates and minimizes again.
// Each is built once per key, on first use, and shared by every policy
// of that key. Neither fsm.Reference nor netlist.Simulator writes to
// what it interprets; each policy keeps its own interpreter state.
var (
	machines [MaxSynthN + 1]struct {
		once sync.Once
		m    *fsm.Machine
		err  error
	}
	netlists [MaxSynthN + 1][fsm.Gray + 1]struct {
		once sync.Once
		nl   *netlist.Netlist
		err  error
	}
)

// sharedMachine returns the validated n-task machine, built once per n.
// Callers must not modify it; Machine builds a fresh one on every call.
func sharedMachine(n int) (*fsm.Machine, error) {
	if n < MinN || n > MaxSynthN {
		return nil, SynthRangeError(n)
	}
	c := &machines[n]
	c.once.Do(func() { c.m, c.err = Machine(n) })
	return c.m, c.err
}

// sharedNetlist returns the n-task arbiter synthesized under enc, built
// once per (n, enc). Callers must not modify it.
func sharedNetlist(n int, enc fsm.Encoding) (*netlist.Netlist, error) {
	if enc > fsm.Gray {
		return nil, fmt.Errorf("arbiter: netlist policy: unknown encoding %v", enc)
	}
	m, err := sharedMachine(n)
	if err != nil {
		return nil, err
	}
	c := &netlists[n][enc]
	c.once.Do(func() { c.nl, _, c.err = fsm.Synthesize(m, enc) })
	return c.nl, c.err
}

// FSMPolicy adapts the Figure 5 symbolic machine to the Policy interface,
// so the system simulator arbitrates with the exact transition table that
// gets synthesized.
type FSMPolicy struct {
	n   int
	ref *fsm.Reference
	req []bool // per-bit view of the request word, allocated once
}

// NewFSMPolicy wraps a reference interpreter over the N-task round-robin
// machine, which is built once per N and shared.
func NewFSMPolicy(n int) (*FSMPolicy, error) {
	m, err := sharedMachine(n)
	if err != nil {
		return nil, err
	}
	return &FSMPolicy{n: n, ref: fsm.NewReference(m), req: make([]bool, n)}, nil
}

// Name implements Policy.
func (p *FSMPolicy) Name() string { return "round-robin-fsm" }

// N implements Policy.
func (p *FSMPolicy) N() int { return p.n }

// Settle implements Policy. The machine steps every cycle, as the
// hardware does, so Settle changes nothing and returns false.
func (p *FSMPolicy) Settle(BitVec, int) bool { return false }

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

// NewNetlistPolicy wraps a gate-level simulator over the N-task
// round-robin arbiter synthesized under the given encoding, which is
// synthesized once per (N, encoding) and shared.
func NewNetlistPolicy(n int, enc fsm.Encoding) (*NetlistPolicy, error) {
	nl, err := sharedNetlist(n, enc)
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

// Settle implements Policy. The gates step every cycle, as the hardware
// does, so Settle changes nothing and returns false.
func (p *NetlistPolicy) Settle(BitVec, int) bool { return false }

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
