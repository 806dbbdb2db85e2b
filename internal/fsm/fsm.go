// Package fsm models finite state machines symbolically and synthesizes
// them to gate-level netlists under selectable state encodings.
//
// The round-robin arbiter of internal/arbiter is expressed as a Machine
// whose transition table is the paper's Figure 5; internal/synth drives
// Synthesize with different encodings to reproduce the paper's Figure 6/7
// synthesis-tool comparison.
//
// Machines are Mealy: outputs are a function of the current state and the
// current inputs, asserted during the cycle in which the guard holds.
package fsm

import (
	"fmt"
	"math/bits"

	"sparcs/internal/logic"
)

// Encoding selects the state-assignment style used during synthesis.
type Encoding uint8

const (
	// OneHot uses one flip-flop per state; next-state logic tests a single
	// state bit, which is why FPGA tools favor it.
	OneHot Encoding = iota
	// Compact uses ceil(log2(S)) flip-flops with binary codes.
	Compact
	// Gray uses ceil(log2(S)) flip-flops with a binary-reflected Gray
	// sequence, reducing multi-bit toggles along the cyclic state order.
	Gray
)

func (e Encoding) String() string {
	switch e {
	case OneHot:
		return "one-hot"
	case Compact:
		return "compact"
	case Gray:
		return "gray"
	default:
		return fmt.Sprintf("Encoding(%d)", int(e))
	}
}

// ParseEncoding converts a command-line name to an Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "one-hot", "onehot":
		return OneHot, nil
	case "compact", "binary":
		return Compact, nil
	case "gray":
		return Gray, nil
	}
	return 0, fmt.Errorf("fsm: unknown encoding %q (want one-hot, compact, or gray)", s)
}

// Transition is one guarded edge out of a state. Guards are cubes over the
// machine's inputs. Within a state the guards must be pairwise disjoint and
// jointly exhaustive (Validate checks both), so priority order is
// irrelevant and synthesis may OR them freely.
type Transition struct {
	Guard   logic.Cube
	Next    int
	Outputs []bool // asserted outputs during this transition; len = len(Machine.Outputs)
}

// Machine is a symbolic Mealy FSM.
type Machine struct {
	Name    string
	Inputs  []string
	Outputs []string
	States  []string
	Reset   int
	Trans   [][]Transition // indexed by state
}

// NumStates returns the state count.
func (m *Machine) NumStates() int { return len(m.States) }

// Validate checks structural sanity plus guard disjointness and
// exhaustiveness for every state. Exhaustive checking enumerates all input
// assignments and therefore requires len(Inputs) <= 16.
func (m *Machine) Validate() error {
	if len(m.States) == 0 {
		return fmt.Errorf("fsm %s: no states", m.Name)
	}
	if m.Reset < 0 || m.Reset >= len(m.States) {
		return fmt.Errorf("fsm %s: reset state %d out of range", m.Name, m.Reset)
	}
	if len(m.Trans) != len(m.States) {
		return fmt.Errorf("fsm %s: %d transition lists for %d states", m.Name, len(m.Trans), len(m.States))
	}
	ni := len(m.Inputs)
	for si, ts := range m.Trans {
		if len(ts) == 0 {
			return fmt.Errorf("fsm %s: state %s has no transitions", m.Name, m.States[si])
		}
		for ti, tr := range ts {
			if tr.Guard.Width() != ni {
				return fmt.Errorf("fsm %s: state %s transition %d guard width %d != %d inputs",
					m.Name, m.States[si], ti, tr.Guard.Width(), ni)
			}
			if tr.Next < 0 || tr.Next >= len(m.States) {
				return fmt.Errorf("fsm %s: state %s transition %d target %d out of range",
					m.Name, m.States[si], ti, tr.Next)
			}
			if len(tr.Outputs) != len(m.Outputs) {
				return fmt.Errorf("fsm %s: state %s transition %d has %d outputs, want %d",
					m.Name, m.States[si], ti, len(tr.Outputs), len(m.Outputs))
			}
		}
		// Disjointness.
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if ts[i].Guard.Intersects(ts[j].Guard) {
					return fmt.Errorf("fsm %s: state %s guards %d and %d overlap (%s vs %s)",
						m.Name, m.States[si], i, j, ts[i].Guard, ts[j].Guard)
				}
			}
		}
		// Exhaustiveness.
		if ni > 16 {
			return fmt.Errorf("fsm %s: exhaustiveness check limited to 16 inputs, have %d", m.Name, ni)
		}
		in := make([]bool, ni)
		for a := 0; a < 1<<uint(ni); a++ {
			for b := 0; b < ni; b++ {
				in[b] = a&(1<<uint(b)) != 0
			}
			match := 0
			for _, tr := range ts {
				if tr.Guard.Eval(in) {
					match++
				}
			}
			if match != 1 {
				return fmt.Errorf("fsm %s: state %s input %v matches %d guards, want 1",
					m.Name, m.States[si], in, match)
			}
		}
	}
	return nil
}

// Step evaluates the machine's reference semantics from the given state:
// the unique matching transition determines the next state and outputs.
func (m *Machine) Step(state int, in []bool) (next int, out []bool, err error) {
	if state < 0 || state >= len(m.States) {
		//sparcs:ignore hotpath cold error path on an out-of-range state
		return 0, nil, fmt.Errorf("fsm %s: state %d out of range", m.Name, state)
	}
	if len(in) != len(m.Inputs) {
		//sparcs:ignore hotpath cold error path on a width mismatch
		return 0, nil, fmt.Errorf("fsm %s: got %d inputs, want %d", m.Name, len(in), len(m.Inputs))
	}
	for _, tr := range m.Trans[state] {
		if tr.Guard.Eval(in) {
			return tr.Next, tr.Outputs, nil
		}
	}
	//sparcs:ignore hotpath cold error path; Validate guarantees a unique match
	return 0, nil, fmt.Errorf("fsm %s: no transition matches in state %s (run Validate)", m.Name, m.States[state])
}

// Reference is a stateful interpreter over a Machine, used as the golden
// model when co-simulating synthesized netlists.
type Reference struct {
	m     *Machine
	state int
}

// NewReference returns an interpreter positioned at the reset state.
func NewReference(m *Machine) *Reference {
	return &Reference{m: m, state: m.Reset}
}

// State returns the current symbolic state index.
func (r *Reference) State() int { return r.state }

// StateName returns the current symbolic state name.
func (r *Reference) StateName() string { return r.m.States[r.state] }

// Step consumes one input vector, returns the Mealy outputs, and advances
// the state.
func (r *Reference) Step(in []bool) ([]bool, error) {
	next, out, err := r.m.Step(r.state, in)
	if err != nil {
		return nil, err
	}
	r.state = next
	return out, nil
}

// StateCodes returns the per-state code words for an encoding, each of
// width StateBits.
func StateCodes(numStates int, enc Encoding) ([][]bool, int) {
	switch enc {
	case OneHot:
		codes := make([][]bool, numStates)
		for i := range codes {
			codes[i] = make([]bool, numStates)
			codes[i][i] = true
		}
		return codes, numStates
	case Gray:
		b := clog2(numStates)
		codes := make([][]bool, numStates)
		for i := range codes {
			g := uint(i) ^ (uint(i) >> 1)
			codes[i] = codeBits(g, b)
		}
		return codes, b
	default: // Compact
		b := clog2(numStates)
		codes := make([][]bool, numStates)
		for i := range codes {
			codes[i] = codeBits(uint(i), b)
		}
		return codes, b
	}
}

func clog2(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

func codeBits(v uint, width int) []bool {
	out := make([]bool, width)
	for i := 0; i < width; i++ {
		out[i] = v&(1<<uint(i)) != 0
	}
	return out
}
