package fsm

import (
	"fmt"

	"sparcs/internal/logic"
	"sparcs/internal/netlist"
)

// SynthInfo reports what Synthesize produced, for area/timing models and
// for debugging encodings.
type SynthInfo struct {
	Encoding   Encoding
	StateBits  int
	Codes      [][]bool       // per-state code words
	NextCovers []*logic.Cover // per state bit, over [state bits ++ inputs]
	OutCovers  []*logic.Cover // per output, over [state bits ++ inputs]
}

// Options tunes Synthesize. The zero value requests full-effort
// minimization with multi-level extraction.
type Options struct {
	// Minimize reduces each next-state/output cover; nil means
	// logic.Minimize (full Quine-McCluskey effort). Weaker synthesis tools
	// are modeled by substituting logic.Simplify here.
	Minimize func(on, dc *logic.Cover) *logic.Cover
	// FactorOr additionally merges single-variant cubes through shared OR
	// products before AND extraction (the stronger algebraic pass).
	FactorOr bool
}

// Synthesize lowers the machine to a gate-level netlist under the given
// state encoding with default options.
func Synthesize(m *Machine, enc Encoding) (*netlist.Netlist, *SynthInfo, error) {
	return SynthesizeOpts(m, enc, Options{})
}

// SynthesizeOpts lowers the machine to a gate-level netlist under the
// given state encoding.
//
// Cover variables are ordered state bits first, then inputs. One-hot
// next-state logic tests only the active state's own flip-flop (the
// standard FPGA idiom, and the reason one-hot machines are shallow);
// encoded machines test the full code word and receive the unused code
// space as don't-cares for minimization.
func SynthesizeOpts(m *Machine, enc Encoding, opt Options) (*netlist.Netlist, *SynthInfo, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	minimize := opt.Minimize
	if minimize == nil {
		minimize = logic.Minimize
	}
	codes, stateBits := StateCodes(m.NumStates(), enc)
	ni := len(m.Inputs)
	width := stateBits + ni

	// stateCube returns the cube activating state si over the combined
	// variable space.
	stateCube := func(si int) logic.Cube {
		c := logic.NewCube(width)
		if enc == OneHot {
			return c.WithLit(si, logic.Pos)
		}
		for b := 0; b < stateBits; b++ {
			if codes[si][b] {
				c = c.WithLit(b, logic.Pos)
			} else {
				c = c.WithLit(b, logic.Neg)
			}
		}
		return c
	}
	// liftGuard widens an input-space guard cube into the combined space.
	liftGuard := func(g logic.Cube) logic.Cube {
		c := logic.NewCube(width)
		for i := 0; i < ni; i++ {
			c = c.WithLit(stateBits+i, g.Lit(i))
		}
		return c
	}
	// combine ANDs a state cube and a lifted guard (disjoint supports).
	combine := func(sc, gc logic.Cube) logic.Cube {
		c := logic.NewCube(width)
		for v := 0; v < width; v++ {
			if sc.Lit(v) != logic.DontCare {
				c = c.WithLit(v, sc.Lit(v))
			} else if gc.Lit(v) != logic.DontCare {
				c = c.WithLit(v, gc.Lit(v))
			}
		}
		return c
	}

	nextCovers := make([]*logic.Cover, stateBits)
	for b := range nextCovers {
		nextCovers[b] = logic.NewCover(width)
	}
	outCovers := make([]*logic.Cover, len(m.Outputs))
	for o := range outCovers {
		outCovers[o] = logic.NewCover(width)
	}
	for si := range m.States {
		sc := stateCube(si)
		for _, tr := range m.Trans[si] {
			cube := combine(sc, liftGuard(tr.Guard))
			for b := 0; b < stateBits; b++ {
				if codes[tr.Next][b] {
					nextCovers[b].Add(cube)
				}
			}
			for o, asserted := range tr.Outputs {
				if asserted {
					outCovers[o].Add(cube)
				}
			}
		}
	}

	// Unused code words become don't-cares for encoded machines.
	var dc *logic.Cover
	if enc != OneHot && (1<<uint(stateBits)) > m.NumStates() {
		dc = logic.NewCover(width)
		used := map[uint]bool{}
		for _, code := range codes {
			v := uint(0)
			for b, bit := range code {
				if bit {
					v |= 1 << uint(b)
				}
			}
			used[v] = true
		}
		for v := uint(0); v < 1<<uint(stateBits); v++ {
			if used[v] {
				continue
			}
			c := logic.NewCube(width)
			for b := 0; b < stateBits; b++ {
				if v&(1<<uint(b)) != 0 {
					c = c.WithLit(b, logic.Pos)
				} else {
					c = c.WithLit(b, logic.Neg)
				}
			}
			dc.Add(c)
		}
	}

	for b := range nextCovers {
		nextCovers[b] = minimize(nextCovers[b], dc)
	}
	for o := range outCovers {
		outCovers[o] = minimize(outCovers[o], dc)
	}

	// Multi-level factoring: extract shared 2-literal products across all
	// covers jointly (next-state and outputs), as commercial tools do.
	allCovers := make([]*logic.Cover, 0, stateBits+len(m.Outputs))
	allCovers = append(allCovers, nextCovers...)
	allCovers = append(allCovers, outCovers...)
	ex := logic.Factor(allCovers, logic.FactorOptions{
		PairMinOcc: 2,
		MergeOr:    opt.FactorOr,
	})

	// Build the netlist: inputs, state register, factored covers with
	// structural hash-consing (identical trees share gates; in particular
	// the arbiter's next-state-Cj cover equals its Gj cover).
	n := netlist.New()
	inNets := make([]netlist.NetID, ni)
	for i, name := range m.Inputs {
		inNets[i] = n.AddInput(name)
	}
	coverIns := make([]netlist.NetID, width)
	// Next-state nets are not known until covers are built, but covers
	// read Q nets, which exist before D logic: allocate DFFs with
	// placeholder D nets, then wire.
	dNets := make([]netlist.NetID, stateBits)
	qNets := make([]netlist.NetID, stateBits)
	for b := 0; b < stateBits; b++ {
		dNets[b] = n.AddNet(fmt.Sprintf("d%d", b))
		qNets[b] = n.AddDFF(dNets[b], codes[m.Reset][b], fmt.Sprintf("s%d", b))
	}
	for b := 0; b < stateBits; b++ {
		coverIns[b] = qNets[b]
	}
	for i := 0; i < ni; i++ {
		coverIns[stateBits+i] = inNets[i]
	}

	h := netlist.NewHasher(n)
	prodNets := map[int]netlist.NetID{}
	var litNet func(l logic.Lit) netlist.NetID
	litNet = func(l logic.Lit) netlist.NetID {
		v := l.Var()
		var base netlist.NetID
		if v < width {
			base = coverIns[v]
		} else {
			base = prodNets[v]
		}
		if l.Neg() {
			return h.Not(base)
		}
		return base
	}
	for _, p := range ex.Products {
		kind := netlist.And
		if p.Or {
			kind = netlist.Or
		}
		prodNets[p.Var] = h.Gate(kind, litNet(p.A), litNet(p.B))
	}
	coverNet := func(idx int) netlist.NetID {
		cubes := ex.Covers[idx]
		if len(cubes) == 0 {
			return n.Const(false)
		}
		var terms []netlist.NetID
		for _, lits := range cubes {
			if len(lits) == 0 {
				return n.Const(true)
			}
			nets := make([]netlist.NetID, len(lits))
			for i, l := range lits {
				nets[i] = litNet(l)
			}
			terms = append(terms, h.Tree(netlist.And, nets))
		}
		return h.Tree(netlist.Or, terms)
	}
	for b := 0; b < stateBits; b++ {
		n.AddGateOut(netlist.Buf, dNets[b], coverNet(b))
	}
	for o, name := range m.Outputs {
		n.AddOutput(name, coverNet(stateBits+o))
	}

	info := &SynthInfo{
		Encoding:   enc,
		StateBits:  stateBits,
		Codes:      codes,
		NextCovers: nextCovers,
		OutCovers:  outCovers,
	}
	return n, info, nil
}
