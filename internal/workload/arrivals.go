package workload

import (
	"fmt"
	"strconv"
	"strings"

	"sparcs/internal/arbiter"
)

// Arrivals adapts a one-line closed-loop generator into an arrival
// process for online scenarios: each Tick polls the generator (every
// stride cycles) and reports a rising edge of its request line — the
// instant a new job spawns. The spec grammar is the generator grammar
// plus an optional sampling stride: "shape[:param][/stride]", e.g.
// "bernoulli:0.02", "bursty/64", "markov:0.4/128". Stride thins the
// process without changing the shape's internal dynamics: a bursty
// source sampled every 64 cycles still clusters its arrivals.
//
// Arrivals are open-loop with respect to the consumer: the generator's
// grant feedback is wired to its own previous request, so the request
// line toggles at the shape's natural job cadence regardless of how the
// scenario disposes of each arrival.
type Arrivals struct {
	gen    Generator
	name   string
	stride int
	phase  int
	prev   arbiter.BitVec
}

// NewArrivals parses the "shape[:param][/stride]" spec and builds the
// underlying one-line generator with the given seed.
func NewArrivals(spec string, seed uint64) (*Arrivals, error) {
	shape, stride := spec, 1
	if i := strings.LastIndexByte(spec, '/'); i >= 0 {
		v, err := strconv.Atoi(spec[i+1:])
		if err != nil || v < 1 {
			return nil, fmt.Errorf("workload: arrival stride %q must be a positive integer", spec[i+1:])
		}
		shape, stride = spec[:i], v
	}
	g, err := NewGenerator(shape, 1, seed)
	if err != nil {
		return nil, err
	}
	name := g.Name()
	if stride > 1 {
		name = fmt.Sprintf("%s/%d", name, stride)
	}
	return &Arrivals{gen: g, name: name, stride: stride}, nil
}

// Name identifies the process with its parameters ("bursty/64").
func (a *Arrivals) Name() string { return a.name }

// Tick advances one scenario cycle and reports whether a job arrives on
// this cycle. Allocation-free.
//
//sparcs:hotpath
func (a *Arrivals) Tick() bool {
	a.phase++
	if a.phase < a.stride {
		return false
	}
	a.phase = 0
	req := a.gen.NextBits(a.prev) & 1
	rising := req == 1 && a.prev == 0
	a.prev = req
	return rising
}

// Reset returns the process to its initial state, including the random
// stream.
func (a *Arrivals) Reset() {
	a.gen.Reset()
	a.phase = 0
	a.prev = 0
}
