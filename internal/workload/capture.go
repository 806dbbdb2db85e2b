// Capture → replay: the bridge that closes the trace loop between the
// full-system simulator and the standalone workload engine. Request
// streams measured by sim.Run (recorded in Stats.ArbiterTraces) convert
// into replayable trace generators, so a policy grid can pit the FFT's
// actual arbitration traffic against the synthetic shapes.

package workload

import (
	"fmt"

	"sparcs/internal/arbiter"
)

// Column is one workload column of an evaluation grid: a named
// generator factory. Generators are stateful, so a Column carries the
// recipe, not the instance. SpecColumn wraps the textual grammar;
// TraceColumn and FromArbiterTrace wrap recorded request patterns that
// no spec string can express.
type Column struct {
	// Name labels the column in results and tables.
	Name string
	// New constructs the column's generator for an n-line arbiter.
	// Open-loop replay columns ignore seed. The grid calls it once per
	// group of cells when it returns a generated shape (the bernoulli
	// family, bursty or markov), whose arrival words the group's cells
	// then share (one group per column on one worker), and once per
	// cell otherwise. Either way every cell sees the stream a generator
	// of its own from New(n, seed) would give, provided New returns the
	// same stream for the same arguments.
	New func(n int, seed uint64) (Generator, error)
}

// SpecColumn returns the column for a textual workload spec
// ("bernoulli:0.30", "hog", ...), deferring construction to the grid.
func SpecColumn(spec string) Column {
	return Column{
		Name: spec,
		New:  func(n int, seed uint64) (Generator, error) { return NewGenerator(spec, n, seed) },
	}
}

// TraceColumn returns a column replaying a fixed pattern of n-line
// request words through NewTrace. n is the only arbiter size the column
// accepts.
func TraceColumn(name string, n int, steps []arbiter.BitVec) Column {
	return Column{
		Name: name,
		New: func(width int, seed uint64) (Generator, error) {
			if width != n {
				return nil, fmt.Errorf("workload: trace column %q is %d lines wide, grid wants %d", name, n, width)
			}
			return NewTrace(name, n, steps)
		},
	}
}

// FromArbiterTrace converts a request stream captured by the
// full-system simulator (one resource's sim.Stats.ArbiterTraces entry)
// into a replayable grid column of tr.N lines: the per-cycle request
// words are copied out of the trace and replayed cyclically through
// NewTrace, open-loop, exactly as measured. The grant half of the trace
// is deliberately dropped — grants were the recording policy's
// decisions, and the point of replay is to let other policies re-decide
// them.
func FromArbiterTrace(name string, tr *arbiter.Trace) (Column, error) {
	if tr == nil || len(tr.Steps) == 0 {
		return Column{}, fmt.Errorf("workload: captured trace %q has no steps", name)
	}
	reqs := make([]arbiter.BitVec, len(tr.Steps))
	for c, s := range tr.Steps {
		reqs[c] = s.Req
	}
	return TraceColumn(name, tr.N, reqs), nil
}
