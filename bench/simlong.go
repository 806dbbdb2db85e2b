package main

import (
	"errors"
	"fmt"

	"sparcs"
)

// sim-long: closed loop, System.Sweep of sweepWidth experiments at a
// time on the 24-tile FFT design. Runs are long (tens of thousands of
// simulated cycles) so the interpreter dominates and per-run stage setup
// is a few percent: a setup-only change must not move this workload.
const (
	simTiles   = 24
	sweepWidth = 8
	simCopies  = 4 // copies of the policy × contention grid per list
)

var (
	simPolicies    = []string{"rr", "fifo", "priority", "wrr:2", "hier:2", "preemptive:4"}
	simContentions = []string{"", "M1=bernoulli:0.30/4", "M1=hotspot:0.90/2", "M1+M3=corr:0.25/1"}
	// The hog pairs only with hold-bounding policies: under hier:2 it
	// starves the design into the stage watchdog and fails the output
	// check.
	simHogPolicies = []string{"preemptive:4", "wrr:2"}
)

// simExperiment is one System.Run: a policy, a contention spec, and the
// seed of both its contention streams and its input image.
type simExperiment struct {
	policy, contention string
	seed               uint64
}

// simLongList is the seed's experiment list: simCopies shuffled copies of
// the policy × contention grid plus the hog pairs, each with its own
// seed.
func simLongList(seed uint64) []simExperiment {
	r := splitmix{seed}
	var out []simExperiment
	for c := 0; c < simCopies; c++ {
		for _, p := range simPolicies {
			for _, ct := range simContentions {
				out = append(out, simExperiment{p, ct, r.next()})
			}
		}
		for _, p := range simHogPolicies {
			out = append(out, simExperiment{p, "M1=hog/2", r.next()})
		}
	}
	r.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

type simLong struct {
	sys  *sparcs.System
	exps []simExperiment
}

func newSimLong(seed uint64) (closedLoop, error) {
	return newSimLongFrom(simLongList(seed))
}

func newSimLongFrom(exps []simExperiment) (*simLong, error) {
	if len(exps)%sweepWidth != 0 {
		return nil, fmt.Errorf("sim-long: %d experiments is not a whole number of sweeps", len(exps))
	}
	sys, err := sparcs.FFTSystem(simTiles)
	if err != nil {
		return nil, err
	}
	return &simLong{sys: sys, exps: exps}, nil
}

func (w *simLong) len() int { return len(w.exps) / sweepWidth }

// run sweeps operation i's experiments, each over a freshly loaded input
// image, and checks every output against the fixed-point FFT reference.
// sums[0] totals the tiles the sweep computed.
func (w *simLong) run(i int, tr *tracer) opResult {
	exps := w.exps[i*sweepWidth : (i+1)*sweepWidth]
	mems := make([]*sparcs.Memory, len(exps))
	ins := make([][][]int64, len(exps))
	sets := make([][]sparcs.RunOption, len(exps))
	timed(tr, "bench.prepare", 0, int64(i), func() {
		for j, e := range exps {
			mems[j] = sparcs.NewMemory()
			ins[j] = sparcs.LoadFFTInput(mems[j], simTiles, int64(e.seed>>1))
			sets[j] = []sparcs.RunOption{sparcs.WithPolicy(e.policy), sparcs.WithSeed(e.seed), sparcs.WithMemory(mems[j])}
			if e.contention != "" {
				sets[j] = append(sets[j], sparcs.WithContention(e.contention))
			}
		}
	})
	var results []*sparcs.Result
	var err error
	res := opResult{attempted: len(exps), digest: newDigest()}
	res.lat = timed(tr, "sparcs.Sweep", 0, int64(i), func() { results, err = w.sys.Sweep(sets...) })
	var sweepErr *sparcs.SweepError
	if err != nil && !errors.As(err, &sweepErr) {
		res.failed = len(exps)
		return res
	}
	timed(tr, "bench.check", 0, int64(i), func() {
		for j, r := range results {
			if r == nil || len(r.Violations()) > 0 || sparcs.CheckFFTOutput(mems[j], ins[j]) != nil {
				res.failed++
				res.digest.add(-1)
				continue
			}
			res.cycles += int64(r.TotalCycles)
			res.sums[0] += simTiles
			res.digest.add(int64(r.TotalCycles))
			for _, ss := range r.Stages {
				s := ss.Stats
				res.digest.add(int64(s.Cycles), int64(s.MemReads), int64(s.MemWrites), int64(s.ChannelSends),
					sumValues(s.WaitCycles), sumValues(s.GrantsByRes), sumValues(s.TaskFinish))
			}
		}
	})
	return res
}

// simMetrics reports simulated cycles per FFT tile over the pass and the
// digest of every experiment's statistics.
func (w *simLong) simMetrics(pass []opResult) []metric {
	var cycles, tiles int64
	d := newDigest()
	for _, r := range pass {
		cycles += r.cycles
		tiles += r.sums[0]
		d.add(int64(r.digest))
	}
	return []metric{
		{name: "cycles_per_tile", value: float64(cycles) / float64(tiles), unit: "cycles", n: len(w.exps)},
		d.metric(len(w.exps)),
	}
}

// sumValues adds a map's values; the sum is independent of map order.
func sumValues(m map[string]int) int64 {
	var s int64
	for _, v := range m {
		s += int64(v)
	}
	return s
}
