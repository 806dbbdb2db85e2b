package main

import (
	"fmt"

	"sparcs/internal/workload"
)

// arb-grid: closed loop, workload.RunGrid over every behavioral policy ×
// every traffic shape, at the FFT's contended width N=6 and at the full
// request word N=64. No simulator, setup or HTTP is involved: StepBits,
// NextBits and Drive's checks are all of the work. Cells are short so an
// operation lasts a few milliseconds; the N=64 half gets fewer cycles
// because each of its cycles costs several times more.
const (
	gridOps      = 16   // operations per list, each with its own grid seed
	gridCycles6  = 3000 // cycles per cell at N=6
	gridCycles64 = 500  // cycles per cell at N=64
)

var (
	gridPolicies = []string{"rr", "fifo", "priority", "random:1", "preemptive:4", "wrr:2", "hier:2"}
	gridShapes   = []string{"bernoulli:0.30", "hotspot:0.90", "hog", "bursty", "markov", "trace"}
	gridWidths   = []struct{ n, cycles int }{{6, gridCycles6}, {64, gridCycles64}}
)

type arbGrid struct{ seeds []uint64 }

func newArbGrid(seed uint64) (closedLoop, error) {
	r := splitmix{seed}
	w := &arbGrid{seeds: make([]uint64, gridOps)}
	for i := range w.seeds {
		w.seeds[i] = r.next()
	}
	return w, nil
}

func (w *arbGrid) len() int { return len(w.seeds) }

// run evaluates the full grid at both widths under operation i's seed and
// checks that no cell saw a safety violation.
func (w *arbGrid) run(i int, tr *tracer) opResult {
	res := opResult{digest: newDigest()}
	for _, wd := range gridWidths {
		var cells []*workload.Metrics
		var err error
		opt := workload.GridOptions{N: wd.n, Cycles: wd.cycles, Seed: w.seeds[i]}
		res.lat += timed(tr, fmt.Sprintf("workload.RunGrid.n%d", wd.n), 0, int64(i), func() {
			cells, err = workload.RunGrid(gridPolicies, gridShapes, opt)
		})
		n := len(gridPolicies) * len(gridShapes)
		res.attempted += n
		if err != nil {
			res.failed += n
			continue
		}
		for _, m := range cells {
			if m.Violation != "" {
				res.failed++
				res.digest.add(-1)
				continue
			}
			res.cycles += int64(m.Cycles)
			res.digest.add(m.GrantedCycles, m.DemandCycles)
			res.digest.add(m.WaitHist[:]...)
			for _, t := range m.Tasks {
				res.digest.add(t.Grants, t.Services, t.TotalWait, int64(t.MaxWait), int64(t.WorstEpisodes))
			}
		}
	}
	return res
}

func (w *arbGrid) simMetrics(pass []opResult) []metric {
	d := newDigest()
	for _, r := range pass {
		d.add(int64(r.digest))
	}
	return []metric{d.metric(len(pass))}
}
