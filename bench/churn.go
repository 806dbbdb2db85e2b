package main

import (
	"sparcs"
)

// scenario-churn: closed loop, sparcs.RunScenario over churnSeeds seeds ×
// two arrival shapes, 16 jobs of two classes each. Every stage runs
// through core.SimulateStage, so per-stage setup is a tenth of a
// scenario; the engine's cold path is most of the rest. Bursty arrivals
// land on the oracle bound while bernoulli:0.02 is configuration-port
// bound, so a prefetch or port change shows on one shape only.
const (
	churnSeeds = 32
	churnJobs  = 16
)

var churnArrivals = []string{"bursty/256", "bernoulli:0.02"}

type churn struct{ cfgs []sparcs.ScenarioConfig }

func newChurn(seed uint64) (closedLoop, error) {
	small, err := sparcs.FFTSystem(2)
	if err != nil {
		return nil, err
	}
	large, err := sparcs.FFTSystem(6)
	if err != nil {
		return nil, err
	}
	entries := []sparcs.ScenarioEntry{
		{Name: "fft2-rr", System: small, Options: []sparcs.RunOption{sparcs.WithPolicy("rr")}},
		{Name: "fft6-wrr", System: large, Options: []sparcs.RunOption{sparcs.WithPolicy("wrr:2")}},
	}
	r := splitmix{seed}
	w := &churn{}
	for s := 0; s < churnSeeds; s++ {
		sd := r.next()
		for _, arr := range churnArrivals {
			w.cfgs = append(w.cfgs, sparcs.ScenarioConfig{
				Entries:         entries,
				Arrivals:        arr,
				Jobs:            churnJobs,
				Seed:            sd,
				Placement:       sparcs.PlaceFirstFit,
				Prefetch:        sparcs.PrefetchHybrid,
				FabricCols:      192,
				FabricRows:      24,
				CompactionDelay: 64,
			})
		}
	}
	return w, nil
}

func (w *churn) len() int { return len(w.cfgs) }

// run executes scenario i and checks it finished without a stage
// watchdog and no faster than its offline oracle. sums holds makespan,
// oracle makespan, executing and stalled resident cycles.
func (w *churn) run(i int, tr *tracer) opResult {
	var sr *sparcs.ScenarioResult
	var err error
	res := opResult{attempted: 1, digest: newDigest()}
	res.lat = timed(tr, "sparcs.RunScenario", 0, int64(i), func() { sr, err = sparcs.RunScenario(w.cfgs[i]) })
	if err != nil || sr.Timeouts != 0 || sr.OracleMakespan > sr.Makespan {
		res.failed = 1
		return res
	}
	res.cycles = int64(sr.Makespan)
	res.sums = [4]int64{int64(sr.Makespan), int64(sr.OracleMakespan), sr.ExecCycles, sr.StallCycles}
	res.digest.add(int64(sr.Makespan), int64(sr.OracleMakespan), sr.ExecCycles, sr.StallCycles, sr.LoadCycles,
		int64(sr.QueueWaitP50), int64(sr.QueueWaitP99), int64(sr.PlaceFails), int64(sr.MaxQueue),
		int64(sr.Compactions), int64(sr.MovedResidents), sr.ArbWaitCycles)
	for _, j := range sr.Jobs {
		res.digest.add(int64(j.Arrive), int64(j.Place), int64(j.Finish), int64(j.Exec), int64(j.Stall), int64(j.ArbWait), int64(j.X), int64(j.Y))
	}
	return res
}

// simMetrics reports the pass's stall fraction (stalled over resident
// cycles) and its summed makespan over the summed oracle bound.
func (w *churn) simMetrics(pass []opResult) []metric {
	var s [4]int64
	d := newDigest()
	for _, r := range pass {
		for k := range s {
			s[k] += r.sums[k]
		}
		d.add(int64(r.digest))
	}
	n := len(pass)
	return []metric{
		{name: "stall_frac", value: float64(s[3]) / float64(s[2]+s[3]), unit: "1", n: n},
		{name: "makespan_over_oracle", value: float64(s[0]) / float64(s[1]), unit: "1", n: n},
		d.metric(n),
	}
}
