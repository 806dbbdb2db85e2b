package scenario

import (
	"testing"

	"sparcs/internal/core"
	"sparcs/internal/sim"
)

// FuzzScenarioConfig drives the engine's event loop over fuzzed
// configs, bounded by a 300k-cycle watchdog so every input finishes
// quickly. Rejected configs and watchdog stops are fine; a panic is
// not. The strip invariants must hold after every handled event, and a
// finished scenario must respect the oracle bound and each job's
// lifecycle. Without cross-contention every job runs its class's
// baseline, so its Exec equals the class's total execution and its
// ArbWait the class's solo wait sum.
func FuzzScenarioConfig(f *testing.F) {
	classes := []Class{fftClass(f, 2, "fft2"), fftClass(f, 3, "fft3")}
	soloWait := make([]int, len(classes))
	for c, cl := range classes {
		mem := sim.NewMemory()
		for s := range cl.Design.Stages {
			stats, err := core.SimulateStage(cl.Design, s, mem, cl.Opts)
			if err != nil {
				f.Fatal(err)
			}
			for _, w := range stats.WaitCycles {
				soloWait[c] += w
			}
		}
	}
	f.Add("bursty/256", 6, 192, 64, 1, false, false, false)
	f.Add("bursty/256", 6, 192, 64, 1, true, true, true)
	f.Add("", 6, 96, 8, 0, false, true, false)
	f.Add("", 24, 96, -1, 3, true, false, true)
	f.Add("bernoulli:0.02", 16, 192, 64, 1, false, true, false)
	f.Add("markov/256", 3, 300, 0, 2, true, true, true)
	f.Add("bernoulli:0.0001/64", 4, 192, 64, 1, false, false, false)
	f.Add("bursty/0", 2, 192, 64, 1, false, false, false)
	f.Add("bogus", 1, 40, 64, 1, false, false, false)
	f.Fuzz(func(t *testing.T, arrivals string, jobs, cols, compaction, perCLB int, bestFit, hybrid, cross bool) {
		cfg := Config{
			Classes:              classes,
			Arrivals:             arrivals,
			Jobs:                 int(uint(jobs-1)%24) + 1,
			Seed:                 1,
			ReconfigCyclesPerCLB: perCLB % 8,
			CompactionDelay:      compaction % 1024,
			FabricCols:           int(uint(cols) % 512),
			FabricRows:           24,
			MaxCycles:            300_000,
		}
		if bestFit {
			cfg.Placement = PlaceBestFit
		}
		if hybrid {
			cfg.Prefetch = PrefetchHybrid
		}
		if cross {
			cfg.CrossContention = "bernoulli:0.30"
		}
		e, err := newEngine(&cfg)
		if err != nil {
			return
		}
		if err := e.start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		for e.completed < cfg.Jobs {
			if e.clock >= cfg.MaxCycles {
				return
			}
			ev := e.stepCycle()
			if ev == 0 {
				continue
			}
			if err := e.handle(ev); err != nil {
				t.Fatalf("cycle %d: %v", e.clock, err)
			}
			if err := e.strip.check(); err != nil {
				t.Fatalf("cycle %d: %v", e.clock, err)
			}
		}
		res := e.result()
		if res.OracleMakespan > res.Makespan {
			t.Fatalf("makespan %d below oracle bound %d", res.Makespan, res.OracleMakespan)
		}
		if len(res.Jobs) != cfg.Jobs {
			t.Fatalf("%d job reports, want %d", len(res.Jobs), cfg.Jobs)
		}
		for _, j := range res.Jobs {
			if j.Place < j.Arrive || j.QueueWait != j.Place-j.Arrive {
				t.Fatalf("job %d: arrive %d, place %d, queue wait %d", j.ID, j.Arrive, j.Place, j.QueueWait)
			}
			c := j.ID % len(classes)
			if cross {
				continue
			}
			if j.Exec != e.classes[c].totalExec || j.ArbWait != soloWait[c] {
				t.Fatalf("job %d: exec %d, arbiter wait %d; its class's solo run: %d, %d",
					j.ID, j.Exec, j.ArbWait, e.classes[c].totalExec, soloWait[c])
			}
		}
	})
}
