// The online dynamic-reconfiguration surface: RunScenario feeds compiled
// Systems through internal/scenario's arrive/depart engine — strip-packed
// placement on one CLB fabric, per-area reconfiguration latency through a
// single configuration port, optional prefetch overlap — and reports
// makespan against an offline oracle bound.

package sparcs

import (
	"fmt"

	"sparcs/internal/scenario"
)

// ScenarioResult aliases the scenario engine's run report.
type ScenarioResult = scenario.Result

// ScenarioJobStats aliases one job's lifecycle record.
type ScenarioJobStats = scenario.JobStats

// Placement and prefetch mode names accepted by ScenarioConfig.
const (
	PlaceFirstFit  = scenario.PlaceFirstFit
	PlaceBestFit   = scenario.PlaceBestFit
	PrefetchNone   = scenario.PrefetchNone
	PrefetchHybrid = scenario.PrefetchHybrid
)

// ScenarioEntry is one job class: a compiled System plus the RunOptions
// each of its jobs executes its stages under. WithMemory is not
// accepted — every job starts from a blank memory image, and under
// KeepStats its JobStats holds its own copy of the final image. Nor is
// WithContention while the scenario sets CrossContention, which would
// replace the entry's own contention on every running stage.
type ScenarioEntry struct {
	// Name labels the class in reports; empty uses the graph name.
	Name string
	// System is the compiled design template.
	System *System
	// Options compose each job's run (policy, contention, seed...),
	// exactly as System.Run would.
	Options []RunOption
}

// ScenarioConfig describes one online arrive/depart scenario.
type ScenarioConfig struct {
	// Entries are the job classes; arrivals cycle round-robin over them.
	Entries []ScenarioEntry
	// Arrivals is the arrival-process spec over the workload generator
	// grammar plus an optional sampling stride: "shape[:param][/stride]"
	// ("bernoulli:0.02", "bursty/64"). Empty means all jobs arrive at
	// cycle 0.
	Arrivals string
	// Jobs is the total number of arrivals (the first is always at
	// cycle 0).
	Jobs int
	// Seed drives the arrival process and cross-contention streams.
	Seed uint64
	// Placement is PlaceFirstFit (default) or PlaceBestFit; Prefetch is
	// PrefetchNone (default) or PrefetchHybrid.
	Placement string
	Prefetch  string
	// ReconfigCyclesPerCLB prices a stage swap-in (0 means 1 cycle/CLB).
	ReconfigCyclesPerCLB int
	// CompactionDelay is the fragmentation-blocked wait before a strip
	// repack; negative disables compaction. See scenario.Config.
	CompactionDelay int
	// FabricCols/FabricRows override the fabric; both 0 derives it from
	// the first entry's board (Wildforce: 96x24).
	FabricCols, FabricRows int
	// MaxCycles is the engine watchdog (0 means 5,000,000).
	MaxCycles int
	// CrossContention, when set, injects that workload as phantom lines
	// (one per co-resident, capped at 4) on every arbiter of a running
	// stage — neighbors interfering on the fabric's buses. It replaces a
	// stage's contention rather than adding to it, so RunScenario
	// rejects it alongside an entry that uses WithContention, and an
	// entry's policy must fit its arbiters widened by the cap. Empty
	// keeps each stage bit-identical to a solo System.Run: each entry's
	// stages then simulate once per RunScenario, and every job of the
	// entry takes that result.
	CrossContention string
	// KeepStats retains per-stage sim.Stats and a per-job copy of the
	// final memory image in each JobStats; without it both are nil.
	// Without CrossContention the Stats are the entry's one run, shared
	// read-only by its jobs.
	KeepStats bool
}

// RunScenario validates each entry's run composition against its design
// and executes the online scenario to completion. A bad CrossContention
// spec, or a policy or contention that would fail a stage's setup at the
// cross-contention cap, fails it before any stage simulates.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if len(cfg.Entries) == 0 {
		return nil, fmt.Errorf("sparcs: scenario needs at least one entry")
	}
	sc := scenario.Config{
		Arrivals:             cfg.Arrivals,
		Jobs:                 cfg.Jobs,
		Seed:                 cfg.Seed,
		Placement:            cfg.Placement,
		Prefetch:             cfg.Prefetch,
		ReconfigCyclesPerCLB: cfg.ReconfigCyclesPerCLB,
		CompactionDelay:      cfg.CompactionDelay,
		FabricCols:           cfg.FabricCols,
		FabricRows:           cfg.FabricRows,
		MaxCycles:            cfg.MaxCycles,
		CrossContention:      cfg.CrossContention,
		KeepStats:            cfg.KeepStats,
	}
	for i, ent := range cfg.Entries {
		if ent.System == nil {
			return nil, fmt.Errorf("sparcs: scenario entry %d has no System", i)
		}
		c, err := ent.System.composeRun(ent.Options)
		if err != nil {
			return nil, fmt.Errorf("sparcs: scenario entry %d: %w", i, err)
		}
		if c.mem != nil {
			return nil, fmt.Errorf("sparcs: scenario entry %d: jobs own their memory images; WithMemory is not supported", i)
		}
		name := ent.Name
		if name == "" {
			name = ent.System.graph.Name
		}
		sc.Classes = append(sc.Classes, scenario.Class{
			Name:   name,
			Design: ent.System.design,
			Opts:   c.opts,
		})
	}
	return scenario.Run(sc)
}
