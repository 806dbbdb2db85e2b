// Package scenario is the online dynamic-reconfiguration engine the
// static SPARCS flow cannot express: compiled designs arrive over
// simulated time (workload-generator arrival processes), are placed on
// one shared CLB fabric by a strip-packing allocator with delayed
// compaction (arXiv:1001.4493), pay a per-area reconfiguration latency
// through a single configuration port, and execute their temporal
// partitions. Each class's stages run once through the sim hot loop
// before the clock starts. Without cross-contention every job of the
// class computes exactly that run, so a job takes its class's result
// (the design-time/run-time split of arXiv:0710.4796); with it, each
// job's stages simulate on the job's own memory. A hybrid prefetch
// scheduler (static stage order + runtime reorder by earliest expected
// need, after arXiv:0710.4796) overlaps the port with resident
// execution; a no-prefetch mode and an offline full-knowledge oracle
// bound bracket it.
package scenario

import (
	"fmt"
	"math"

	"sparcs/internal/core"
	"sparcs/internal/sim"
)

// Class is one admissible design template. Arrivals cycle round-robin
// over the configured classes, so a two-class scenario interleaves them
// deterministically.
type Class struct {
	// Name labels the class in reports.
	Name string
	// Design is the compiled design every job of this class instantiates.
	Design *core.Design
	// Opts are the run options each stage executes under — the Partition
	// options' expected contention sets the arbiter widths that price
	// the class's fabric footprint.
	Opts core.Options
}

// maxCrossLines caps the cross-contention phantom lines per arbiter.
const maxCrossLines = 4

// Placement modes for the strip allocator.
const (
	PlaceFirstFit = "firstfit"
	PlaceBestFit  = "bestfit"
)

// Prefetch modes for the configuration port scheduler.
const (
	PrefetchNone   = "none"   // load a stage only once its job is waiting on it
	PrefetchHybrid = "hybrid" // additionally prefetch next stages behind execution
)

// Config describes one online scenario.
type Config struct {
	// Classes are the job templates; at least one.
	Classes []Class
	// Arrivals is the arrival-process spec, "shape[:param][/stride]"
	// over the workload generator grammar ("bernoulli:0.02",
	// "bursty/64", ...). Empty means every job arrives at cycle 0.
	Arrivals string
	// Jobs is the total number of arrivals; at least one. The first job
	// always arrives at cycle 0 (normalizing makespans across arrival
	// seeds); the rest follow the arrival process.
	Jobs int
	// Seed drives the arrival process and any cross-contention streams
	// (0 means 1).
	Seed uint64
	// Placement is PlaceFirstFit (default) or PlaceBestFit.
	Placement string
	// Prefetch is PrefetchNone (default) or PrefetchHybrid.
	Prefetch string
	// ReconfigCyclesPerCLB is the configuration-port cost of one CLB;
	// 0 means 1. Each stage swap-in charges stageArea × this.
	ReconfigCyclesPerCLB int
	// CompactionDelay is the number of cycles a fragmentation-blocked
	// placement waits before the strip is compacted (arXiv:1001.4493's
	// delayed task-movement); negative disables compaction entirely.
	// Moved residents stall for their area × ReconfigCyclesPerCLB.
	CompactionDelay int
	// FabricCols/FabricRows are the CLB fabric dimensions; both 0 means
	// the first class's board FabricDims.
	FabricCols, FabricRows int
	// MaxCycles is the engine watchdog; 0 means 5,000,000.
	MaxCycles int
	// CrossContention, when non-empty, is a workload spec injected as
	// phantom request lines on every arbiter of a running stage, one
	// line per co-resident (capped at 4) — the fabric-bus interference
	// neighbors impose on each other. The cross lines replace a stage's
	// contention rather than adding to it, so a class whose Opts carry
	// their own Contention is rejected while this is set, and each
	// class's policy must fit its arbiters widened by the cap. Empty
	// keeps stage executions bit-identical to a solo System.Run, so
	// every job takes its class's one baseline run instead of
	// simulating.
	CrossContention string
	// KeepStats retains each job's per-stage sim.Stats and final memory
	// image in its JobStats, at the cost of a per-job memory copy.
	KeepStats bool
}

func (c *Config) placement() (bestFit bool, err error) {
	switch c.Placement {
	case "", PlaceFirstFit:
		return false, nil
	case PlaceBestFit:
		return true, nil
	}
	return false, fmt.Errorf("scenario: unknown placement %q (want %s or %s)", c.Placement, PlaceFirstFit, PlaceBestFit)
}

func (c *Config) prefetch() (hybrid bool, err error) {
	switch c.Prefetch {
	case "", PrefetchNone:
		return false, nil
	case PrefetchHybrid:
		return true, nil
	}
	return false, fmt.Errorf("scenario: unknown prefetch %q (want %s or %s)", c.Prefetch, PrefetchNone, PrefetchHybrid)
}

func (c *Config) perCLB() int {
	if c.ReconfigCyclesPerCLB <= 0 {
		return 1
	}
	return c.ReconfigCyclesPerCLB
}

func (c *Config) maxCycles() int {
	if c.MaxCycles <= 0 {
		return 5_000_000
	}
	return c.MaxCycles
}

func (c *Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// rectFor sizes a footprint of area CLBs as a near-square rectangle
// clamped to the fabric height: h = min(rows, ceil(sqrt(area))),
// w = ceil(area/h).
func rectFor(area, rows int) (w, h int) {
	if area < 1 {
		area = 1
	}
	h = int(math.Ceil(math.Sqrt(float64(area))))
	if h > rows {
		h = rows
	}
	w = (area + h - 1) / h
	return w, h
}

// JobStats is one job's lifecycle record.
type JobStats struct {
	ID    int
	Class string
	// Arrive/Place/Finish are engine cycles; QueueWait = Place−Arrive.
	Arrive, Place, Finish int
	QueueWait             int
	// Exec counts cycles spent executing stages; Stall counts resident
	// cycles lost to reconfiguration waits and compaction moves.
	Exec, Stall int
	// ArbWait sums the job's per-task arbiter wait cycles across stages
	// (the paper's contention metric, here under churn).
	ArbWait int
	// Timeouts counts stages that hit the per-stage cycle watchdog.
	Timeouts int
	// X, Y, W, H is the job's (final) fabric rectangle.
	X, Y, W, H int
	// Stages and Memory are retained only under Config.KeepStats and
	// are nil without it. Memory is the job's own final image, shared
	// with no other job. Without CrossContention, Stages holds the
	// class's baseline Stats, shared read-only by every job of the class.
	Stages []*sim.Stats `json:"-"`
	Memory *sim.Memory  `json:"-"`
}

// Result aggregates one scenario run.
type Result struct {
	// Makespan is the cycle the last job finished; OracleMakespan is
	// the offline full-knowledge lower bound (max of job critical
	// paths, configuration-port saturation, and fabric area-time).
	Makespan       int
	OracleMakespan int
	// ExecCycles and StallCycles total resident cycles spent executing
	// vs. stalled on reconfiguration (port waits + compaction moves);
	// StallFraction = Stall/(Exec+Stall).
	ExecCycles    int64
	StallCycles   int64
	StallFraction float64
	// LoadCycles is the total configuration-port busy time; PortBusyFraction
	// normalizes it by the makespan.
	LoadCycles       int64
	PortBusyFraction float64
	// QueueWaitP50/P99 bound the admission-wait distribution (log2
	// buckets, workload.Hist semantics); PlaceFails counts cycles the
	// queue head could not be placed; MaxQueue is the deepest backlog;
	// Compactions counts strip repacks and MovedResidents the residents
	// they relocated.
	QueueWaitP50, QueueWaitP99 int
	PlaceFails                 int
	MaxQueue                   int
	Compactions                int
	MovedResidents             int
	// ArbWaitCycles sums arbiter waits across all jobs' stages.
	ArbWaitCycles int64
	Timeouts      int
	Jobs          []JobStats
}

// Run executes the scenario to completion (every job finished) or the
// watchdog, whichever comes first.
func Run(cfg Config) (*Result, error) {
	e, err := newEngine(&cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}
