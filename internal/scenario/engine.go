package scenario

import (
	"fmt"
	"slices"

	"sparcs/internal/core"
	"sparcs/internal/sim"
	"sparcs/internal/workload"
)

// Job lifecycle states.
const (
	stateQueued  = iota // arrived, waiting for fabric space
	stateLoading        // placed, waiting for its next stage's configuration
	stateRunning        // executing its current stage
	stateDone
)

// Engine events, raised by the hot per-cycle loop and disposed of by the
// cold handler. Splitting this way keeps stepCycle allocation-free: it
// only decrements counters and sets bits; every state transition that
// touches slices, maps, or the simulator happens in handle.
const (
	evArrival = 1 << iota
	evLoadDone
	evStageDone
	evMoveDone
	evCompact
)

type job struct {
	id, class int
	state     int8
	// stage is the temporal partition currently executing (or awaited);
	// loaded counts stage configurations already on the fabric, so the
	// next stage the port can load is index loaded.
	stage, loaded int
	// remain counts down the current stage's execution; moveRemain
	// counts down a compaction relocation (pausing the job).
	remain, moveRemain int
	arrive, placed     int
	finish             int
	queueWait          int
	exec, stall        int
	arbWait            int
	timeouts           int
	x, y               int
	stats              []*sim.Stats
	// mem is the memory image the job's stages simulate on, created
	// blank at placement; nil without cross-contention, where the job
	// takes its class's results.
	mem *sim.Memory
}

// classInfo is the per-class precomputation: footprint rectangle, per
// stage configuration-load costs, and the baseline (contention-free)
// run, whose execution times seed the oracle bound and whose results
// every job takes when there is no cross-contention.
type classInfo struct {
	name       string
	design     *core.Design
	opts       core.Options
	w, h       int
	stageAreas []int
	loadCost   []int
	totalExec  int
	// stats are the baseline's per-stage Stats, shared read-only by
	// every job that reuses them; mem is its final memory image.
	stats []*sim.Stats
	mem   *sim.Memory
}

type engine struct {
	cfg     *Config
	hybrid  bool
	perCLB  int
	classes []classInfo

	arr          *workload.Arrivals
	arrivalsLeft int

	strip      *strip
	cols, rows int

	clock     int
	jobs      []job
	queue     []int // FIFO of queued job ids
	residents []int // placed jobs, ascending id
	arrived   int
	completed int

	portJob    int // -1 when the configuration port is idle
	portRemain int
	compactAt  int // cycle a delayed compaction fires; -1 unarmed

	execTotal, stallTotal, loadTotal         int64
	placeFails, maxQueue                     int
	compactions, movedResidents, timeoutsSum int
	queueHist                                workload.Hist
}

func newEngine(cfg *Config) (*engine, error) {
	bestFit, err := cfg.placement()
	if err != nil {
		return nil, err
	}
	hybrid, err := cfg.prefetch()
	if err != nil {
		return nil, err
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("scenario: no classes configured")
	}
	if cfg.Jobs < 1 {
		return nil, fmt.Errorf("scenario: Jobs must be at least 1, got %d", cfg.Jobs)
	}
	if cfg.CrossContention != "" {
		if _, err := workload.NewGenerator(cfg.CrossContention, 1, 1); err != nil {
			return nil, fmt.Errorf("scenario: cross-contention spec: %w", err)
		}
	}
	for i, c := range cfg.Classes {
		if c.Design == nil {
			return nil, fmt.Errorf("scenario: class %d (%s) has no compiled design", i, c.Name)
		}
		if cfg.CrossContention != "" && len(c.Opts.Contention) > 0 {
			return nil, fmt.Errorf("scenario: class %d (%s) carries its own contention, which CrossContention would replace on every running stage; use one or the other", i, c.Name)
		}
	}
	cols, rows := cfg.FabricCols, cfg.FabricRows
	if cols == 0 && rows == 0 {
		cols, rows = cfg.Classes[0].Design.Board.FabricDims()
	}
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("scenario: fabric %dx%d is empty", cols, rows)
	}
	e := &engine{
		cfg:       cfg,
		hybrid:    hybrid,
		perCLB:    cfg.perCLB(),
		strip:     newStrip(cols, rows, bestFit),
		cols:      cols,
		rows:      rows,
		jobs:      make([]job, cfg.Jobs),
		queue:     make([]int, 0, cfg.Jobs),
		residents: make([]int, 0, cfg.Jobs),
		portJob:   -1,
		compactAt: -1,
	}
	for i, c := range cfg.Classes {
		ci, err := newClassInfo(c, cfg.CrossContention, e.perCLB, cols, rows)
		if err != nil {
			return nil, fmt.Errorf("scenario: class %d (%s): %w", i, c.Name, err)
		}
		e.classes = append(e.classes, ci)
	}
	if cfg.Arrivals != "" {
		arr, err := workload.NewArrivals(cfg.Arrivals, cfg.seed())
		if err != nil {
			return nil, err
		}
		e.arr = arr
	}
	return e, nil
}

func newClassInfo(c Class, cross string, perCLB, cols, rows int) (classInfo, error) {
	ci := classInfo{name: c.Name, design: c.Design, opts: c.Opts}
	ci.stageAreas = c.Design.StageAreas(c.Opts.Partition)
	if len(ci.stageAreas) == 0 {
		return ci, fmt.Errorf("design has no stages")
	}
	footprint := 0
	for _, a := range ci.stageAreas {
		cost := a * perCLB
		if cost < 1 {
			cost = 1
		}
		ci.loadCost = append(ci.loadCost, cost)
		if a > footprint {
			footprint = a
		}
	}
	ci.w, ci.h = rectFor(footprint, rows)
	if ci.w > cols || ci.h > rows {
		return ci, fmt.Errorf("footprint %d CLBs (%dx%d) exceeds the %dx%d fabric",
			footprint, ci.w, ci.h, cols, rows)
	}
	// Cross-contention widens every arbiter of a running stage by up to
	// maxCrossLines lines, so set every stage up at that worst case
	// before the clock starts rather than failing mid-scenario.
	if cross != "" {
		worst := c.Opts
		worst.Contention = crossSpecs(cross, maxCrossLines, c.Design.Stages...)
		if err := core.Check(c.Design, worst); err != nil {
			return ci, err
		}
	}
	// Baseline run: contention-free stage execution times over a carried
	// memory image — exactly a solo System.Run. These seed the oracle's
	// critical-path and area-time bounds (lower bounds even when
	// cross-contention stretches the online run) and validate the
	// class's options before the clock starts. A stage's simulation is a
	// pure function of its config and memory, so a job that runs its
	// stages in order on a blank image under these options computes
	// exactly these Stats and this final image.
	res, err := core.Simulate(c.Design, nil, c.Opts)
	if err != nil {
		return ci, err
	}
	ci.mem = res.Memory
	for _, ss := range res.Stages {
		ci.stats = append(ci.stats, ss.Stats)
		ci.totalExec += execCycles(ss.Stats)
	}
	return ci, nil
}

// execCycles is the engine cycles a stage with these Stats occupies: its
// simulated cycles, at least one.
func execCycles(stats *sim.Stats) int {
	return max(stats.Cycles, 1)
}

func (e *engine) run() (*Result, error) {
	if err := e.start(); err != nil {
		return nil, err
	}
	maxC := e.cfg.maxCycles()
	for e.completed < e.cfg.Jobs {
		if e.clock >= maxC {
			return nil, fmt.Errorf("scenario: watchdog at %d cycles with %d/%d jobs finished (arrivals %q may be too sparse)",
				e.clock, e.completed, e.cfg.Jobs, e.cfg.Arrivals)
		}
		ev := e.stepCycle()
		if ev != 0 {
			if err := e.handle(ev); err != nil {
				return nil, err
			}
		}
	}
	return e.result(), nil
}

// start admits the cycle-0 arrivals and dispatches the first event.
// The first job arrives at cycle 0 unconditionally (normalizing
// makespans across arrival seeds); with no arrival process, every job
// does.
func (e *engine) start() error {
	e.admit()
	if e.arr == nil {
		for e.arrived < e.cfg.Jobs {
			e.admit()
		}
	}
	e.arrivalsLeft = e.cfg.Jobs - e.arrived
	return e.handle(evArrival)
}

// stepCycle advances simulated time by one cycle: the arrival process
// ticks, the configuration port transfers one cycle's worth of
// bitstream, compaction moves progress, and residents execute or stall.
// Queued jobs need no per-cycle work: tryPlace sets a job's queue wait
// from the clock when it is placed. It returns the event mask for the
// cold handler.
//
//sparcs:hotpath
func (e *engine) stepCycle() uint32 {
	var ev uint32
	if e.arrivalsLeft > 0 && e.arr.Tick() {
		ev |= evArrival
	}
	if e.portRemain > 0 {
		e.portRemain--
		if e.portRemain == 0 {
			ev |= evLoadDone
		}
	}
	if e.compactAt >= 0 && e.clock == e.compactAt {
		ev |= evCompact
	}
	for _, id := range e.residents {
		j := &e.jobs[id]
		switch {
		case j.moveRemain > 0:
			j.moveRemain--
			j.stall++
			e.stallTotal++
			if j.moveRemain == 0 {
				ev |= evMoveDone
			}
		case j.state == stateRunning:
			j.remain--
			j.exec++
			e.execTotal++
			if j.remain == 0 {
				ev |= evStageDone
			}
		default: // stateLoading: stalled on the configuration port
			j.stall++
			e.stallTotal++
		}
	}
	e.clock++
	return ev
}

// handle disposes of the cycle's events in a fixed order: finished
// stages free fabric first, the port completes its transfer, arrivals
// join the queue, a due compaction repacks, then the queue head is
// placed, ready residents start their next stage, and the port is
// re-targeted.
func (e *engine) handle(ev uint32) error {
	if ev&evStageDone != 0 {
		e.finishStages()
	}
	if ev&evLoadDone != 0 && e.portJob >= 0 {
		e.jobs[e.portJob].loaded++
		e.portJob = -1
	}
	if ev&evArrival != 0 {
		e.admit()
		e.arrivalsLeft = e.cfg.Jobs - e.arrived
	}
	if ev&evCompact != 0 {
		e.doCompact()
	}
	e.tryPlace()
	if err := e.maybeStart(); err != nil {
		return err
	}
	e.scheduleLoad()
	return nil
}

func (e *engine) admit() {
	if e.arrived >= e.cfg.Jobs {
		return
	}
	id := e.arrived
	e.arrived++
	e.jobs[id] = job{
		id:     id,
		class:  id % len(e.classes),
		state:  stateQueued,
		arrive: e.clock,
	}
	e.queue = append(e.queue, id)
	if len(e.queue) > e.maxQueue {
		e.maxQueue = len(e.queue)
	}
}

// finishStages advances every resident whose stage just completed; a
// job past its last stage departs, freeing its rectangle.
func (e *engine) finishStages() {
	for i := 0; i < len(e.residents); {
		id := e.residents[i]
		j := &e.jobs[id]
		if j.state != stateRunning || j.remain != 0 || j.moveRemain != 0 {
			i++
			continue
		}
		j.stage++
		if j.stage < len(e.classes[j.class].loadCost) {
			j.state = stateLoading
			i++
			continue
		}
		j.state = stateDone
		j.finish = e.clock
		e.completed++
		e.timeoutsSum += j.timeouts
		e.strip.remove(id)
		if e.portJob == id {
			e.portJob, e.portRemain = -1, 0
		}
		e.residents = append(e.residents[:i], e.residents[i+1:]...)
	}
}

// tryPlace places queued jobs strictly FIFO: only the head may be
// placed, so a large job is never starved by smaller later arrivals.
// A fragmentation-blocked head (total free area would fit it) arms the
// delayed compaction timer.
func (e *engine) tryPlace() {
	for len(e.queue) > 0 {
		id := e.queue[0]
		j := &e.jobs[id]
		ci := &e.classes[j.class]
		x, y, ok := e.strip.place(id, ci.w, ci.h)
		if !ok {
			e.placeFails++
			if e.cfg.CompactionDelay >= 0 && e.compactAt < 0 && len(e.residents) > 0 &&
				e.strip.free() >= ci.w*ci.h {
				e.compactAt = e.clock + e.cfg.CompactionDelay
			}
			return
		}
		j.x, j.y = x, y
		j.placed = e.clock
		j.queueWait = e.clock - j.arrive
		e.queueHist.Observe(j.queueWait)
		j.state = stateLoading
		if e.cfg.CrossContention != "" {
			j.mem = sim.NewMemory()
		}
		e.queue = e.queue[1:]
		e.residents = append(e.residents, id)
	}
}

// doCompact repacks the strip (FFDH) if the queue is still blocked.
// Every relocated resident pauses for its area's reconfiguration cost —
// the price of task movement arXiv:1001.4493 delays compaction to
// amortize — and a relocation invalidates any in-flight configuration
// load into the moved region.
func (e *engine) doCompact() {
	e.compactAt = -1
	if len(e.queue) == 0 {
		return
	}
	moved := e.strip.compact()
	if len(moved) == 0 {
		return
	}
	e.compactions++
	e.movedResidents += len(moved)
	for _, id := range moved {
		j := &e.jobs[id]
		if x, y, _, _, ok := e.strip.rectOf(id); ok {
			j.x, j.y = x, y
		}
		ci := &e.classes[j.class]
		j.moveRemain += ci.w * ci.h * e.perCLB
		if e.portJob == id {
			e.portJob, e.portRemain = -1, 0
		}
	}
}

// maybeStart starts the next stage of every resident whose
// configuration is loaded. The stage's result is known up front — its
// cycle count then counts down in stepCycle, so the engine's clock and
// the stage's internal clock advance one-to-one.
func (e *engine) maybeStart() error {
	for _, id := range e.residents {
		j := &e.jobs[id]
		if j.state == stateLoading && j.moveRemain == 0 && j.loaded > j.stage {
			if err := e.startStage(j); err != nil {
				return err
			}
		}
	}
	return nil
}

// startStage starts job j's current stage. Without cross-contention the
// stage's result is the class baseline's; with it, the stage simulates
// on the job's own memory under one phantom line per co-resident.
func (e *engine) startStage(j *job) error {
	ci := &e.classes[j.class]
	stats := ci.stats[j.stage]
	if e.cfg.CrossContention != "" {
		opts := ci.opts
		if co := len(e.residents) - 1; co > 0 {
			if specs := crossSpecs(e.cfg.CrossContention, min(co, maxCrossLines), ci.design.Stages[j.stage]); len(specs) > 0 {
				opts.Contention = specs
				opts.ContentionSeed = e.cfg.seed() +
					uint64(j.id+1)*0x9e3779b97f4a7c15 +
					uint64(j.stage+1)*0x632be59bd9b4e019
			}
		}
		var err error
		if stats, err = core.SimulateStage(ci.design, j.stage, j.mem, opts); err != nil {
			return fmt.Errorf("scenario: job %d stage %d: %w", j.id, j.stage, err)
		}
	}
	j.remain = execCycles(stats)
	j.state = stateRunning
	for _, w := range stats.WaitCycles {
		j.arbWait += w
	}
	if !stats.Done {
		j.timeouts++
	}
	if e.cfg.KeepStats {
		j.stats = append(j.stats, stats)
	}
	return nil
}

// crossSpecs is the cross-contention the stages run under: one
// independent spec per arbitrated resource, however many of the stages
// arbitrate it, each adding lines phantom lines of the cross workload.
func crossSpecs(cross string, lines int, stages ...*core.StagePlan) []core.ContentionSpec {
	var specs []core.ContentionSpec
	for _, sp := range stages {
		for _, arb := range sp.Inserted.Arbiters {
			if !slices.ContainsFunc(specs, func(cs core.ContentionSpec) bool { return cs.Resources[0] == arb.Resource }) {
				specs = append(specs, core.ContentionSpec{
					Resources: []string{arb.Resource},
					Workload:  cross,
					Lines:     lines,
				})
			}
		}
	}
	return specs
}

// scheduleLoad points the idle configuration port at the most urgent
// pending stage: a resident blocked on its current stage (need 0)
// always wins; in hybrid mode the port otherwise prefetches the next
// stage of the running resident that will need it soonest (smallest
// remaining execution — the runtime-reorder heuristic of
// arXiv:0710.4796). Ties break to the lowest job id.
func (e *engine) scheduleLoad() {
	if e.portJob >= 0 {
		return
	}
	best, bestNeed := -1, 0
	for _, id := range e.residents {
		j := &e.jobs[id]
		if j.moveRemain > 0 {
			continue
		}
		ci := &e.classes[j.class]
		if j.loaded >= len(ci.loadCost) {
			continue
		}
		var need int
		switch {
		case j.state == stateLoading && j.loaded == j.stage:
			need = 0
		case e.hybrid && j.state == stateRunning && j.loaded == j.stage+1:
			need = j.remain
		default:
			continue
		}
		if best < 0 || need < bestNeed {
			best, bestNeed = id, need
		}
	}
	if best < 0 {
		return
	}
	j := &e.jobs[best]
	cost := e.classes[j.class].loadCost[j.loaded]
	e.portJob = best
	e.portRemain = cost
	e.loadTotal += int64(cost)
}

// oracle is the offline full-knowledge makespan lower bound: the max of
// (a) each job's critical path — arrival, first configuration load,
// then all stages executed back-to-back; (b) configuration-port
// saturation — every load serialized through the single port, followed
// by at least the shortest stage's execution; (c) fabric area-time —
// total footprint×execution demand over fabric capacity. Each is a
// bound on every feasible schedule, so max stays below the optimum.
func (e *engine) oracle() int {
	best := 0
	var portSum, areaTime int64
	minExec := -1
	fabric := int64(e.cols) * int64(e.rows)
	for i := range e.jobs {
		ci := &e.classes[e.jobs[i].class]
		if jb := e.jobs[i].arrive + ci.loadCost[0] + ci.totalExec; jb > best {
			best = jb
		}
		for _, c := range ci.loadCost {
			portSum += int64(c)
		}
		for _, st := range ci.stats {
			if x := execCycles(st); minExec < 0 || x < minExec {
				minExec = x
			}
		}
		areaTime += int64(ci.w) * int64(ci.h) * int64(ci.totalExec)
	}
	if pb := int(portSum) + minExec; pb > best {
		best = pb
	}
	if ab := int((areaTime + fabric - 1) / fabric); ab > best {
		best = ab
	}
	return best
}

func (e *engine) result() *Result {
	r := &Result{
		Makespan:       e.clock,
		OracleMakespan: e.oracle(),
		ExecCycles:     e.execTotal,
		StallCycles:    e.stallTotal,
		LoadCycles:     e.loadTotal,
		QueueWaitP50:   e.queueHist.Percentile(0.50),
		QueueWaitP99:   e.queueHist.Percentile(0.99),
		PlaceFails:     e.placeFails,
		MaxQueue:       e.maxQueue,
		Compactions:    e.compactions,
		MovedResidents: e.movedResidents,
		Timeouts:       e.timeoutsSum,
	}
	if tot := e.execTotal + e.stallTotal; tot > 0 {
		r.StallFraction = float64(e.stallTotal) / float64(tot)
	}
	if e.clock > 0 {
		r.PortBusyFraction = float64(e.loadTotal) / float64(e.clock)
	}
	makespan := 0
	for i := range e.jobs {
		j := &e.jobs[i]
		ci := &e.classes[j.class]
		r.ArbWaitCycles += int64(j.arbWait)
		if j.finish > makespan {
			makespan = j.finish
		}
		var mem *sim.Memory
		if e.cfg.KeepStats {
			mem = j.mem
			if mem == nil { // the job took its class's results
				mem = ci.mem.Clone()
			}
		}
		r.Jobs = append(r.Jobs, JobStats{
			ID:        j.id,
			Class:     ci.name,
			Arrive:    j.arrive,
			Place:     j.placed,
			Finish:    j.finish,
			QueueWait: j.queueWait,
			Exec:      j.exec,
			Stall:     j.stall,
			ArbWait:   j.arbWait,
			Timeouts:  j.timeouts,
			X:         j.x,
			Y:         j.y,
			W:         ci.w,
			H:         ci.h,
			Stages:    j.stats,
			Memory:    mem,
		})
	}
	r.Makespan = makespan
	return r
}
