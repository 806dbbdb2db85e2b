// Package sim is the cycle-accurate multi-PE system simulator: it executes
// behavioral task programs against simulated memory banks, shared
// channels with receive-side registers, and arbiters, enforcing the
// paper's access protocol and detecting every class of sharing violation
// (simultaneous bank accesses, accesses without a grant, starvation,
// deadlock).
//
// Data genuinely moves: reads and writes hit per-segment storage, sends
// land in per-logical-channel registers, and OpTransform applies real
// functions, so arbitration bugs surface as corrupted values in addition
// to violation records.
//
// Background contention can be injected alongside the compiled tasks:
// Config.Sources attaches closed-loop phantom requesters (any
// workload.Generator, one correlated workload.SharedSource spanning
// several resources included) to named arbiters, widening their request
// vectors and policies so synthetic traffic competes for grants exactly
// like a real task — see Source.
//
// A stage runs in two steps: New does all the setup and returns every
// error the stage can raise, and (*Sim).Run is the cycle loop, which
// cannot fail. A caller with several stages can set up all of them
// before it runs the first.
//
// The per-cycle path is allocation-free: programs are precompiled so
// every resource/segment/channel name resolves to a pointer or dense
// index once at setup, request and grant vectors are single
// arbiter.BitVec words stepped through the policies' word-level
// BitStepper surface, and memory accesses index interned dense pages
// (see Memory). Only trace recording, which appends one request/grant
// word pair per arbiter-cycle, and violation capture allocate.
//
// Quiet cycles are fast-forwarded. After a cycle in which no task
// finished, if every started, unfinished task sits inside an OpCompute
// or OpTransform delay with at least two cycles left, the next k =
// (smallest remaining delay) − 1 cycles cannot change any task: Run
// counts k off every delay at once and runs no task in those cycles.
// No request line moves and no grant is read, so Run covers each
// window in one step. An arbiter without phantom lines settles: its
// policy either answers for the whole window at once (Policy.Settle) or
// is stepped through it on its own. Arbiters with phantom lines step
// cycle by cycle with their background sources and correlated
// statistics. Grant counters and traces take every window cycle, so
// Stats equal those of stepping every task every cycle.
package sim

import (
	"fmt"
	"sort"

	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/partition"
	"sparcs/internal/taskgraph"
)

// Config describes one stage's simulation.
type Config struct {
	Graph *taskgraph.Graph
	// Tasks in this stage.
	Tasks []string
	// Programs holds each task's (already rewritten) program.
	Programs map[string]behav.Program
	// Arbiters lists the stage's arbiter instances.
	Arbiters []partition.ArbiterSpec
	// ResourceOfSegment maps segments to their bank resource name; absent
	// segments are private (never conflict-checked).
	ResourceOfSegment map[string]string
	// ResourceOfChannel maps logical channels to physical channel
	// resources ("" or absent = on-chip, conflict-free).
	ResourceOfChannel map[string]string
	// Policy is the arbiter implementation every arbiter instantiates,
	// through NewWidened(members, width): members is the member-task
	// line count and width the total once background sources widen the
	// request vector, so a layout-sensitive policy (the hierarchical
	// tree) keeps its member-line structure under widening. A width the
	// spec cannot serve fails New with the spec's error. Nil uses the
	// behavioral round-robin; "fsm" or "netlist" simulates the actual
	// generated hardware.
	Policy *arbiter.PolicySpec
	// MaxCycles bounds the run (deadlock watchdog). 0 means 10 million.
	MaxCycles int
	// Memory carries segment contents across stages; nil starts blank.
	Memory *Memory
	// DisableTraces skips per-cycle arbiter trace recording — the one
	// part of Stats whose cost grows with cycle count. Sweeps that only
	// need cycle/violation/grant statistics set this; Stats.ArbiterTraces
	// then maps each resource to nil.
	DisableTraces bool
	// Sources attaches background phantom requesters to named arbiters
	// (see Source): each source's windows are appended after the member
	// tasks' request lines in list order, the policy is constructed over
	// the widened count, and grants won by phantoms are fed back into
	// their closed loops. Per-line counts land in Stats.Contention, a
	// correlated source's cross-resource statistics in Stats.Shared.
	// Statically silent sources (StaticallySilent) are elided entirely,
	// so zero-rate contention is a byte-identical no-op.
	Sources []Source
	// CaptureOnly restricts trace recording to the named resources when
	// non-nil (and DisableTraces is false): unlisted arbiters skip
	// per-cycle recording entirely and report a nil trace, so a run that
	// only needs one resource's stream pays for one. Nil records every
	// arbiter, preserving the historical default.
	CaptureOnly []string
}

// Violation records one sharing error.
type Violation struct {
	Cycle    int
	Resource string
	Tasks    []string
	Kind     string // "port-conflict", "no-grant", "starvation"
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s on %s by %v", v.Cycle, v.Kind, v.Resource, v.Tasks)
}

// Stats is the outcome of one stage simulation. ArbiterTraces maps each
// arbiter's resource to its recorded request/grant stream, nil for an
// arbiter that records nothing (DisableTraces, or left out of
// CaptureOnly).
type Stats struct {
	Cycles          int
	Done            bool
	TaskFinish      map[string]int
	WaitCycles      map[string]int
	GrantsByRes     map[string]int
	MemReads        int
	MemWrites       int
	ChannelSends    int
	Violations      []Violation
	ArbiterTraces   map[string]*arbiter.Trace
	PerTaskOverhead map[string]int
	// Contention maps each resource with active (non-elided) background
	// sources to its phantom-line statistics; nil when the run had no
	// active contention, so uninstrumented Stats stay byte-identical.
	Contention map[string]*ContentionStats
	// Shared holds one entry per active (non-elided) correlated source,
	// in Config.Sources order: the cross-resource hold-and-wait overlap
	// and per-resource grant/wait totals no single-resource view can
	// report. Nil when the run had no active correlated sources.
	Shared []*SharedStats
}

// arbInst is one arbiter instance with its request/grant state packed
// into single BitVec words (bit i = request line i) and its trace.
// With contention attached, the low memberN bits are the member tasks'
// lines followed by the phantom sources' line windows up to width, and
// traces record the full widened width.
type arbInst struct {
	res        string
	spec       partition.ArbiterSpec
	policy     arbiter.Policy
	index      map[string]int // task -> line (setup only)
	memberN    int            // request lines belonging to member tasks
	width      int            // total request lines (members + phantoms)
	memberMask arbiter.BitVec // low memberN bits
	req        arbiter.BitVec
	grant      arbiter.BitVec
	grants     int            // member grants, flushed to Stats.GrantsByRes after the run
	trace      *arbiter.Trace // per-cycle request/grant words; nil = not recorded
	phGrants   []int          // per phantom line, flushed to Stats.Contention
	phWaits    []int
}

// cinstr is one precompiled instruction: every map lookup the
// interpreter would otherwise repeat per cycle — arbiter by resource
// name, request-line index by task name, bank resource by segment,
// channel register by channel name, memory segment by name — is
// resolved once at setup.
type cinstr struct {
	op      behav.Op
	res     string         // resolved resource name (violations)
	ai      *arbInst       // arbiter guarding the op's resource; nil = unarbitrated
	lineBit arbiter.BitVec // this task's request line on ai; 0 = not a member
	conf    int            // conflict-resource index; -1 = private / conflict-free
	seg     int            // interned memory segment ID (OpRead/OpWrite)
	ch      *chanReg       // channel register (OpSend/OpRecv)

	addr   int
	stride int
	n      int
	cycles int
	val    int64
	fn     func(in []int64) []int64
}

type taskState struct {
	name    string
	code    []cinstr
	iters   int          // prog.Iterations(), hoisted
	deps    []*taskState // in-stage dependencies, resolved once
	iter    int
	pc      int
	wait    int // remaining compute cycles
	buf     []int64
	head    int // buf[head:] is live — pops advance head instead of copying
	scratch []int64
	waits   int // flushed to Stats.WaitCycles after the run
	done    bool
	finish  int // cycle the task completed in (valid when done)
	started bool
}

// popFront removes and returns the oldest buffered value.
func (ts *taskState) popFront() int64 {
	v := ts.buf[ts.head]
	ts.head++
	ts.compact()
	return v
}

// compact reclaims buf's dead prefix: immediately when the buffer
// drains, or by shifting the live tail down once the dead prefix
// dominates — so a task that never fully drains (streaming one value of
// slack per iteration) still runs in O(live depth) memory instead of
// growing buf for the whole run.
func (ts *taskState) compact() {
	if ts.head == len(ts.buf) {
		ts.buf = ts.buf[:0]
		ts.head = 0
		return
	}
	if ts.head >= 32 && ts.head*2 >= len(ts.buf) {
		n := copy(ts.buf, ts.buf[ts.head:])
		ts.buf = ts.buf[:n]
		ts.head = 0
	}
}

func (ts *taskState) bufLen() int { return len(ts.buf) - ts.head }

type chanReg struct {
	valid bool
	value int64
}

type pendingSend struct {
	ch    *chanReg
	value int64
}

// roundRobin is the policy a Config without one simulates: the paper's
// behavioral round-robin (Figure 5 semantics). New only reads it.
var roundRobin = arbiter.PolicySpec{Kind: "round-robin"}

// Sim is one stage set up to simulate: New has built its arbiters,
// policies, sources and compiled programs, and Run executes it once.
type Sim struct {
	mem                 *Memory
	sources, correlated []*source
	arbs                []*arbInst // the nFed with phantom lines first
	tasks               []*taskState
	confNames           []string // conflict resources by interned index
	maxCycles, nFed     int
}

// Run is New followed by (*Sim).Run.
func Run(cfg Config) (*Stats, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// New sets up one stage's simulation and returns every error the stage
// can raise, such as an arbiter or source wider than arbiter.MaxN, a
// policy that cannot serve an arbiter's widened width, an unknown
// channel or an op outside OpCompute..OpTransform. It only interns
// segment names in cfg.Memory; no word moves until Run.
func New(cfg Config) (*Sim, error) {
	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 10_000_000
	}
	mem := cfg.Memory
	if mem == nil {
		mem = NewMemory()
	}
	policy := cfg.Policy
	if policy == nil {
		policy = &roundRobin
	}

	// Arbiter instances and request-line plumbing.
	arbs := map[string]*arbInst{}
	for _, spec := range cfg.Arbiters {
		if spec.N() > arbiter.MaxN {
			return nil, fmt.Errorf("sim: arbiter on %s has %d request lines; the bitset kernel supports at most %d",
				spec.Resource, spec.N(), arbiter.MaxN)
		}
		ai := &arbInst{
			res:        spec.Resource,
			spec:       spec,
			index:      map[string]int{},
			memberN:    spec.N(),
			width:      spec.N(),
			memberMask: arbiter.Mask(spec.N()),
		}
		for i, t := range spec.Members {
			ai.index[t] = i
		}
		arbs[spec.Resource] = ai
	}
	// Phantom lines widen the request words before the policies are
	// sized.
	sources, err := wire(cfg.Sources, arbs)
	if err != nil {
		return nil, err
	}
	var correlated []*source
	for _, s := range sources {
		if s.stats != nil {
			correlated = append(correlated, s)
		}
	}
	// Per-resource trace taps: nil CaptureOnly records everything.
	captureSet := map[string]bool{}
	for _, r := range cfg.CaptureOnly {
		captureSet[r] = true
	}
	//sparcs:ignore determinism each instance's trace is set independently; iteration order cannot change the result
	for _, ai := range arbs {
		if !cfg.DisableTraces && (cfg.CaptureOnly == nil || captureSet[ai.res]) {
			ai.trace = &arbiter.Trace{N: ai.width}
		}
	}
	// Construct policies in cfg.Arbiters order (not map order), so the
	// first unservable width reported is deterministic.
	for _, spec := range cfg.Arbiters {
		ai := arbs[spec.Resource]
		p, err := policy.NewWidened(ai.memberN, ai.width)
		if err != nil {
			return nil, fmt.Errorf("sim: policy %s unusable for the %d-line arbiter on %s (%d members + %d background): %w",
				policy, ai.width, ai.res, ai.memberN, ai.width-ai.memberN, err)
		}
		ai.policy = p
	}
	arbList := make([]*arbInst, 0, len(arbs))
	//sparcs:ignore determinism values are collected then sorted by resource name on the next line
	for _, ai := range arbs {
		arbList = append(arbList, ai)
	}
	// Fed arbiters, those with phantom lines, come first, each group in
	// resource order. Arbiters never read each other's lines within a
	// cycle, so the order only keeps runs deterministic.
	sort.Slice(arbList, func(i, j int) bool {
		a, b := arbList[i], arbList[j]
		if (a.phGrants != nil) != (b.phGrants != nil) {
			return a.phGrants != nil
		}
		return a.res < b.res
	})
	nFed := 0
	for nFed < len(arbList) && arbList[nFed].phGrants != nil {
		nFed++
	}

	chans := map[string]*chanReg{}
	for _, c := range cfg.Graph.Channels {
		chans[c.Name] = &chanReg{}
	}

	// Conflict resources (banks and physical channels) interned to dense
	// indices for per-cycle multi-writer detection; "" (a private
	// segment or an on-chip channel) is conflict-free.
	confIdx := map[string]int{}
	var confNames []string
	internConf := func(res string) int {
		if res == "" {
			return -1
		}
		if i, ok := confIdx[res]; ok {
			return i
		}
		i := len(confNames)
		confIdx[res] = i
		confNames = append(confNames, res)
		return i
	}

	// Compile every task's program once.
	tasks := make([]*taskState, 0, len(cfg.Tasks))
	byName := map[string]*taskState{}
	for _, name := range cfg.Tasks {
		prog, ok := cfg.Programs[name]
		if !ok {
			return nil, fmt.Errorf("sim: no program for task %s", name)
		}
		ts := &taskState{name: name, iters: prog.Iterations()}
		ts.code = make([]cinstr, len(prog.Body))
		for i, in := range prog.Body {
			if in.Op > behav.OpTransform {
				return nil, fmt.Errorf("sim: task %s instruction %d: unsupported op %v", name, i, in.Op)
			}
			ci := cinstr{
				op: in.Op, res: in.Res, ai: nil, conf: -1, seg: -1,
				addr: in.Addr, stride: in.Stride, n: in.N, cycles: in.Cycles,
				val: in.Val, fn: in.Fn,
			}
			if in.Op == behav.OpSend || in.Op == behav.OpRecv {
				if ci.ch = chans[in.Res]; ci.ch == nil {
					return nil, fmt.Errorf("sim: task %s instruction %d (%s): unknown channel %s", name, i, in.Op, in.Res)
				}
			}
			// An access is guarded by the bank or physical channel it
			// lands on; Req, WaitGrant and Release name theirs.
			switch in.Op {
			case behav.OpRead, behav.OpWrite:
				ci.seg = mem.SegID(in.Res)
				ci.res = cfg.ResourceOfSegment[in.Res]
				ci.conf = internConf(ci.res)
			case behav.OpSend:
				ci.res = cfg.ResourceOfChannel[in.Res]
				ci.conf = internConf(ci.res)
			}
			if ci.ai = arbs[ci.res]; ci.ai != nil {
				if line, isMember := ci.ai.index[name]; isMember {
					ci.lineBit = 1 << uint(line)
				}
			}
			ts.code[i] = ci
		}
		tasks = append(tasks, ts)
		byName[name] = ts
	}
	// Resolve in-stage dependencies to direct pointers: a task must not
	// overlap its predecessor's final access, so it starts only when every
	// in-stage dep completed in a strictly earlier cycle.
	for _, ts := range tasks {
		for _, d := range cfg.Graph.TaskByName(ts.name).Deps {
			if dep, inStage := byName[d]; inStage {
				ts.deps = append(ts.deps, dep)
			}
		}
	}
	return &Sim{mem: mem, sources: sources, correlated: correlated, arbs: arbList,
		tasks: tasks, confNames: confNames, maxCycles: maxCycles, nFed: nFed}, nil
}

// Run simulates the stage New set up, once. Each cycle runs three
// phases: Phase 1 steps the background sources and the arbiters and
// records traces, Phase 2 executes every task one cycle, and Phase 3
// detects port conflicts and latches channel sends. A quiet window (see
// the package comment) runs Phase 1 only, in one step for the arbiters
// that settle; the watchdog still counts every cycle of it.
func (s *Sim) Run() *Stats {
	maxCycles, mem, sources, correlated := s.maxCycles, s.mem, s.sources, s.correlated
	arbList, confNames, tasks := s.arbs, s.confNames, s.tasks
	fed, unfed := arbList[:s.nFed], arbList[s.nFed:]

	stats := &Stats{
		TaskFinish:      map[string]int{},
		WaitCycles:      map[string]int{},
		GrantsByRes:     map[string]int{},
		ArbiterTraces:   map[string]*arbiter.Trace{},
		PerTaskOverhead: map[string]int{},
	}

	// Per-cycle scratch state, allocated once and reset in place.
	confUsers := make([][]string, len(confNames))
	var touched []int
	var sends []pendingSend
	remaining := len(tasks)
	// Cycles up to quietUntil are quiet: Phase 1 runs, task execution
	// does not (see quietCycles).
	quietUntil := -1

	cycle := 0
	//sparcs:hotpath
	for ; cycle < maxCycles; cycle++ {
		if remaining == 0 {
			stats.Done = true
			break
		}

		// Phase 1: arbiters sample request lines (set by earlier cycles)
		// and issue grants for this cycle.
		phase1(sources, arbList, correlated)
		if cycle <= quietUntil {
			// The first cycle of a quiet window. Cover the rest of it,
			// clipped to the watchdog, in one step.
			end := min(quietUntil, maxCycles-1)
			k := end - cycle
			for _, ai := range unfed {
				ai.settle(k)
			}
			if len(sources) > 0 {
				for i := 0; i < k; i++ {
					phase1(sources, fed, correlated)
				}
			}
			cycle = end
			continue
		}

		// Phase 2: tasks execute one cycle each.
		touched = touched[:0]
		sends = sends[:0]
		active := remaining
		for _, ts := range tasks {
			if ts.done {
				continue
			}
			if !ts.started {
				ready := true
				for _, dep := range ts.deps {
					if !dep.done || dep.finish >= cycle {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				ts.started = true
			}
			// Skip zero-time instructions (satisfied grant waits).
			for {
				if len(ts.code) == 0 || ts.iter >= ts.iters {
					ts.done = true
					ts.finish = cycle
					stats.TaskFinish[ts.name] = cycle //sparcs:ignore hotpath written once per task, at termination
					remaining--
					break
				}
				in := &ts.code[ts.pc]
				if in.op == behav.OpWaitGrant {
					if in.ai != nil {
						if in.ai.grant&in.lineBit != 0 {
							advance(ts)
							continue
						}
						ts.waits++
						break // blocked this cycle
					}
					// Resource not arbitrated this stage; wait is void.
					advance(ts)
					continue
				}
				break
			}
			if ts.done {
				continue
			}
			in := &ts.code[ts.pc]
			if in.op == behav.OpWaitGrant {
				continue
			}
			// Reads, writes and sends on a shared resource claim its port
			// this cycle; a member of its arbiter must hold the grant.
			if in.conf >= 0 {
				if len(confUsers[in.conf]) == 0 {
					touched = append(touched, in.conf) //sparcs:ignore hotpath reaches steady-state backing after the first cycles; reset in place
				}
				confUsers[in.conf] = append(confUsers[in.conf], ts.name) //sparcs:ignore hotpath reaches steady-state backing after the first cycles; reset in place
				if in.lineBit != 0 && in.ai.grant&in.lineBit == 0 {
					//sparcs:ignore hotpath violations are exceptional diagnostics, not steady-state work
					stats.Violations = append(stats.Violations, Violation{
						Cycle: cycle, Resource: in.res, Tasks: []string{ts.name}, Kind: "no-grant", //sparcs:ignore hotpath violations are exceptional diagnostics, not steady-state work
					})
				}
			}

			switch in.op {
			case behav.OpCompute:
				if ts.wait == 0 {
					ts.wait = in.n
				}
				ts.wait--
				if ts.wait == 0 {
					advance(ts)
				}
			case behav.OpTransform:
				if ts.wait == 0 {
					ts.wait = in.cycles
					if ts.wait == 0 {
						ts.wait = 1
					}
				}
				ts.wait--
				if ts.wait == 0 {
					n := in.n
					if n > ts.bufLen() {
						n = ts.bufLen()
					}
					ts.scratch = append(ts.scratch[:0], ts.buf[ts.head:ts.head+n]...) //sparcs:ignore hotpath reuses the scratch backing; grows only to the transfer size
					ts.head += n
					ts.compact()
					if in.fn != nil {
						ts.buf = append(ts.buf, in.fn(ts.scratch)...) //sparcs:ignore hotpath task data buffer; growth is the workload, not overhead
					}
					advance(ts)
				}
			case behav.OpRead, behav.OpWrite:
				addr := in.addr + ts.iter*in.stride
				if in.op == behav.OpRead {
					ts.buf = append(ts.buf, mem.ReadID(in.seg, addr)) //sparcs:ignore hotpath task data buffer; growth is the workload, not overhead
					stats.MemReads++
				} else {
					v := in.val
					if ts.bufLen() > 0 {
						v = ts.popFront()
					}
					mem.WriteID(in.seg, addr, v)
					stats.MemWrites++
				}
				advance(ts)
			case behav.OpSend:
				v := in.val
				if ts.bufLen() > 0 {
					v = ts.popFront()
				}
				sends = append(sends, pendingSend{ch: in.ch, value: v}) //sparcs:ignore hotpath reaches steady-state backing after the first cycles; reset in place
				stats.ChannelSends++
				advance(ts)
			case behav.OpRecv:
				if in.ch.valid {
					ts.buf = append(ts.buf, in.ch.value) //sparcs:ignore hotpath task data buffer; growth is the workload, not overhead
					advance(ts)
				}
				// Not valid yet: block (consume the cycle).
			case behav.OpReq:
				if in.ai != nil {
					in.ai.req |= in.lineBit
				}
				advance(ts)
			case behav.OpRelease:
				if in.ai != nil {
					in.ai.req &^= in.lineBit
				}
				advance(ts)
			}
			if ts.iter >= ts.iters {
				ts.done = true
				ts.finish = cycle
				stats.TaskFinish[ts.name] = cycle //sparcs:ignore hotpath written once per task, at termination
				remaining--
			}
		}

		// Phase 3: port-conflict detection and channel register updates,
		// in first-touch order (deterministic, unlike map iteration).
		for _, ci := range touched {
			users := confUsers[ci]
			if len(users) > 1 {
				//sparcs:ignore hotpath violations are exceptional diagnostics, not steady-state work
				stats.Violations = append(stats.Violations, Violation{
					Cycle: cycle, Resource: confNames[ci],
					Tasks: append([]string(nil), users...), Kind: "port-conflict", //sparcs:ignore hotpath violations are exceptional diagnostics, not steady-state work
				})
			}
			confUsers[ci] = users[:0]
		}
		for _, s := range sends {
			s.ch.valid = true
			s.ch.value = s.value
		}
		// A task finishing this cycle may release a dependent next
		// cycle, so only a cycle with no finish opens a quiet window.
		if remaining == active {
			quietUntil = cycle + quietCycles(tasks)
		}
	}
	stats.Cycles = cycle
	for _, ts := range tasks {
		if ts.waits > 0 {
			stats.WaitCycles[ts.name] = ts.waits
		}
	}
	for _, ai := range arbList {
		stats.ArbiterTraces[ai.res] = ai.trace
		if ai.grants > 0 {
			stats.GrantsByRes[ai.res] = ai.grants
		}
		if ai.phGrants != nil {
			if stats.Contention == nil {
				stats.Contention = map[string]*ContentionStats{}
			}
			stats.Contention[ai.res] = &ContentionStats{Grants: ai.phGrants, Waits: ai.phWaits}
		}
	}
	for _, s := range correlated {
		stats.Shared = append(stats.Shared, s.stats)
	}
	if !stats.Done {
		stats.Violations = append(stats.Violations, Violation{
			Cycle: cycle, Resource: "", Kind: "deadlock-or-timeout",
		})
	}
	return stats
}

// phase1 runs Phase 1 of one cycle over arbs. Phantom sources refresh
// their lines first, before ANY arbiter steps, observing last cycle's
// grants (the closed loop), so a source spanning several resources sees
// one coherent grant snapshot. Cross-resource overlap statistics then
// read this cycle's grants on every spanned resource.
//
//sparcs:hotpath
func phase1(sources []*source, arbs []*arbInst, correlated []*source) {
	for _, s := range sources {
		s.next()
	}
	for _, ai := range arbs {
		ai.step()
	}
	for _, s := range correlated {
		s.observe()
	}
}

// step arbitrates one cycle and counts its grants and waits.
//
//sparcs:hotpath
func (ai *arbInst) step() {
	ai.grant = ai.policy.StepBits(ai.req)
	for i := range ai.phGrants {
		//sparcs:ignore bitwidth memberN+i < width <= MaxN, bounded by wire
		bit := arbiter.BitVec(1) << uint(ai.memberN+i)
		switch {
		case ai.grant&bit != 0:
			ai.phGrants[i]++
		case ai.req&bit != 0:
			ai.phWaits[i]++
		}
	}
	ai.record(1)
}

// settle covers the k cycles after a step of an arbiter without phantom
// lines, whose request word stays as it is: in one step when the policy
// settles, otherwise by stepping k times.
//
//sparcs:hotpath
func (ai *arbInst) settle(k int) {
	if !ai.policy.Settle(ai.req, k) {
		for i := 0; i < k; i++ {
			ai.step()
		}
		return
	}
	ai.record(k)
}

// record counts k cycles of the current grant toward the member grants
// and appends them to the trace.
//
//sparcs:hotpath
func (ai *arbInst) record(k int) {
	ai.grants += k * (ai.grant & ai.memberMask).Count()
	if ai.trace != nil {
		st := arbiter.TraceStep{Req: ai.req, Grant: ai.grant}
		for i := 0; i < k; i++ {
			ai.trace.Steps = append(ai.trace.Steps, st) //sparcs:ignore hotpath trace capture is opt-in and amortized; disable traces for allocation-free runs
		}
	}
}

// quietCycles returns k, the number of coming cycles in which no task
// does more than count down a delay, and counts those k cycles off every
// started, unfinished task's delay. k is the smallest remaining
// OpCompute/OpTransform counter minus one, so every delay still ends in
// a cycle that runs in full. It is 0 when some such task has fewer than
// two delay cycles left: it is at a fresh op, blocked on a grant or a
// receive, or spinning on a non-positive delay.
func quietCycles(tasks []*taskState) int {
	k := 0
	for _, ts := range tasks {
		if !ts.started || ts.done {
			continue
		}
		if ts.wait < 2 {
			return 0
		}
		if k == 0 || ts.wait-1 < k {
			k = ts.wait - 1
		}
	}
	for _, ts := range tasks {
		if ts.started && !ts.done {
			ts.wait -= k
		}
	}
	return k
}

// advance moves to the next instruction, wrapping iterations.
func advance(ts *taskState) {
	ts.pc++
	if ts.pc >= len(ts.code) {
		ts.pc = 0
		ts.iter++
	}
}
