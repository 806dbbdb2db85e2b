package sim

// This file preserves the pre-optimization simulator verbatim as a
// test-only golden reference: referenceRun is the map-based interpreter
// the allocation-free Run replaced. The equivalence tests drive both on
// the same scenarios and require reflect.DeepEqual Stats, proving the
// hot-loop rewrite changed performance and nothing else.

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/partition"
	"sparcs/internal/taskgraph"
)

type refTaskState struct {
	name    string
	prog    behav.Program
	iter    int
	pc      int
	wait    int
	buf     []int64
	done    bool
	finish  int
	started bool
}

func refCurrent(ts *refTaskState) (behav.Instr, bool) {
	if len(ts.prog.Body) == 0 || ts.iter >= ts.prog.Iterations() {
		return behav.Instr{}, false
	}
	return ts.prog.Body[ts.pc], true
}

func refAdvance(ts *refTaskState) {
	ts.pc++
	if ts.pc >= len(ts.prog.Body) {
		ts.pc = 0
		ts.iter++
	}
}

// referenceRun is the seed implementation of Run, kept byte-for-byte in
// behavior (it predates interning, so it uses the string Memory API). It
// records each cycle's request and grant vectors per line, as the seed
// did, and packs them into an arbiter.Trace once, when it builds Stats,
// so Run's word capture is checked against an independent record.
func referenceRun(cfg Config) (*Stats, error) {
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
		policy = &arbiter.PolicySpec{Kind: "round-robin"}
	}

	type refStep struct{ req, grant []bool }
	type arbInst struct {
		spec    partition.ArbiterSpec
		policy  arbiter.Policy
		index   map[string]int
		req     []bool
		granted map[string]bool
		trace   []refStep
	}
	arbs := map[string]*arbInst{}
	for _, spec := range cfg.Arbiters {
		pol, err := policy.New(spec.N())
		if err != nil {
			return nil, err
		}
		ai := &arbInst{
			spec:    spec,
			policy:  pol,
			index:   map[string]int{},
			req:     make([]bool, spec.N()),
			granted: map[string]bool{},
		}
		for i, t := range spec.Members {
			ai.index[t] = i
		}
		arbs[spec.Resource] = ai
	}

	tasks := make([]*refTaskState, 0, len(cfg.Tasks))
	byName := map[string]*refTaskState{}
	for _, name := range cfg.Tasks {
		prog, ok := cfg.Programs[name]
		if !ok {
			return nil, fmt.Errorf("sim: no program for task %s", name)
		}
		ts := &refTaskState{name: name, prog: prog}
		tasks = append(tasks, ts)
		byName[name] = ts
	}

	depsDone := func(ts *refTaskState, cycle int) bool {
		for _, d := range cfg.Graph.TaskByName(ts.name).Deps {
			if dep, inStage := byName[d]; inStage && (!dep.done || dep.finish >= cycle) {
				return false
			}
		}
		return true
	}

	chans := map[string]*chanReg{}
	for _, c := range cfg.Graph.Channels {
		chans[c.Name] = &chanReg{}
	}

	stats := &Stats{
		TaskFinish:      map[string]int{},
		WaitCycles:      map[string]int{},
		GrantsByRes:     map[string]int{},
		ArbiterTraces:   map[string]*arbiter.Trace{},
		PerTaskOverhead: map[string]int{},
	}

	type refPendingSend struct {
		channel string
		value   int64
	}

	cycle := 0
	for ; cycle < maxCycles; cycle++ {
		allDone := true
		for _, ts := range tasks {
			if !ts.done {
				allDone = false
				break
			}
		}
		if allDone {
			stats.Done = true
			break
		}

		resNames := make([]string, 0, len(arbs))
		for r := range arbs {
			resNames = append(resNames, r)
		}
		sort.Strings(resNames)
		for _, r := range resNames {
			ai := arbs[r]
			grants := make([]bool, len(ai.req))
			ai.policy.StepBits(arbiter.PackBools(ai.req)).WriteBools(grants)
			for t := range ai.granted {
				delete(ai.granted, t)
			}
			for i, gr := range grants {
				if gr {
					ai.granted[ai.spec.Members[i]] = true
					stats.GrantsByRes[r]++
				}
			}
			ai.trace = append(ai.trace, refStep{
				req:   append([]bool(nil), ai.req...),
				grant: append([]bool(nil), grants...),
			})
		}

		bankAccess := map[string][]string{}
		var sends []refPendingSend
		for _, ts := range tasks {
			if ts.done {
				continue
			}
			if !ts.started {
				if !depsDone(ts, cycle) {
					continue
				}
				ts.started = true
			}
			for {
				in, ok := refCurrent(ts)
				if !ok {
					ts.done = true
					ts.finish = cycle
					stats.TaskFinish[ts.name] = cycle
					break
				}
				if in.Op == behav.OpWaitGrant {
					ai := arbs[in.Res]
					if ai != nil && ai.granted[ts.name] {
						refAdvance(ts)
						continue
					}
					if ai == nil {
						refAdvance(ts)
						continue
					}
					stats.WaitCycles[ts.name]++
					break
				}
				break
			}
			if ts.done {
				continue
			}
			in, ok := refCurrent(ts)
			if !ok || in.Op == behav.OpWaitGrant {
				continue
			}

			switch in.Op {
			case behav.OpCompute:
				if ts.wait == 0 {
					ts.wait = in.N
				}
				ts.wait--
				if ts.wait == 0 {
					refAdvance(ts)
				}
			case behav.OpTransform:
				if ts.wait == 0 {
					ts.wait = in.Cycles
					if ts.wait == 0 {
						ts.wait = 1
					}
				}
				ts.wait--
				if ts.wait == 0 {
					n := in.N
					if n > len(ts.buf) {
						n = len(ts.buf)
					}
					args := append([]int64(nil), ts.buf[:n]...)
					ts.buf = append([]int64(nil), ts.buf[n:]...)
					if in.Fn != nil {
						ts.buf = append(ts.buf, in.Fn(args)...)
					}
					refAdvance(ts)
				}
			case behav.OpRead, behav.OpWrite:
				res := cfg.ResourceOfSegment[in.Res]
				if res != "" {
					bankAccess[res] = append(bankAccess[res], ts.name)
					if ai := arbs[res]; ai != nil {
						if _, isMember := ai.index[ts.name]; isMember && !ai.granted[ts.name] {
							stats.Violations = append(stats.Violations, Violation{
								Cycle: cycle, Resource: res, Tasks: []string{ts.name}, Kind: "no-grant",
							})
						}
					}
				}
				if in.Op == behav.OpRead {
					ts.buf = append(ts.buf, mem.Read(in.Res, in.EffAddr(ts.iter)))
					stats.MemReads++
				} else {
					v := in.Val
					if len(ts.buf) > 0 {
						v = ts.buf[0]
						ts.buf = append([]int64(nil), ts.buf[1:]...)
					}
					mem.Write(in.Res, in.EffAddr(ts.iter), v)
					stats.MemWrites++
				}
				refAdvance(ts)
			case behav.OpSend:
				res := cfg.ResourceOfChannel[in.Res]
				if res != "" {
					bankAccess[res] = append(bankAccess[res], ts.name)
					if ai := arbs[res]; ai != nil {
						if _, isMember := ai.index[ts.name]; isMember && !ai.granted[ts.name] {
							stats.Violations = append(stats.Violations, Violation{
								Cycle: cycle, Resource: res, Tasks: []string{ts.name}, Kind: "no-grant",
							})
						}
					}
				}
				v := in.Val
				if len(ts.buf) > 0 {
					v = ts.buf[0]
					ts.buf = append([]int64(nil), ts.buf[1:]...)
				}
				sends = append(sends, refPendingSend{channel: in.Res, value: v})
				stats.ChannelSends++
				refAdvance(ts)
			case behav.OpRecv:
				reg := chans[in.Res]
				if reg == nil {
					return nil, fmt.Errorf("sim: task %s receives on unknown channel %s", ts.name, in.Res)
				}
				if reg.valid {
					ts.buf = append(ts.buf, reg.value)
					refAdvance(ts)
				}
			case behav.OpReq:
				if ai := arbs[in.Res]; ai != nil {
					if idx, isMember := ai.index[ts.name]; isMember {
						ai.req[idx] = true
					}
				}
				refAdvance(ts)
			case behav.OpRelease:
				if ai := arbs[in.Res]; ai != nil {
					if idx, isMember := ai.index[ts.name]; isMember {
						ai.req[idx] = false
					}
				}
				refAdvance(ts)
			default:
				return nil, fmt.Errorf("sim: task %s: unsupported op %v", ts.name, in.Op)
			}
			if _, stillRunning := refCurrent(ts); !stillRunning {
				ts.done = true
				ts.finish = cycle
				stats.TaskFinish[ts.name] = cycle
			}
		}

		for res, users := range bankAccess {
			if len(users) > 1 {
				stats.Violations = append(stats.Violations, Violation{
					Cycle: cycle, Resource: res, Tasks: users, Kind: "port-conflict",
				})
			}
		}
		for _, s := range sends {
			reg := chans[s.channel]
			reg.valid = true
			reg.value = s.value
		}
	}
	stats.Cycles = cycle
	for r, ai := range arbs {
		tr := &arbiter.Trace{N: len(ai.req)}
		for _, st := range ai.trace {
			tr.Steps = append(tr.Steps, arbiter.TraceStep{Req: arbiter.PackBools(st.req), Grant: arbiter.PackBools(st.grant)})
		}
		stats.ArbiterTraces[r] = tr
	}
	if !stats.Done {
		stats.Violations = append(stats.Violations, Violation{
			Cycle: cycle, Resource: "", Kind: "deadlock-or-timeout",
		})
	}
	return stats, nil
}

// equivScenario is one Config generator; both simulators get fresh
// memory and fresh configs so neither perturbs the other.
type equivScenario struct {
	name string
	cfg  func() (Config, *Memory)
}

func equivScenarios(t testing.TB) []equivScenario {
	t.Helper()
	contended := func(policy string) func() (Config, *Memory) {
		return func() (Config, *Memory) {
			g := simpleGraph()
			prog := func(base int) behav.Program {
				return behav.Program{Body: []behav.Instr{
					behav.Req("bankS"), behav.WaitGrant("bankS"),
					behav.WriteImm("S", base, int64(base)), behav.Read("S", base),
					behav.Write("S", base+1),
					behav.Release("bankS"),
					behav.Compute(2),
				}, Repeat: 25}
			}
			mem := NewMemory()
			var spec *arbiter.PolicySpec
			if policy != "" {
				var err error
				if spec, err = arbiter.ParsePolicySpec(policy); err != nil {
					panic(err)
				}
			}
			return Config{
				Graph:             g,
				Tasks:             []string{"A", "B"},
				Programs:          map[string]behav.Program{"A": prog(0), "B": prog(100)},
				Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
				ResourceOfSegment: map[string]string{"S": "bankS"},
				Policy:            spec,
				Memory:            mem,
			}, mem
		}
	}
	// holdThrough keeps A's grant through a Compute(20) while B, in a
	// Compute(9), has yet to request: A is the only requester through a
	// quiet window, and a wrr or preemptive arbiter must count every
	// cycle of it toward A's hold, or it revokes A's grant late. When
	// contested, B requests before its Compute(9), so the arbiter
	// cannot settle and A's quantum runs out inside the window.
	holdThrough := func(policy string, contested bool) func() (Config, *Memory) {
		return func() (Config, *Memory) {
			spec, err := arbiter.ParsePolicySpec(policy)
			if err != nil {
				panic(err)
			}
			b := []behav.Instr{behav.Compute(9), behav.Req("bankS")}
			if contested {
				b = []behav.Instr{behav.Req("bankS"), behav.Compute(9)}
			}
			mem := NewMemory()
			return Config{
				Graph: simpleGraph(),
				Tasks: []string{"A", "B"},
				Programs: map[string]behav.Program{
					"A": {Body: []behav.Instr{
						behav.Req("bankS"), behav.WaitGrant("bankS"), behav.Compute(20),
						behav.WriteImm("S", 0, 1), behav.Release("bankS"), behav.Compute(3),
					}, Repeat: 4},
					"B": {Body: append(b,
						behav.WaitGrant("bankS"), behav.WriteImm("S", 1, 2), behav.Release("bankS"),
					), Repeat: 4},
				},
				Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
				ResourceOfSegment: map[string]string{"S": "bankS"},
				Policy:            spec,
				Memory:            mem,
			}, mem
		}
	}
	return []equivScenario{
		{"contended-round-robin", contended("")},
		{"contended-fifo", contended("fifo")},
		{"contended-priority", contended("priority")},
		{"contended-random", contended("random")},
		{"buffer-compaction", func() (Config, *Memory) {
			// Two reads per write: the task buffer keeps a growing
			// residual and never fully drains, driving the deque's
			// shift-down compaction path (head >= 32) while the
			// reference's copy-per-pop semantics stay authoritative.
			g := simpleGraph()
			mem := NewMemory()
			for i := 0; i < 256; i++ {
				mem.Write("S", i, int64(i+1000))
			}
			return Config{
				Graph: g,
				Tasks: []string{"A"},
				Programs: map[string]behav.Program{
					"A": {Body: []behav.Instr{
						behav.ReadStride("S", 0, 2),
						behav.ReadStride("S", 1, 2),
						behav.WriteStride("S", 512, 1),
					}, Repeat: 100},
				},
				Memory: mem,
			}, mem
		}},
		{"no-grant-violations", func() (Config, *Memory) {
			g := simpleGraph()
			prog := func(base int) behav.Program {
				return behav.Program{Body: []behav.Instr{behav.WriteImm("S", base, 1)}, Repeat: 10}
			}
			mem := NewMemory()
			return Config{
				Graph:             g,
				Tasks:             []string{"A", "B"},
				Programs:          map[string]behav.Program{"A": prog(0), "B": prog(100)},
				Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
				ResourceOfSegment: map[string]string{"S": "bankS"},
				Memory:            mem,
			}, mem
		}},
		{"channels-and-deps", func() (Config, *Memory) {
			g := &taskgraph.Graph{
				Name:     "chain",
				Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 64, WidthBits: 32}},
				Channels: []*taskgraph.Channel{{Name: "c", From: "P", To: "C", WidthBits: 8}},
				Tasks: []*taskgraph.Task{
					{Name: "P", AreaCLBs: 1, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
					{Name: "C", AreaCLBs: 1, Deps: []string{"P"}, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Read}}},
				},
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			mem := NewMemory()
			return Config{
				Graph: g,
				Tasks: []string{"P", "C"},
				Programs: map[string]behav.Program{
					"P": {Body: []behav.Instr{behav.Compute(7), behav.WriteImm("S", 0, 9), behav.SendImm("c", 5)}},
					"C": {Body: []behav.Instr{behav.Read("S", 0), behav.Write("S", 1)}},
				},
				Memory: mem,
			}, mem
		}},
		{"arbitrated-link", func() (Config, *Memory) {
			// Two channels share one arbitrated physical link: P sends
			// inside a grant burst, Q sends without a grant (no-grant
			// violations), and their sends meet on the link (port
			// conflicts).
			g := &taskgraph.Graph{
				Name:     "link",
				Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 64, WidthBits: 32}},
				Channels: []*taskgraph.Channel{
					{Name: "c", From: "P", To: "R", WidthBits: 8},
					{Name: "d", From: "Q", To: "R", WidthBits: 8},
				},
				Tasks: []*taskgraph.Task{{Name: "P", AreaCLBs: 1}, {Name: "Q", AreaCLBs: 1}, {Name: "R", AreaCLBs: 1}},
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			mem := NewMemory()
			return Config{
				Graph: g,
				Tasks: []string{"P", "Q", "R"},
				Programs: map[string]behav.Program{
					"P": {Body: []behav.Instr{
						behav.Req("link"), behav.WaitGrant("link"), behav.SendImm("c", 1), behav.Release("link"), behav.Compute(3),
					}, Repeat: 4},
					"Q": {Body: []behav.Instr{behav.Compute(1), behav.SendImm("d", 2), behav.Compute(4)}, Repeat: 4},
					"R": {Body: []behav.Instr{behav.Recv("c"), behav.Recv("d"), behav.Write("S", 0)}, Repeat: 4},
				},
				Arbiters:          []partition.ArbiterSpec{arbSpec("link", "P", "Q")},
				ResourceOfChannel: map[string]string{"c": "link", "d": "link"},
				Memory:            mem,
			}, mem
		}},
		{"deadlock-watchdog", func() (Config, *Memory) {
			g := &taskgraph.Graph{
				Name:     "dead",
				Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 64, WidthBits: 32}},
				Channels: []*taskgraph.Channel{{Name: "c", From: "A", To: "B", WidthBits: 8}},
				Tasks:    []*taskgraph.Task{{Name: "A", AreaCLBs: 1}, {Name: "B", AreaCLBs: 1}},
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			mem := NewMemory()
			return Config{
				Graph:     g,
				Tasks:     []string{"B"},
				Programs:  map[string]behav.Program{"B": {Body: []behav.Instr{behav.Recv("c")}}},
				MaxCycles: 200,
				Memory:    mem,
			}, mem
		}},
		// The rest open quiet windows (cycles where every started task
		// sits inside a delay and Run steps only the arbiters): windows
		// clipped by staggered delays, a window a finishing task must
		// not open, a watchdog inside a window, delays that never count
		// down, and a holder a quantum must revoke after a window or
		// inside one.
		{"quiet-staggered-delays", func() (Config, *Memory) {
			g := quietGraph()
			inc := func(in []int64) []int64 {
				out := make([]int64, len(in))
				for i, v := range in {
					out[i] = v + 1
				}
				return out
			}
			burst := func(in behav.Instr) []behav.Instr {
				return []behav.Instr{behav.Req("bankS"), behav.WaitGrant("bankS"), in, behav.Release("bankS")}
			}
			mem := NewMemory()
			return Config{
				Graph: g,
				Tasks: []string{"A", "B", "C"},
				Programs: map[string]behav.Program{
					"A": {Body: append(burst(behav.WriteImm("S", 0, 1)), behav.Compute(40)), Repeat: 5},
					"B": {Body: slices.Concat(
						burst(behav.Read("S", 0)),
						[]behav.Instr{behav.Transform(1, 33, inc)},
						burst(behav.Write("S", 10)),
					), Repeat: 5},
					"C": {Body: append(burst(behav.WriteImm("S", 20, 3)), behav.Compute(17)), Repeat: 5},
				},
				Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B", "C")},
				ResourceOfSegment: map[string]string{"S": "bankS"},
				Memory:            mem,
			}, mem
		}},
		{"quiet-dependent-listed-before", quietDependent("C", "P", "Q")},
		{"quiet-dependent-listed-after", quietDependent("P", "C", "Q")},
		{"quiet-watchdog", func() (Config, *Memory) {
			mem := NewMemory()
			return Config{
				Graph: simpleGraph(),
				Tasks: []string{"A"},
				Programs: map[string]behav.Program{"A": {Body: []behav.Instr{
					behav.Req("bankS"), behav.WaitGrant("bankS"), behav.WriteImm("S", 0, 1), behav.Release("bankS"),
					behav.Compute(1000),
				}}},
				Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
				ResourceOfSegment: map[string]string{"S": "bankS"},
				MaxCycles:         500,
				Memory:            mem,
			}, mem
		}},
		{"quiet-non-positive-delays", func() (Config, *Memory) {
			// core.Compile rejects both delays; set directly, they
			// spin until the watchdog.
			mem := NewMemory()
			return Config{
				Graph: simpleGraph(),
				Tasks: []string{"A", "B"},
				Programs: map[string]behav.Program{
					"A": {Body: []behav.Instr{
						behav.Req("bankS"), behav.WaitGrant("bankS"), behav.WriteImm("S", 0, 1), behav.Release("bankS"),
						behav.Compute(0),
					}},
					"B": {Body: []behav.Instr{
						behav.Req("bankS"), behav.WaitGrant("bankS"), behav.WriteImm("S", 1, 2), behav.Release("bankS"),
						behav.Transform(1, -1, nil),
					}},
				},
				Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
				ResourceOfSegment: map[string]string{"S": "bankS"},
				MaxCycles:         300,
				Memory:            mem,
			}, mem
		}},
		{"hold-through-wrr", holdThrough("wrr:8", false)},
		{"hold-through-preemptive", holdThrough("preemptive:8", false)},
		{"hold-through-contested", holdThrough("preemptive:4", true)},
	}
}

// quietGraph builds tasks A, B, C, P and Q over segment S. C depends on
// P, which holds C back only in a stage that runs P too.
func quietGraph() *taskgraph.Graph {
	g := &taskgraph.Graph{
		Name:     "quiet",
		Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 1024, WidthBits: 32}},
	}
	for _, name := range []string{"A", "B", "C", "P", "Q"} {
		g.Tasks = append(g.Tasks, &taskgraph.Task{Name: name, AreaCLBs: 1})
	}
	g.Tasks[2].Deps = []string{"P"}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// quietDependent runs C after P's Compute(100) while Q sits in a
// Compute(250): the cycle P finishes in would otherwise open a window
// over C's first cycle. order lists the three tasks in Config.Tasks
// order.
func quietDependent(order ...string) func() (Config, *Memory) {
	return func() (Config, *Memory) {
		mem := NewMemory()
		return Config{
			Graph: quietGraph(),
			Tasks: order,
			Programs: map[string]behav.Program{
				"P": {Body: []behav.Instr{behav.Compute(100)}},
				"C": {Body: []behav.Instr{
					behav.Req("bankS"), behav.WaitGrant("bankS"), behav.WriteImm("S", 0, 7), behav.Release("bankS"),
					behav.Compute(20),
				}},
				"Q": {Body: []behav.Instr{
					behav.Compute(250),
					behav.Req("bankS"), behav.WaitGrant("bankS"), behav.WriteImm("S", 1, 9), behav.Release("bankS"),
				}},
			},
			Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "C", "Q")},
			ResourceOfSegment: map[string]string{"S": "bankS"},
			Memory:            mem,
		}, mem
	}
}

// TestRunMatchesReference requires the optimized Run to produce Stats
// deeply equal to the seed interpreter on every scenario, including
// traces, violations, per-task finish cycles, and memory images, and
// the untraced Run to produce the same Stats without the traces.
func TestRunMatchesReference(t *testing.T) {
	for _, sc := range equivScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			cfgNew, memNew := sc.cfg()
			cfgRef, memRef := sc.cfg()
			got, errNew := Run(cfgNew)
			want, errRef := referenceRun(cfgRef)
			if (errNew == nil) != (errRef == nil) {
				t.Fatalf("error mismatch: new=%v ref=%v", errNew, errRef)
			}
			if errNew != nil {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stats diverge:\n new: %+v\n ref: %+v", got, want)
			}
			if !reflect.DeepEqual(memNew.Snapshot("S"), memRef.Snapshot("S")) {
				t.Fatalf("memory images diverge: %v vs %v", memNew.Snapshot("S"), memRef.Snapshot("S"))
			}
			cfgBare, _ := sc.cfg()
			cfgBare.DisableTraces = true
			bare, err := Run(cfgBare)
			if err != nil {
				t.Fatal(err)
			}
			untraced := *want
			untraced.ArbiterTraces = maps.Clone(want.ArbiterTraces)
			for r := range untraced.ArbiterTraces {
				untraced.ArbiterTraces[r] = nil
			}
			if !reflect.DeepEqual(bare, &untraced) {
				t.Fatalf("untraced stats diverge:\n new: %+v\n ref: %+v", bare, &untraced)
			}
		})
	}
}

// TestParallelForMatchesSequential fans a mixed bag of scenarios through
// ParallelFor and requires each concurrent Run to deep-equal the
// sequential Run of the same config.
func TestParallelForMatchesSequential(t *testing.T) {
	scenarios := equivScenarios(t)
	var batch []Config
	var want []*Stats
	for _, sc := range scenarios {
		cfgSeq, _ := sc.cfg()
		s, err := Run(cfgSeq)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, s)
		cfgPar, _ := sc.cfg()
		batch = append(batch, cfgPar)
	}
	got := make([]*Stats, len(batch))
	errs := make([]error, len(batch))
	ParallelFor(len(batch), func(i int) {
		got[i], errs[i] = Run(batch[i])
	})
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("entry %d (%s): %v", i, scenarios[i].name, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("entry %d (%s) diverges from sequential run", i, scenarios[i].name)
		}
	}
}

// TestParallelForEmpty: a zero-length fan-out is a no-op, not a hang.
func TestParallelForEmpty(t *testing.T) {
	calls := 0
	ParallelFor(0, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("fn called %d times for n=0", calls)
	}
}

// TestDisableTraces keeps every statistic except the traces.
func TestDisableTraces(t *testing.T) {
	cfgFull, _ := equivScenarios(t)[0].cfg()
	cfgBare, _ := equivScenarios(t)[0].cfg()
	cfgBare.DisableTraces = true
	full, err := Run(cfgFull)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Run(cfgBare)
	if err != nil {
		t.Fatal(err)
	}
	if bare.ArbiterTraces["bankS"] != nil {
		t.Fatal("traces should be nil when disabled")
	}
	full.ArbiterTraces = nil
	bare.ArbiterTraces = nil
	if !reflect.DeepEqual(full, bare) {
		t.Fatalf("non-trace stats diverge:\n full: %+v\n bare: %+v", full, bare)
	}
}

// TestRunMatchesReferenceStreaming drives a three-task streaming
// pipeline — strided reads, OpTransform, channel hand-off, two arbiters
// stepped in sorted order — through both interpreters. This is the shape
// of the FFT case-study stages the hot-loop rewrite optimizes (the FFT
// package itself imports sim, so the case study proper is equivalence-
// checked at the facade layer).
func TestRunMatchesReferenceStreaming(t *testing.T) {
	g := &taskgraph.Graph{
		Name: "stream",
		Segments: []*taskgraph.Segment{
			{Name: "IN", SizeBytes: 4096, WidthBits: 32},
			{Name: "OUT", SizeBytes: 4096, WidthBits: 32},
		},
		Channels: []*taskgraph.Channel{{Name: "c", From: "Load", To: "Store", WidthBits: 32}},
		Tasks: []*taskgraph.Task{
			{Name: "Load", AreaCLBs: 1, Accesses: []taskgraph.Access{{Segment: "IN", Kind: taskgraph.Read}}},
			{Name: "Twiddle", AreaCLBs: 1, Accesses: []taskgraph.Access{{Segment: "IN", Kind: taskgraph.Read}}},
			{Name: "Store", AreaCLBs: 1, Accesses: []taskgraph.Access{{Segment: "OUT", Kind: taskgraph.Write}}},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	double := func(in []int64) []int64 {
		out := make([]int64, len(in))
		for i, v := range in {
			out[i] = 2 * v
		}
		return out
	}
	mk := func() (Config, *Memory) {
		mem := NewMemory()
		for i := 0; i < 32; i++ {
			mem.Write("IN", i, int64(i*3+1))
		}
		return Config{
			Graph: g,
			Tasks: []string{"Load", "Twiddle", "Store"},
			Programs: map[string]behav.Program{
				"Load": {Body: []behav.Instr{
					behav.Req("bankIN"), behav.WaitGrant("bankIN"),
					behav.ReadStride("IN", 0, 2), behav.ReadStride("IN", 1, 2),
					behav.Release("bankIN"),
					{Op: behav.OpTransform, N: 2, Cycles: 2, Fn: double},
					behav.Send("c"), behav.Send("c"),
				}, Repeat: 16},
				"Twiddle": {Body: []behav.Instr{
					behav.Compute(1),
					behav.Req("bankIN"), behav.WaitGrant("bankIN"),
					behav.ReadStride("IN", 0, 1),
					behav.Release("bankIN"),
					behav.Compute(2),
				}, Repeat: 16},
				"Store": {Body: []behav.Instr{
					behav.Recv("c"),
					behav.Req("bankOUT"), behav.WaitGrant("bankOUT"),
					behav.WriteStride("OUT", 0, 2), behav.WriteStride("OUT", 1, 2),
					behav.Release("bankOUT"),
				}, Repeat: 16},
			},
			Arbiters: []partition.ArbiterSpec{
				arbSpec("bankIN", "Load", "Twiddle"),
				arbSpec("bankOUT", "Store", "Load"),
			},
			ResourceOfSegment: map[string]string{"IN": "bankIN", "OUT": "bankOUT"},
			ResourceOfChannel: map[string]string{"c": ""},
			Memory:            mem,
		}, mem
	}
	cfgNew, memNew := mk()
	cfgRef, memRef := mk()
	got, err := Run(cfgNew)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRun(cfgRef)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats diverge:\n new: %+v\n ref: %+v", got, want)
	}
	for _, seg := range []string{"IN", "OUT"} {
		if !reflect.DeepEqual(memNew.Snapshot(seg), memRef.Snapshot(seg)) {
			t.Fatalf("segment %s diverges", seg)
		}
	}
}
