package sim

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/fsm"
	"sparcs/internal/partition"
	"sparcs/internal/taskgraph"
)

// FuzzRunMatchesReference decodes bytes into a source-free Config (see
// decodeFuzzConfig) and runs it three ways: traced through Run, through
// referenceRun, and untraced through Run. The traced run must equal the
// reference, Stats and memory images alike; the untraced run must equal
// the traced one with every trace dropped. Programs mix delays from -1
// up (1 and 2 open and close quiet windows), hold-through bursts,
// strided accesses and channel traffic under every behavioral policy
// and the generated hardware, with a watchdog of 1 to 20,000 cycles that
// can land inside a quiet window. The seed corpus is every
// equivScenarios entry, encoded by encodeFuzzConfig.
//
//	go test -run '^$' -fuzz '^FuzzRunMatchesReference$' -fuzztime 15s ./internal/sim/
func FuzzRunMatchesReference(f *testing.F) {
	for _, sc := range equivScenarios(f) {
		cfg, mem := sc.cfg()
		data, err := encodeFuzzConfig(cfg, mem)
		if err != nil {
			f.Fatalf("%s: %v", sc.name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, mem, ok := decodeFuzzConfig(data)
		if !ok {
			return
		}
		refCfg, refMem, _ := decodeFuzzConfig(data)
		bareCfg, bareMem, _ := decodeFuzzConfig(data)
		bareCfg.DisableTraces = true

		got, err := Run(cfg)
		want, refErr := referenceRun(refCfg)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("error mismatch: run=%v ref=%v", err, refErr)
		}
		if err != nil {
			return
		}
		bare, err := Run(bareCfg)
		if err != nil {
			t.Fatalf("untraced run failed where the traced run did not: %v", err)
		}
		sortViolations(got)
		sortViolations(want)
		sortViolations(bare)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stats diverge from the reference:\n run: %+v\n ref: %+v", got, want)
		}
		dropped := *got
		dropped.ArbiterTraces = maps.Clone(got.ArbiterTraces)
		for r := range dropped.ArbiterTraces {
			dropped.ArbiterTraces[r] = nil
		}
		if !reflect.DeepEqual(bare, &dropped) {
			t.Fatalf("untraced stats diverge from the traced run:\n bare: %+v\n traced: %+v", bare, &dropped)
		}
		for _, s := range cfg.Graph.Segments {
			img := mem.Snapshot(s.Name)
			if ref := refMem.Snapshot(s.Name); !reflect.DeepEqual(img, ref) {
				t.Fatalf("segment %s diverges from the reference: %v vs %v", s.Name, img, ref)
			}
			if b := bareMem.Snapshot(s.Name); !reflect.DeepEqual(img, b) {
				t.Fatalf("segment %s diverges untraced: %v vs %v", s.Name, b, img)
			}
		}
	})
}

// sortViolations orders each cycle's violations by kind and resource.
// referenceRun reports a cycle's port conflicts in map order, so two
// conflicting resources in one cycle come out in either order; the sort
// is stable, so the task order of one resource's no-grant entries stays.
func sortViolations(s *Stats) {
	slices.SortStableFunc(s.Violations, func(a, b Violation) int {
		return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Resource, b.Resource))
	})
}

// The decoded vocabulary. Segments map to banks and channels to links;
// arbiters and Req/WaitGrant/Release name any resource.
var (
	fuzzResources = []string{"bank0", "bank1", "bank2", "link0", "link1"}
	fuzzPolicies  = []string{"round-robin", "fifo", "priority", "random", "preemptive", "wrr", "hier", "fsm", "netlist"}
	fuzzEncodings = []fsm.Encoding{fsm.OneHot, fsm.Compact, fsm.Gray}
	fuzzFns       = []func([]int64) []int64{nil, fuzzInc, fuzzDouble}
)

func fuzzInc(in []int64) []int64 {
	out := make([]int64, len(in))
	for i, v := range in {
		out[i] = v + 1
	}
	return out
}

func fuzzDouble(in []int64) []int64 {
	out := make([]int64, len(in))
	for i, v := range in {
		out[i] = 2 * v
	}
	return out
}

// Instruction codes of the fuzz format. fuzzAcquire is Req followed by
// WaitGrant, the first half of a hold-through burst.
const (
	fuzzCompute = iota
	fuzzTransform
	fuzzReq
	fuzzWaitGrant
	fuzzRelease
	fuzzRead
	fuzzWrite
	fuzzSend
	fuzzRecv
	fuzzAcquire
)

const (
	fuzzMaxTasks  = 6
	fuzzMaxLines  = 16 // arbiter width, fsm and netlist included
	fuzzMaxBody   = 12
	fuzzMaxCycles = 20_000
	fuzzDelays    = 2100 // delays decode to [-1, fuzzDelays-2]
)

// fuzzReader hands out the fuzz input one field at a time; an exhausted
// input reads as zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	v := (*r)[0]
	*r = (*r)[1:]
	return int(v)
}

func (r *fuzzReader) u16() int { return r.next()<<8 | r.next() }

func (r *fuzzReader) delay() int { return r.u16()%fuzzDelays - 1 }

// decodeFuzzConfig builds a source-free Config and its fresh Memory.
// The format, one byte a field unless marked u16:
//
//	tasks segments channels policy param maxCycles(u16)
//	per graph task: dependency mask over the other tasks
//	per segment: bank (0 = private) and prefill/2
//	per channel: from, to, link (0 = on-chip)
//	stage task count, then that many task indices
//	arbiter count, then per arbiter: resource, width, members
//	per stage task: repeat, body length, instructions
//
// ok is false when the dependencies form a cycle.
func decodeFuzzConfig(data []byte) (cfg Config, mem *Memory, ok bool) {
	r := fuzzReader(data)
	nTasks := 1 + r.next()%fuzzMaxTasks
	nSegs := 1 + r.next()%3
	nChans := r.next() % 3
	if nTasks == 1 {
		nChans = 0 // a channel needs two distinct tasks
	}
	spec := &arbiter.PolicySpec{Kind: fuzzPolicies[r.next()%len(fuzzPolicies)]}
	param := r.next()
	switch spec.Kind {
	case "random":
		spec.Seed = uint16(1 + param)
	case "preemptive":
		spec.MaxHold = 1 + param%8
	case "wrr":
		spec.Weight = 1 + param%8
	case "hier":
		spec.Groups = 1 + param%4
	case "netlist":
		spec.Encoding = fuzzEncodings[param%len(fuzzEncodings)]
	}
	cfg.Policy = spec
	cfg.MaxCycles = 1 + r.u16()%fuzzMaxCycles

	g := &taskgraph.Graph{Name: "fuzz"}
	for i := 0; i < nTasks; i++ {
		g.Tasks = append(g.Tasks, &taskgraph.Task{Name: fmt.Sprintf("t%d", i), AreaCLBs: 1})
	}
	for i, t := range g.Tasks {
		mask := r.next()
		for j := range g.Tasks {
			if j != i && mask&(1<<j) != 0 {
				t.Deps = append(t.Deps, g.Tasks[j].Name)
			}
		}
	}
	mem = NewMemory()
	cfg.ResourceOfSegment = map[string]string{}
	for i := 0; i < nSegs; i++ {
		name := fmt.Sprintf("s%d", i)
		g.Segments = append(g.Segments, &taskgraph.Segment{Name: name, SizeBytes: 4096, WidthBits: 32})
		if bank := r.next() % 4; bank > 0 {
			cfg.ResourceOfSegment[name] = fuzzResources[bank-1]
		}
		for a, n := 0, 2*r.next(); a < n; a++ {
			mem.Write(name, a, int64(1000+a))
		}
	}
	cfg.ResourceOfChannel = map[string]string{}
	for c := 0; c < nChans; c++ {
		name := fmt.Sprintf("c%d", c)
		from := r.next() % nTasks
		to := (from + 1 + r.next()%(nTasks-1)) % nTasks
		g.Channels = append(g.Channels, &taskgraph.Channel{Name: name, From: g.Tasks[from].Name, To: g.Tasks[to].Name, WidthBits: 32})
		if link := r.next() % 3; link > 0 {
			cfg.ResourceOfChannel[name] = fuzzResources[2+link]
		}
	}
	if g.Validate() != nil {
		return Config{}, nil, false
	}
	cfg.Graph = g
	cfg.Memory = mem

	for n := 1 + r.next()%nTasks; n > 0; n-- {
		if name := g.Tasks[r.next()%nTasks].Name; !slices.Contains(cfg.Tasks, name) {
			cfg.Tasks = append(cfg.Tasks, name)
		}
	}
	for n := r.next() % 4; n > 0; n-- {
		res := fuzzResources[r.next()%len(fuzzResources)]
		// Up to 8 lines, or up to 16 from a width byte of 0xf0 and
		// above: a 16-line fsm or netlist arbiter takes up to a second
		// to build, and each input builds every arbiter three times.
		width := r.next()
		if width < 0xf0 {
			width = 2 + width%7
		} else {
			width = 2 + width%(fuzzMaxLines-1)
		}
		var members []string
		for k := 0; k < width; k++ {
			name := fmt.Sprintf("x%d", k)
			if m := r.next() % (nTasks + fuzzMaxLines); m < nTasks {
				name = g.Tasks[m].Name
			}
			if !slices.Contains(members, name) {
				members = append(members, name)
			}
		}
		for k := 0; len(members) < arbiter.MinN; k++ {
			if name := fmt.Sprintf("y%d", k); !slices.Contains(members, name) {
				members = append(members, name)
			}
		}
		if !slices.ContainsFunc(cfg.Arbiters, func(a partition.ArbiterSpec) bool { return a.Resource == res }) {
			cfg.Arbiters = append(cfg.Arbiters, partition.ArbiterSpec{Resource: res, Members: members})
		}
	}

	cfg.Programs = map[string]behav.Program{}
	for _, name := range cfg.Tasks {
		prog := behav.Program{Repeat: 1 + r.next()%4}
		for n := 1 + r.next()%fuzzMaxBody; n > 0; n-- {
			prog.Body = append(prog.Body, decodeFuzzInstr(&r, nSegs, nChans)...)
		}
		cfg.Programs[name] = prog
	}
	return cfg, mem, true
}

// decodeFuzzInstr decodes one instruction code and its operands. Without
// declared channels a send or receive decodes to a one-cycle compute.
func decodeFuzzInstr(r *fuzzReader, nSegs, nChans int) []behav.Instr {
	op := r.next() % (fuzzAcquire + 1)
	res := func() string { return fuzzResources[r.next()%len(fuzzResources)] }
	seg := func() string { return fmt.Sprintf("s%d", r.next()%nSegs) }
	ch := func() (string, bool) {
		c := r.next()
		return fmt.Sprintf("c%d", c%max(nChans, 1)), nChans > 0
	}
	switch op {
	case fuzzCompute:
		return []behav.Instr{behav.Compute(r.delay())}
	case fuzzTransform:
		n := r.next() % 5
		return []behav.Instr{behav.Transform(n, r.delay(), fuzzFns[r.next()%len(fuzzFns)])}
	case fuzzReq:
		return []behav.Instr{behav.Req(res())}
	case fuzzWaitGrant:
		return []behav.Instr{behav.WaitGrant(res())}
	case fuzzRelease:
		return []behav.Instr{behav.Release(res())}
	case fuzzRead:
		s := seg()
		addr := r.u16() % 1024
		return []behav.Instr{behav.ReadStride(s, addr, r.next()%4)}
	case fuzzWrite:
		s := seg()
		addr := r.u16() % 1024
		in := behav.WriteStride(s, addr, r.next()%4)
		in.Val = int64(r.next())
		return []behav.Instr{in}
	case fuzzSend:
		c, ok := ch()
		v := int64(r.next())
		if !ok {
			return []behav.Instr{behav.Compute(1)}
		}
		return []behav.Instr{behav.SendImm(c, v)}
	case fuzzRecv:
		c, ok := ch()
		if !ok {
			return []behav.Instr{behav.Compute(1)}
		}
		return []behav.Instr{behav.Recv(c)}
	default: // fuzzAcquire
		name := res()
		return []behav.Instr{behav.Req(name), behav.WaitGrant(name)}
	}
}

// encodeFuzzConfig writes cfg in decodeFuzzConfig's format under the
// format's canonical names (tasks t<i>, segments s<i>, banks, links).
// Fields beyond the format's ranges are clamped: Repeat to 1–4, delays
// to the decoded range, MaxCycles (0 included) to 20,000, and prefill to
// the first written addresses of each segment, rewritten as 1000+addr.
// Any transform function encodes as fuzzInc. A Config the format cannot
// express (more than six tasks, three segments, two channels, three
// arbiters or twelve body instructions) is an error.
func encodeFuzzConfig(cfg Config, mem *Memory) ([]byte, error) {
	g := cfg.Graph
	if len(g.Tasks) > fuzzMaxTasks || len(g.Segments) > 3 || len(g.Channels) > 2 || len(cfg.Arbiters) > 3 {
		return nil, fmt.Errorf("config exceeds the fuzz format's sizes")
	}
	var out []byte
	put := func(vs ...int) {
		for _, v := range vs {
			out = append(out, byte(v))
		}
	}
	put16 := func(v int) { put(v>>8, v&0xff) }
	delay := func(d int) { put16(min(max(d, -1), fuzzDelays-2) + 1) }
	task := map[string]int{}
	for i, t := range g.Tasks {
		task[t.Name] = i
	}
	seg := map[string]int{}
	for i, s := range g.Segments {
		seg[s.Name] = i
	}
	ch := map[string]int{}
	for i, c := range g.Channels {
		ch[c.Name] = i
	}
	// Resource names map to banks in order of first use by a segment,
	// to links by a channel, and to free banks otherwise.
	res := map[string]int{}
	banks, links := 0, 3
	bank := func(name string) int {
		if _, ok := res[name]; !ok {
			res[name] = banks
			banks++
		}
		return res[name]
	}
	for _, s := range g.Segments {
		if r := cfg.ResourceOfSegment[s.Name]; r != "" {
			bank(r)
		}
	}
	for _, c := range g.Channels {
		if r := cfg.ResourceOfChannel[c.Name]; r != "" {
			if _, ok := res[r]; !ok {
				res[r] = links
				links++
			}
		}
	}
	for _, a := range cfg.Arbiters {
		bank(a.Resource)
	}
	for _, name := range cfg.Tasks {
		for _, in := range cfg.Programs[name].Body {
			if in.Op == behav.OpReq || in.Op == behav.OpWaitGrant || in.Op == behav.OpRelease {
				bank(in.Res)
			}
		}
	}
	if banks > 3 || links > 5 {
		return nil, fmt.Errorf("config uses more resources than the fuzz format names")
	}

	policy := cfg.Policy
	if policy == nil {
		policy = &roundRobin
	}
	kind := slices.Index(fuzzPolicies, policy.Kind)
	if kind < 0 {
		return nil, fmt.Errorf("policy %s is outside the fuzz format", policy)
	}
	param := 0
	switch policy.Kind {
	case "random":
		param = int(policy.Seed) - 1
	case "preemptive":
		param = policy.MaxHold - 1
	case "wrr":
		param = policy.Weight - 1
	case "hier":
		param = policy.Groups - 1
	case "netlist":
		param = slices.Index(fuzzEncodings, policy.Encoding)
	}
	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 || maxCycles > fuzzMaxCycles {
		maxCycles = fuzzMaxCycles
	}
	put(len(g.Tasks)-1, len(g.Segments)-1, len(g.Channels), kind, param)
	put16(maxCycles - 1)

	for _, t := range g.Tasks {
		mask := 0
		for _, d := range t.Deps {
			mask |= 1 << task[d]
		}
		put(mask)
	}
	for _, s := range g.Segments {
		b := 0
		if r := cfg.ResourceOfSegment[s.Name]; r != "" {
			b = res[r] + 1
		}
		put(b, min(len(mem.Snapshot(s.Name))/2, 255))
	}
	for _, c := range g.Channels {
		from, to := task[c.From], task[c.To]
		link := 0
		if r := cfg.ResourceOfChannel[c.Name]; r != "" {
			link = res[r] - 2
		}
		put(from, (to-from-1+len(g.Tasks))%len(g.Tasks), link)
	}
	put(len(cfg.Tasks) - 1)
	for _, name := range cfg.Tasks {
		put(task[name])
	}
	put(len(cfg.Arbiters))
	for _, a := range cfg.Arbiters {
		width := len(a.Members) - 2
		if width > 6 {
			width += 0xf0
		}
		put(res[a.Resource], width)
		extra := 0
		for _, m := range a.Members {
			if i, ok := task[m]; ok {
				put(i)
			} else {
				put(len(g.Tasks) + extra)
				extra++
			}
		}
	}
	for _, name := range cfg.Tasks {
		p := cfg.Programs[name]
		if len(p.Body) > fuzzMaxBody {
			return nil, fmt.Errorf("task %s has %d instructions, the fuzz format at most %d", name, len(p.Body), fuzzMaxBody)
		}
		put(min(max(p.Repeat, 1), 4)-1, len(p.Body)-1)
		for _, in := range p.Body {
			switch in.Op {
			case behav.OpCompute:
				put(fuzzCompute)
				delay(in.N)
			case behav.OpTransform:
				fn := 0
				if in.Fn != nil {
					fn = 1
				}
				put(fuzzTransform, in.N)
				delay(in.Cycles)
				put(fn)
			case behav.OpReq, behav.OpWaitGrant, behav.OpRelease:
				op := map[behav.Op]int{behav.OpReq: fuzzReq, behav.OpWaitGrant: fuzzWaitGrant, behav.OpRelease: fuzzRelease}[in.Op]
				put(op, res[in.Res])
			case behav.OpRead:
				put(fuzzRead, seg[in.Res])
				put16(in.Addr)
				put(in.Stride)
			case behav.OpWrite:
				put(fuzzWrite, seg[in.Res])
				put16(in.Addr)
				put(in.Stride, int(in.Val))
			case behav.OpSend:
				put(fuzzSend, ch[in.Res], int(in.Val))
			case behav.OpRecv:
				put(fuzzRecv, ch[in.Res])
			default:
				return nil, fmt.Errorf("task %s: op %s is outside the fuzz format", name, in.Op)
			}
		}
	}
	return out, nil
}
