package sim

import (
	"reflect"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/partition"
)

// countedRequester is a closed-loop test source: it requests on its
// single line until it has observed `want` grants through the feedback
// vector, then goes quiet forever. It proves grants really reach the
// generator: without feedback it would never stop requesting.
type countedRequester struct {
	want     int
	observed int
}

func (c *countedRequester) Name() string { return "counted" }
func (c *countedRequester) N() int       { return 1 }
func (c *countedRequester) Reset()       { c.observed = 0 }

func (c *countedRequester) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	if prevGrant.Bit(0) {
		c.observed++
	}
	if c.observed < c.want {
		return 1
	}
	return 0
}

// quietRequester never requests but is not statically silent, so its
// lines are wired and the policy widened.
type quietRequester struct{ n int }

func (q *quietRequester) Name() string                           { return "quiet" }
func (q *quietRequester) N() int                                 { return q.n }
func (q *quietRequester) Reset()                                 {}
func (q *quietRequester) NextBits(arbiter.BitVec) arbiter.BitVec { return 0 }

// silentRequester is the statically silent variant sim must elide.
type silentRequester struct{ quietRequester }

func (s *silentRequester) Silent() bool { return true }

// contendedConfig is the refsim contended scenario: two tasks looping
// Req/WaitGrant/accesses/Release on bankS.
func contendedConfig() Config {
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
	return Config{
		Graph:             g,
		Tasks:             []string{"A", "B"},
		Programs:          map[string]behav.Program{"A": prog(0), "B": prog(100)},
		Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
		ResourceOfSegment: map[string]string{"S": "bankS"},
		Memory:            NewMemory(),
	}
}

// TestContentionClosedLoop: the phantom requester observes exactly the
// grants the run attributes to it, and its request line goes quiet once
// served — grants demonstrably feed back into the generator.
func TestContentionClosedLoop(t *testing.T) {
	cfg := contendedConfig()
	src := &countedRequester{want: 5}
	cfg.Sources = []Source{{Resources: []string{"bankS"}, Gen: src}}
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := stats.Contention["bankS"]
	if cs == nil {
		t.Fatal("no contention stats for bankS")
	}
	if len(cs.Grants) != 1 || len(cs.Waits) != 1 {
		t.Fatalf("contention stats are %d/%d lines, want 1/1", len(cs.Grants), len(cs.Waits))
	}
	if cs.Grants[0] != 5 {
		t.Fatalf("phantom won %d grants, want exactly its demand of 5", cs.Grants[0])
	}
	if src.observed != 5 {
		t.Fatalf("generator observed %d grants through feedback, stats say 5", src.observed)
	}
	// The phantom's grants must also appear in the widened trace, on
	// the phantom column, and member grant accounting must exclude them.
	phantomGrants := 0
	memberGrants := 0
	tr := stats.ArbiterTraces["bankS"]
	if tr.N != 3 {
		t.Fatalf("trace width %d, want members+phantom = 3", tr.N)
	}
	for _, step := range tr.Steps {
		if step.Grant.Bit(2) {
			phantomGrants++
		}
		if step.Grant&0b11 != 0 {
			memberGrants++
		}
	}
	if phantomGrants != 5 {
		t.Fatalf("trace shows %d phantom grants, want 5", phantomGrants)
	}
	if stats.GrantsByRes["bankS"] != memberGrants {
		t.Fatalf("GrantsByRes = %d, want member-only count %d", stats.GrantsByRes["bankS"], memberGrants)
	}
	if !stats.Done {
		t.Fatal("run did not complete")
	}
}

// TestContentionSilentElision: a statically silent source leaves Stats
// (traces included) deeply equal to an uninstrumented run — sim's no-op
// path, independent of any workload import.
func TestContentionSilentElision(t *testing.T) {
	plain, err := Run(contendedConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := contendedConfig()
	cfg.Sources = []Source{{Resources: []string{"bankS"}, Gen: &silentRequester{quietRequester{n: 2}}}}
	quiet, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, quiet) {
		t.Fatalf("silent contention perturbed stats:\nplain: %+v\nquiet: %+v", plain, quiet)
	}
}

// TestContentionErrors: unknown resources, nil generators, zero-line
// generators and a widened arbiter past the bitset kernel's word are
// rejected before any cycle runs.
func TestContentionErrors(t *testing.T) {
	bankS, bankZ := []string{"bankS"}, []string{"bankZ"}
	cases := []struct {
		name string
		src  Source
	}{
		{"unknown-resource", Source{Resources: bankZ, Gen: &quietRequester{n: 1}}},
		// Elision must not skip validation: a typo'd resource errors
		// even when the source is silent.
		{"unknown-resource-silent", Source{Resources: bankZ, Gen: &silentRequester{quietRequester{n: 1}}}},
		{"nil-generator", Source{Resources: bankS}},
		{"zero-lines", Source{Resources: bankS, Gen: &quietRequester{n: 0}}},
		{"no-resource", Source{Gen: &quietRequester{n: 1}}},
		{"past-word", Source{Resources: bankS, Gen: &quietRequester{n: arbiter.MaxN - 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := contendedConfig()
			cfg.Sources = []Source{tc.src}
			if _, err := Run(cfg); err == nil {
				t.Fatal("expected a wiring error")
			}
		})
	}
}

// TestContentionPolicySizing: the policy is sized at the widened line
// count — members plus every attached source's lines — which the
// recorded trace shows, and multiple sources on one resource stack in
// config order.
func TestContentionPolicySizing(t *testing.T) {
	cfg := contendedConfig()
	cfg.Sources = []Source{
		{Resources: []string{"bankS"}, Gen: &quietRequester{n: 2}},
		{Resources: []string{"bankS"}, Gen: &quietRequester{n: 1}},
	}
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr := stats.ArbiterTraces["bankS"]; len(tr.Steps) == 0 || tr.N != 5 {
		t.Fatalf("trace of %d steps records %d lines, want 5 (2 members + 2 + 1 phantom lines)", len(tr.Steps), tr.N)
	}
	cs := stats.Contention["bankS"]
	if cs == nil || len(cs.Grants) != 3 {
		t.Fatalf("contention stats %+v, want 3 phantom lines", cs)
	}
}

// TestQuietCyclesStepPhaseOne: while the only task sits in a
// Compute(500), Run skips task execution but must still step the
// arbiter with phantom lines, refresh the phantom source and record the
// trace on every cycle. An always-requesting phantom line is granted or
// waits on each of them, so its counts sum to the run length, as does
// the trace. The task holds a second arbiter, without phantom lines,
// through the windows; it settles, and its trace and grant count must
// still cover every cycle.
// TestContentionGoldenStats pins the same property end to end (the FFT's
// 255-cycle transforms under five contention specs, traces on).
func TestQuietCyclesStepPhaseOne(t *testing.T) {
	spec, err := arbiter.ParsePolicySpec("preemptive:4")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{
		Graph: simpleGraph(),
		Tasks: []string{"A"},
		Programs: map[string]behav.Program{"A": {Body: []behav.Instr{
			behav.Req("bankS"), behav.WaitGrant("bankS"), behav.WriteImm("S", 0, 1), behav.Release("bankS"),
			behav.Req("bankT"), behav.WaitGrant("bankT"), behav.Compute(500), behav.Release("bankT"),
		}, Repeat: 2}},
		Arbiters:          []partition.ArbiterSpec{arbSpec("bankT", "A", "B"), arbSpec("bankS", "A", "B")},
		ResourceOfSegment: map[string]string{"S": "bankS"},
		Policy:            spec,
		Sources:           []Source{{Resources: []string{"bankS"}, Gen: &greedyShared{n: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Done || stats.Cycles < 1000 {
		t.Fatalf("run done=%v after %d cycles, want two Compute(500) iterations done", stats.Done, stats.Cycles)
	}
	cs := stats.Contention["bankS"]
	if got := cs.Grants[0] + cs.Waits[0]; got != stats.Cycles {
		t.Fatalf("phantom grants+waits = %d+%d = %d, want one per cycle (%d)", cs.Grants[0], cs.Waits[0], got, stats.Cycles)
	}
	// bankT has no phantom lines and A holds it alone through each
	// window, so it settles; its trace and grant count still take
	// every cycle.
	for _, res := range []string{"bankS", "bankT"} {
		if got := len(stats.ArbiterTraces[res].Steps); got != stats.Cycles {
			t.Fatalf("%s trace has %d steps, want one per cycle (%d)", res, got, stats.Cycles)
		}
	}
	held := 0
	for _, st := range stats.ArbiterTraces["bankT"].Steps {
		held += int(st.Grant & 1)
	}
	if held < 1000 || stats.GrantsByRes["bankT"] != held {
		t.Fatalf("bankT granted A %d times, %d cycles in its trace; want at least 1000 of both, equal", stats.GrantsByRes["bankT"], held)
	}
}
