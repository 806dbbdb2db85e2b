package sim

import (
	"fmt"
	"reflect"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/partition"
	"sparcs/internal/taskgraph"
)

// simpleGraph builds a two-writer graph over segment S.
func simpleGraph() *taskgraph.Graph {
	g := &taskgraph.Graph{
		Name: "simple",
		Segments: []*taskgraph.Segment{
			{Name: "S", SizeBytes: 1024, WidthBits: 32},
		},
		Tasks: []*taskgraph.Task{
			{Name: "A", AreaCLBs: 10, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "B", AreaCLBs: 10, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
		},
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

func arbSpec(res string, members ...string) partition.ArbiterSpec {
	return partition.ArbiterSpec{Resource: res, Members: members}
}

func TestComputeTiming(t *testing.T) {
	g := simpleGraph()
	stats, err := Run(Config{
		Graph: g,
		Tasks: []string{"A"},
		Programs: map[string]behav.Program{
			"A": {Body: []behav.Instr{behav.Compute(10)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Done || stats.Cycles != 10 {
		t.Fatalf("cycles = %d done=%v, want 10 done", stats.Cycles, stats.Done)
	}
}

func TestMemoryDataFlow(t *testing.T) {
	g := simpleGraph()
	mem := NewMemory()
	_, err := Run(Config{
		Graph: g,
		Tasks: []string{"A"},
		Programs: map[string]behav.Program{
			"A": {Body: []behav.Instr{
				behav.WriteImm("S", 3, 42),
				behav.Read("S", 3),
				behav.Write("S", 4), // copies the read value
			}},
		},
		Memory: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Read("S", 4); got != 42 {
		t.Fatalf("copied value = %d, want 42", got)
	}
}

func TestStridedAddressing(t *testing.T) {
	g := simpleGraph()
	mem := NewMemory()
	_, err := Run(Config{
		Graph: g,
		Tasks: []string{"A"},
		Programs: map[string]behav.Program{
			"A": {Body: []behav.Instr{
				{Op: behav.OpWrite, Res: "S", Addr: 0, Stride: 4, Val: 7},
			}, Repeat: 3},
		},
		Memory: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []int{0, 4, 8} {
		if mem.Read("S", addr) != 7 {
			t.Fatalf("addr %d not written", addr)
		}
	}
}

func TestArbitratedAccessOverheadIsTwoCycles(t *testing.T) {
	// Paper Section 4.3: with an immediate grant, each arbitrated access
	// group costs exactly two extra cycles (Req and Release).
	g := simpleGraph()
	bare := map[string]behav.Program{
		"A": {Body: []behav.Instr{behav.WriteImm("S", 0, 1), behav.WriteImm("S", 1, 2)}},
	}
	wrapped := map[string]behav.Program{
		"A": {Body: []behav.Instr{
			behav.Req("bankS"), behav.WaitGrant("bankS"),
			behav.WriteImm("S", 0, 1), behav.WriteImm("S", 1, 2),
			behav.Release("bankS"),
		}},
	}
	sBare, err := Run(Config{Graph: g, Tasks: []string{"A"}, Programs: bare})
	if err != nil {
		t.Fatal(err)
	}
	sWrapped, err := Run(Config{
		Graph:             g,
		Tasks:             []string{"A"},
		Programs:          wrapped,
		Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
		ResourceOfSegment: map[string]string{"S": "bankS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sWrapped.Cycles-sBare.Cycles != 2 {
		t.Fatalf("overhead = %d cycles, want exactly 2 (bare %d, wrapped %d)",
			sWrapped.Cycles-sBare.Cycles, sBare.Cycles, sWrapped.Cycles)
	}
}

func TestContentionSerializesWithoutViolations(t *testing.T) {
	g := simpleGraph()
	prog := func(base int) behav.Program {
		return behav.Program{Body: []behav.Instr{
			behav.Req("bankS"), behav.WaitGrant("bankS"),
			behav.WriteImm("S", base, int64(base)), behav.WriteImm("S", base+1, int64(base+1)),
			behav.Release("bankS"),
		}, Repeat: 20}
	}
	mem := NewMemory()
	stats, err := Run(Config{
		Graph:             g,
		Tasks:             []string{"A", "B"},
		Programs:          map[string]behav.Program{"A": prog(0), "B": prog(100)},
		Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
		ResourceOfSegment: map[string]string{"S": "bankS"},
		Memory:            mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Done {
		t.Fatal("deadlock under contention")
	}
	if len(stats.Violations) != 0 {
		t.Fatalf("violations = %v", stats.Violations)
	}
	if mem.Read("S", 0) != 0 || mem.Read("S", 100) != 100 {
		t.Fatal("data corrupted under contention")
	}
	// The arbiter trace itself must satisfy all fairness properties.
	trace := stats.ArbiterTraces["bankS"]
	if err := arbiter.CheckAll(2, trace.Steps); err != nil {
		t.Fatal(err)
	}
}

func TestUnarbitratedSharingDetected(t *testing.T) {
	// Ablation: remove the protocol and the simulator must flag
	// port conflicts.
	g := simpleGraph()
	prog := func(base int) behav.Program {
		return behav.Program{Body: []behav.Instr{
			behav.WriteImm("S", base, 1),
		}, Repeat: 10}
	}
	stats, err := Run(Config{
		Graph:             g,
		Tasks:             []string{"A", "B"},
		Programs:          map[string]behav.Program{"A": prog(0), "B": prog(100)},
		ResourceOfSegment: map[string]string{"S": "bankS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Violations) == 0 {
		t.Fatal("expected port-conflict violations without arbitration")
	}
	if stats.Violations[0].Kind != "port-conflict" {
		t.Fatalf("violation kind = %s", stats.Violations[0].Kind)
	}
}

func TestNoGrantAccessDetected(t *testing.T) {
	g := simpleGraph()
	stats, err := Run(Config{
		Graph: g,
		Tasks: []string{"A"},
		Programs: map[string]behav.Program{
			"A": {Body: []behav.Instr{behav.WriteImm("S", 0, 1)}}, // member but no Req
		},
		Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
		ResourceOfSegment: map[string]string{"S": "bankS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range stats.Violations {
		if v.Kind == "no-grant" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected no-grant violation, got %v", stats.Violations)
	}
}

func TestControlDependencyHoldsTask(t *testing.T) {
	g := &taskgraph.Graph{
		Name:     "dep",
		Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 64, WidthBits: 32}},
		Tasks: []*taskgraph.Task{
			{Name: "P", AreaCLBs: 1, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "C", AreaCLBs: 1, Deps: []string{"P"}, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Read}}},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	stats, err := Run(Config{
		Graph: g,
		Tasks: []string{"P", "C"},
		Programs: map[string]behav.Program{
			"P": {Body: []behav.Instr{behav.Compute(50), behav.WriteImm("S", 0, 99)}},
			"C": {Body: []behav.Instr{behav.Read("S", 0), behav.Write("S", 1)}},
		},
		Memory: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Done {
		t.Fatal("did not finish")
	}
	// C must observe P's value, proving it started after P completed.
	if got := mem.Read("S", 1); got != 99 {
		t.Fatalf("consumer read %d, want 99", got)
	}
	if stats.TaskFinish["C"] <= stats.TaskFinish["P"] {
		t.Fatal("consumer finished before producer")
	}
}

func TestChannelRegisterSemantics(t *testing.T) {
	// Table 1: the receive register holds the value indefinitely, so a
	// late receiver still sees it even after the channel was reused by a
	// different logical transfer.
	g := &taskgraph.Graph{
		Name:     "chan",
		Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 64, WidthBits: 32}},
		Channels: []*taskgraph.Channel{
			{Name: "c1", From: "T1", To: "T2", WidthBits: 16},
			{Name: "c4", From: "T4", To: "T3", WidthBits: 16},
		},
		Tasks: []*taskgraph.Task{
			{Name: "T1", AreaCLBs: 1},
			{Name: "T2", AreaCLBs: 1},
			{Name: "T3", AreaCLBs: 1},
			{Name: "T4", AreaCLBs: 1},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	stats, err := Run(Config{
		Graph: g,
		Tasks: []string{"T1", "T2", "T3", "T4"},
		Programs: map[string]behav.Program{
			// T1 sends 10 on c1 at time 1.
			"T1": {Body: []behav.Instr{behav.SendImm("c1", 10)}},
			// T4 sends 102 on c4 (sharing the same physical channel in
			// the Table 1 scenario) soon after.
			"T4": {Body: []behav.Instr{behav.Compute(2), behav.SendImm("c4", 102)}},
			// T2 reads c1 late — after T4's transfer — and must still see 10.
			"T2": {Body: []behav.Instr{behav.Compute(10), behav.Recv("c1"), behav.Write("S", 0)}},
			"T3": {Body: []behav.Instr{behav.Recv("c4"), behav.Write("S", 1)}},
		},
		Memory: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Done {
		t.Fatal("did not finish")
	}
	if got := mem.Read("S", 0); got != 10 {
		t.Fatalf("T2 received %d, want 10 (register must hold the value)", got)
	}
	if got := mem.Read("S", 1); got != 102 {
		t.Fatalf("T3 received %d, want 102", got)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	g := &taskgraph.Graph{
		Name:     "block",
		Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 64, WidthBits: 32}},
		Channels: []*taskgraph.Channel{{Name: "c", From: "P", To: "C", WidthBits: 8}},
		Tasks: []*taskgraph.Task{
			{Name: "P", AreaCLBs: 1},
			{Name: "C", AreaCLBs: 1},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{
		Graph: g,
		Tasks: []string{"P", "C"},
		Programs: map[string]behav.Program{
			"P": {Body: []behav.Instr{behav.Compute(30), behav.SendImm("c", 5)}},
			"C": {Body: []behav.Instr{behav.Recv("c")}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Done {
		t.Fatal("did not finish")
	}
	if stats.TaskFinish["C"] < 30 {
		t.Fatalf("receiver finished at %d, before the send", stats.TaskFinish["C"])
	}
}

// TestRunRejectsUnknownChannels: a send or receive on a channel the
// graph does not declare fails Run at setup, before any cycle runs,
// with an error naming the task, the instruction, the op and the
// channel.
func TestRunRejectsUnknownChannels(t *testing.T) {
	for _, in := range []behav.Instr{behav.SendImm("nope", 1), behav.Recv("nope")} {
		_, err := Run(Config{
			Graph:    simpleGraph(),
			Tasks:    []string{"A"},
			Programs: map[string]behav.Program{"A": {Body: []behav.Instr{behav.Compute(1), in}}},
		})
		want := fmt.Sprintf("sim: task A instruction 1 (%s): unknown channel nope", in.Op)
		if err == nil || err.Error() != want {
			t.Errorf("Run = %v, want %q", err, want)
		}
	}
}

// TestNewRejectsUnsupportedOps: an op outside OpCompute..OpTransform
// fails New, so Run cannot fail. The task would reach it only after
// 1000 cycles, far past the 10-cycle watchdog.
func TestNewRejectsUnsupportedOps(t *testing.T) {
	_, err := New(Config{
		Graph:     simpleGraph(),
		Tasks:     []string{"A"},
		Programs:  map[string]behav.Program{"A": {Body: []behav.Instr{behav.Compute(1000), {Op: behav.Op(99)}}}},
		MaxCycles: 10,
	})
	want := fmt.Sprintf("sim: task A instruction 1: unsupported op %v", behav.Op(99))
	if err == nil || err.Error() != want {
		t.Errorf("New = %v, want %q", err, want)
	}
}

func TestDeadlockWatchdog(t *testing.T) {
	g := &taskgraph.Graph{
		Name:     "dead",
		Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 64, WidthBits: 32}},
		Channels: []*taskgraph.Channel{{Name: "c", From: "A", To: "B", WidthBits: 8}},
		Tasks:    []*taskgraph.Task{{Name: "A", AreaCLBs: 1}, {Name: "B", AreaCLBs: 1}},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{
		Graph: g,
		Tasks: []string{"B"},
		Programs: map[string]behav.Program{
			"B": {Body: []behav.Instr{behav.Recv("c")}}, // nobody sends
		},
		MaxCycles: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Done {
		t.Fatal("should not finish")
	}
	last := stats.Violations[len(stats.Violations)-1]
	if last.Kind != "deadlock-or-timeout" {
		t.Fatalf("violation = %+v", last)
	}
}

// TestPolicySubstitution runs the same contention scenario under the
// behavioral, FSM-reference, and gate-level arbiter implementations and
// requires identical schedules.
func TestPolicySubstitution(t *testing.T) {
	g := simpleGraph()
	mkProg := func(base int) behav.Program {
		return behav.Program{Body: []behav.Instr{
			behav.Req("bankS"), behav.WaitGrant("bankS"),
			behav.WriteImm("S", base, 1), behav.WriteImm("S", base+1, 2),
			behav.Release("bankS"),
			behav.Compute(3),
		}, Repeat: 15}
	}
	run := func(policy string) *Stats {
		var spec *arbiter.PolicySpec
		if policy != "" {
			var err error
			if spec, err = arbiter.ParsePolicySpec(policy); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := Run(Config{
			Graph:             g,
			Tasks:             []string{"A", "B"},
			Programs:          map[string]behav.Program{"A": mkProg(0), "B": mkProg(50)},
			Arbiters:          []partition.ArbiterSpec{arbSpec("bankS", "A", "B")},
			ResourceOfSegment: map[string]string{"S": "bankS"},
			Policy:            spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	behavioral := run("")
	fsmBacked := run("fsm")
	gateBacked := run("netlist:one-hot")
	if behavioral.Cycles != fsmBacked.Cycles || behavioral.Cycles != gateBacked.Cycles {
		t.Fatalf("cycle counts diverge: behavioral %d, fsm %d, gates %d",
			behavioral.Cycles, fsmBacked.Cycles, gateBacked.Cycles)
	}
	for _, s := range []*Stats{behavioral, fsmBacked, gateBacked} {
		if len(s.Violations) != 0 {
			t.Fatalf("violations: %v", s.Violations)
		}
	}
}

func TestMemorySnapshotAndPersistence(t *testing.T) {
	mem := NewMemory()
	mem.Write("S", 1, 5)
	snap := mem.Snapshot("S")
	if snap[1] != 5 {
		t.Fatal("snapshot missing value")
	}
	mem.Write("S", 1, 6)
	if snap[1] != 5 {
		t.Fatal("snapshot should be a copy")
	}
}

func TestMemoryDenseAndSparse(t *testing.T) {
	mem := NewMemory()
	// Dense path: small addresses, including an explicit zero write that
	// must still appear in the snapshot.
	mem.Write("S", 0, 0)
	mem.Write("S", 7, 70)
	// Sparse fallbacks: negative and beyond the dense page cap.
	mem.Write("S", -3, -30)
	mem.Write("S", densePageCap+5, 99)
	if got := mem.Read("S", 7); got != 70 {
		t.Fatalf("dense read = %d", got)
	}
	if got := mem.Read("S", -3); got != -30 {
		t.Fatalf("sparse read = %d", got)
	}
	if got := mem.Read("S", densePageCap+5); got != 99 {
		t.Fatalf("sparse read = %d", got)
	}
	if got := mem.Read("S", 512); got != 0 {
		t.Fatalf("unwritten dense read = %d, want 0", got)
	}
	if got := mem.Read("missing", 0); got != 0 {
		t.Fatalf("unknown segment read = %d, want 0", got)
	}
	snap := mem.Snapshot("S")
	want := map[int]int64{0: 0, 7: 70, -3: -30, densePageCap + 5: 99}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %v, want %v", snap, want)
	}
	for a, v := range want {
		if got, ok := snap[a]; !ok || got != v {
			t.Fatalf("snapshot[%d] = %d,%v want %d", a, got, ok, v)
		}
	}
	if got := mem.Snapshot("missing"); len(got) != 0 {
		t.Fatalf("unknown segment snapshot = %v", got)
	}
}

// TestMemoryClone: a clone equals its source, sparse entries and
// interned-but-empty segments included, and the two share no storage.
func TestMemoryClone(t *testing.T) {
	mem := NewMemory()
	mem.Write("S", 0, 0)
	mem.Write("S", 7, 70)
	mem.Write("S", -3, -30)
	mem.Write("S", densePageCap+5, 99)
	mem.SegID("empty")
	c := mem.Clone()
	if !reflect.DeepEqual(c, mem) {
		t.Fatal("clone differs from its source")
	}
	if !reflect.DeepEqual(NewMemory().Clone(), NewMemory()) {
		t.Fatal("clone of a blank memory differs from a blank memory")
	}
	c.Write("S", 7, 71)
	c.Write("S", densePageCap+5, 100)
	c.Write("empty", 1, 1)
	mem.Write("S", 0, 1)
	mem.Write("S", -3, -31)
	if got := mem.Read("S", 7); got != 70 {
		t.Fatalf("dense write to the clone shows in the source: %d", got)
	}
	if got := mem.Read("S", densePageCap+5); got != 99 {
		t.Fatalf("sparse write to the clone shows in the source: %d", got)
	}
	if got := mem.Snapshot("empty"); len(got) != 0 {
		t.Fatalf("write to the clone's empty segment shows in the source: %v", got)
	}
	if got := c.Read("S", 0); got != 0 {
		t.Fatalf("dense write to the source shows in the clone: %d", got)
	}
	if got := c.Read("S", -3); got != -30 {
		t.Fatalf("sparse write to the source shows in the clone: %d", got)
	}
}

func TestMemoryIDFastPath(t *testing.T) {
	mem := NewMemory()
	id := mem.SegID("S")
	if id2 := mem.SegID("S"); id2 != id {
		t.Fatalf("interning not stable: %d vs %d", id, id2)
	}
	mem.WriteID(id, 3, 33)
	if got := mem.ReadID(id, 3); got != 33 {
		t.Fatalf("ReadID = %d", got)
	}
	if got := mem.Read("S", 3); got != 33 {
		t.Fatal("string and ID views must alias the same storage")
	}
}
