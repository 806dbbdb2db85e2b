package arbinsert

import (
	"testing"

	"sparcs/internal/behav"
	"sparcs/internal/partition"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// twoWriters: tasks W1 and W2 (parallel) both write segment S; reader R
// depends on both.
func twoWriters() *taskgraph.Graph {
	return &taskgraph.Graph{
		Name: "two-writers",
		Segments: []*taskgraph.Segment{
			{Name: "S", SizeBytes: 1024, WidthBits: 32},
		},
		Tasks: []*taskgraph.Task{
			{Name: "W1", AreaCLBs: 50, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "W2", AreaCLBs: 50, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "R", AreaCLBs: 50, Deps: []string{"W1", "W2"}, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Read}}},
		},
	}
}

func compile(t *testing.T, g *taskgraph.Graph, opts Options) (*partition.Stage, *Result) {
	t.Helper()
	return compileWith(t, g, partition.Options{}, opts)
}

// compileWith partitions g under part, routes its channels and inserts
// the arbiters the partitioner decided.
func compileWith(t *testing.T, g *taskgraph.Graph, part partition.Options, opts Options) (*partition.Stage, *Result) {
	t.Helper()
	board := rc.Wildforce()
	stages, err := partition.Temporal(g, board, part)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(stages))
	}
	progs := map[string]behav.Program{
		"W1": {Body: []behav.Instr{behav.WriteImm("S", 0, 11), behav.WriteImm("S", 1, 12), behav.WriteImm("S", 2, 13)}},
		"W2": {Body: []behav.Instr{behav.WriteImm("S", 8, 21)}},
		"R":  {Body: []behav.Instr{behav.Read("S", 0), behav.Read("S", 8)}},
	}
	routes, err := partition.RouteChannels(g, board, stages[0], part)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Insert(board, stages[0], routes, progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return stages[0], res
}

func countOps(p behav.Program, op behav.Op) int {
	n := 0
	for _, in := range p.Body {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestInsertWrapsMembers(t *testing.T) {
	_, res := compile(t, twoWriters(), Options{})
	// W1 has 3 consecutive accesses, M=2: two groups -> 2 Req/Release pairs.
	w1 := res.Programs["W1"]
	if got := countOps(w1, behav.OpReq); got != 2 {
		t.Fatalf("W1 Req count = %d, want 2 (3 accesses, M=2)", got)
	}
	if got := countOps(w1, behav.OpRelease); got != 2 {
		t.Fatalf("W1 Release count = %d, want 2", got)
	}
	if got := countOps(w1, behav.OpWaitGrant); got != 2 {
		t.Fatalf("W1 WaitGrant count = %d, want 2", got)
	}
	// W2: single access, one group.
	if got := countOps(res.Programs["W2"], behav.OpReq); got != 1 {
		t.Fatalf("W2 Req count = %d, want 1", got)
	}
}

func TestInsertElidesOrderedReader(t *testing.T) {
	_, res := compile(t, twoWriters(), Options{})
	// R is ordered after both writers: dependency-aware mode gives it no
	// protocol at all.
	r := res.Programs["R"]
	if got := countOps(r, behav.OpReq); got != 0 {
		t.Fatalf("R Req count = %d, want 0 (elided)", got)
	}
	if len(res.Arbiters) != 1 || res.Arbiters[0].N() != 2 {
		t.Fatalf("arbiters = %+v, want one Arb2", res.Arbiters)
	}
}

func TestConservativeModeWrapsEveryone(t *testing.T) {
	_, res := compileWith(t, twoWriters(), partition.Options{Conservative: true}, Options{})
	if len(res.Arbiters) != 1 || res.Arbiters[0].N() != 3 {
		t.Fatalf("conservative arbiters = %+v, want one Arb3", res.Arbiters)
	}
	if got := countOps(res.Programs["R"], behav.OpReq); got != 1 {
		t.Fatalf("conservative R Req count = %d, want 1", got)
	}
}

func TestMParameterControlsGrouping(t *testing.T) {
	_, res1 := compile(t, twoWriters(), Options{M: 1})
	if got := countOps(res1.Programs["W1"], behav.OpReq); got != 3 {
		t.Fatalf("M=1: W1 Req count = %d, want 3", got)
	}
	_, res4 := compile(t, twoWriters(), Options{M: 4})
	if got := countOps(res4.Programs["W1"], behav.OpReq); got != 1 {
		t.Fatalf("M=4: W1 Req count = %d, want 1", got)
	}
}

func TestExtraCyclesAccounting(t *testing.T) {
	_, res := compile(t, twoWriters(), Options{})
	// W1: two groups -> 4 extra cycles (Req+Release each).
	if got := res.ExtraCyclesPerTask["W1"]; got != 4 {
		t.Fatalf("W1 extra cycles = %d, want 4", got)
	}
	if got := res.ExtraCyclesPerTask["R"]; got != 0 {
		t.Fatalf("R extra cycles = %d, want 0", got)
	}
}

func TestRewritePreservesOrderAndPayload(t *testing.T) {
	_, res := compile(t, twoWriters(), Options{})
	w1 := res.Programs["W1"]
	// Strip protocol; the access sequence must be untouched.
	var accesses []behav.Instr
	for _, in := range w1.Body {
		if in.Op == behav.OpWrite {
			accesses = append(accesses, in)
		}
	}
	if len(accesses) != 3 || accesses[0].Val != 11 || accesses[1].Val != 12 || accesses[2].Val != 13 {
		t.Fatalf("rewritten accesses corrupted: %+v", accesses)
	}
}

func TestMissingProgramRejected(t *testing.T) {
	g := twoWriters()
	board := rc.Wildforce()
	stages, err := partition.Temporal(g, board, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Insert(board, stages[0], nil, map[string]behav.Program{}, Options{})
	if err == nil {
		t.Fatal("expected missing-program error")
	}
}

func TestFigure8Shape(t *testing.T) {
	// The canonical Figure 8 rewrite: compute, then two accesses, becomes
	// compute, Req, WaitGrant, access, access, Release.
	g := twoWriters()
	board := rc.Wildforce()
	stages, err := partition.Temporal(g, board, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]behav.Program{
		"W1": {Body: []behav.Instr{behav.Compute(13), behav.WriteImm("S", 1, 1), behav.WriteImm("S", 2, 2)}},
		"W2": {Body: []behav.Instr{behav.WriteImm("S", 8, 8)}},
		"R":  {Body: []behav.Instr{behav.Read("S", 1)}},
	}
	res, err := Insert(board, stages[0], nil, progs, Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Programs["W1"].Body
	wantOps := []behav.Op{behav.OpCompute, behav.OpReq, behav.OpWaitGrant, behav.OpWrite, behav.OpWrite, behav.OpRelease}
	if len(got) != len(wantOps) {
		t.Fatalf("rewritten length = %d, want %d: %+v", len(got), len(wantOps), got)
	}
	for i, op := range wantOps {
		if got[i].Op != op {
			t.Fatalf("instr %d = %v, want %v", i, got[i].Op, op)
		}
	}
}

func TestHoldThroughReducesProtocol(t *testing.T) {
	// Access, short compute, access: Figure 8 mode pays two groups; the
	// hold-through extension keeps the grant across the compute.
	g := twoWriters()
	board := rc.Wildforce()
	stages, err := partition.Temporal(g, board, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]behav.Program{
		"W1": {Body: []behav.Instr{
			behav.WriteImm("S", 0, 1),
			behav.Compute(2),
			behav.WriteImm("S", 1, 2),
		}},
		"W2": {Body: []behav.Instr{behav.WriteImm("S", 8, 8)}},
		"R":  {Body: []behav.Instr{behav.Read("S", 0)}},
	}
	plain, err := Insert(board, stages[0], nil, progs, Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	held, err := Insert(board, stages[0], nil, progs, Options{M: 2, HoldThrough: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(plain.Programs["W1"], behav.OpReq); got != 2 {
		t.Fatalf("plain Req count = %d, want 2", got)
	}
	if got := countOps(held.Programs["W1"], behav.OpReq); got != 1 {
		t.Fatalf("hold-through Req count = %d, want 1", got)
	}
	// The compute instruction must sit inside the grant window.
	body := held.Programs["W1"].Body
	sawCompute := false
	inWindow := false
	for _, in := range body {
		switch in.Op {
		case behav.OpReq:
			inWindow = true
		case behav.OpRelease:
			inWindow = false
		case behav.OpCompute:
			sawCompute = inWindow
		}
	}
	if !sawCompute {
		t.Fatal("compute should ride inside the grant window")
	}
	if held.ExtraCyclesPerTask["W1"] >= plain.ExtraCyclesPerTask["W1"] {
		t.Fatal("hold-through should reduce protocol overhead")
	}
}

func TestHoldThroughRespectsM(t *testing.T) {
	// Even with hold-through, at most M accesses per grant.
	g := twoWriters()
	board := rc.Wildforce()
	stages, err := partition.Temporal(g, board, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]behav.Program{
		"W1": {Body: []behav.Instr{
			behav.WriteImm("S", 0, 1), behav.Compute(1),
			behav.WriteImm("S", 1, 2), behav.Compute(1),
			behav.WriteImm("S", 2, 3),
		}},
		"W2": {Body: []behav.Instr{behav.WriteImm("S", 8, 8)}},
		"R":  {Body: []behav.Instr{behav.Read("S", 0)}},
	}
	res, err := Insert(board, stages[0], nil, progs, Options{M: 2, HoldThrough: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(res.Programs["W1"], behav.OpReq); got != 2 {
		t.Fatalf("Req count = %d, want 2 (M=2 caps the window at 2 accesses)", got)
	}
}
