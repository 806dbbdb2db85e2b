package partition

import (
	"reflect"
	"testing"

	"sparcs/internal/estimate"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
	"sparcs/internal/xc4000"
)

// pipelineGraph: P writes S; Q and R (parallel) read S and write their
// own outputs; deps P -> {Q,R}.
func pipelineGraph() *taskgraph.Graph {
	return &taskgraph.Graph{
		Name: "pipe",
		Segments: []*taskgraph.Segment{
			{Name: "S", SizeBytes: 4096, WidthBits: 32},
			{Name: "OQ", SizeBytes: 4096, WidthBits: 32},
			{Name: "OR", SizeBytes: 4096, WidthBits: 32},
		},
		Tasks: []*taskgraph.Task{
			{Name: "P", AreaCLBs: 100, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "Q", AreaCLBs: 100, Deps: []string{"P"},
				Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Read}, {Segment: "OQ", Kind: taskgraph.Write}}},
			{Name: "R", AreaCLBs: 100, Deps: []string{"P"},
				Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Read}, {Segment: "OR", Kind: taskgraph.Write}}},
		},
	}
}

func TestTemporalSingleStage(t *testing.T) {
	stages, err := Temporal(pipelineGraph(), rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("stages = %d, want 1 (everything fits)", len(stages))
	}
	st := stages[0]
	if len(st.Tasks) != 3 {
		t.Fatalf("stage tasks = %v", st.Tasks)
	}
	// S is read by parallel Q and R: exactly one 2-input arbiter, with P
	// elided (ordered against both).
	if len(st.Arbiters) != 1 {
		t.Fatalf("arbiters = %+v, want 1", st.Arbiters)
	}
	a := st.Arbiters[0]
	if a.N() != 2 {
		t.Fatalf("arbiter size = %d, want 2", a.N())
	}
	for _, m := range a.Members {
		if m == "P" {
			t.Fatal("P is ordered against Q and R and must be elided")
		}
	}
}

func TestTemporalSplitsWhenTooBig(t *testing.T) {
	g := pipelineGraph()
	for _, task := range g.Tasks {
		task.AreaCLBs = 500 // two tasks exceed one PE; four PEs still fit all three
	}
	// Shrink the board to one PE so only one task fits per stage.
	board := rc.Generic(1, xc4000.XC4013E, 32*1024, 36, 36)
	stages, err := Temporal(g, board, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("stages = %d, want 3 on a single-PE board", len(stages))
	}
}

func TestTemporalImpossibleTask(t *testing.T) {
	g := pipelineGraph()
	g.Tasks[0].AreaCLBs = 10_000
	if _, err := Temporal(g, rc.Wildforce(), Options{}); err == nil {
		t.Fatal("expected oversized-task error")
	}
}

func TestFixedStagesValidation(t *testing.T) {
	g := pipelineGraph()
	board := rc.Wildforce()
	// Unknown task.
	if _, err := Temporal(g, board, Options{FixedStages: [][]string{{"P", "Z"}, {"Q", "R"}}}); err == nil {
		t.Error("unknown task should fail")
	}
	// Missing coverage.
	if _, err := Temporal(g, board, Options{FixedStages: [][]string{{"P", "Q"}}}); err == nil {
		t.Error("uncovered task should fail")
	}
	// Dependency pointing forward.
	if _, err := Temporal(g, board, Options{FixedStages: [][]string{{"Q", "R"}, {"P"}}}); err == nil {
		t.Error("forward dependency should fail")
	}
	// Valid split.
	stages, err := Temporal(g, board, Options{FixedStages: [][]string{{"P"}, {"Q", "R"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("stages = %d", len(stages))
	}
}

func TestSpatialSpreadsParallelTasks(t *testing.T) {
	stages, err := Temporal(pipelineGraph(), rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := stages[0]
	if st.TaskPE["Q"] == st.TaskPE["R"] {
		t.Fatal("parallel tasks Q and R should spread across PEs")
	}
}

func TestMemoryMapperElidesOrderedSharing(t *testing.T) {
	// Producer/consumer pair sharing a bank must not create an arbiter.
	g := &taskgraph.Graph{
		Name: "ordered",
		Segments: []*taskgraph.Segment{
			{Name: "A", SizeBytes: 1024, WidthBits: 32},
			{Name: "B", SizeBytes: 1024, WidthBits: 32},
		},
		Tasks: []*taskgraph.Task{
			{Name: "T1", AreaCLBs: 50, Accesses: []taskgraph.Access{{Segment: "A", Kind: taskgraph.Write}}},
			{Name: "T2", AreaCLBs: 50, Deps: []string{"T1"},
				Accesses: []taskgraph.Access{{Segment: "A", Kind: taskgraph.Read}, {Segment: "B", Kind: taskgraph.Write}}},
		},
	}
	stages, err := Temporal(g, rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages[0].Arbiters) != 0 {
		t.Fatalf("ordered tasks need no arbiter, got %+v", stages[0].Arbiters)
	}
}

func TestCohortSegmentsShareBank(t *testing.T) {
	g := pipelineGraph()
	g.Segments[0].Cohort = "blk"
	g.Segments[1].Cohort = "blk"
	stages, err := Temporal(g, rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := stages[0]
	if st.SegBank["S"] != st.SegBank["OQ"] {
		t.Fatalf("cohort segments mapped to banks %d and %d", st.SegBank["S"], st.SegBank["OQ"])
	}
}

func TestSegmentTooLargeForBank(t *testing.T) {
	g := pipelineGraph()
	g.Segments[0].SizeBytes = 64 * 1024 // exceeds any 32KB Wildforce bank
	if _, err := Temporal(g, rc.Wildforce(), Options{}); err == nil {
		t.Fatal("expected segment-too-large error")
	}
}

// TestExpectedContentionPricesSimulatedWidth pins contention-aware
// partitioning: each arbiter is priced at member width plus the expected
// background lines, and the widened price counts against CLB capacity.
func TestExpectedContentionPricesSimulatedWidth(t *testing.T) {
	g := pipelineGraph()
	bare, err := Temporal(g, rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bare) != 1 || len(bare[0].Arbiters) != 1 || bare[0].Arbiters[0].N() != 2 {
		t.Fatalf("unexpected structure: %+v", bare)
	}
	res := bare[0].Arbiters[0].Resource

	// pipelineGraph's one 2-member arbiter, with 3 expected phantom
	// lines, is priced as a 5-line arbiter.
	opts := Options{ExpectedContention: map[string]int{res: 3}}
	widened, err := Temporal(g, rc.Wildforce(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(widened) != 1 || len(widened[0].Arbiters) != 1 {
		t.Fatalf("unexpected structure under 3 expected lines: %+v", widened)
	}
	got := StageArea(g, widened[0], opts) - StageArea(g, bare[0], Options{})
	if want := estimate.ArbiterCLBs(5) - estimate.ArbiterCLBs(2); got != want {
		t.Fatalf("3 expected lines raised StageArea by %d CLBs, want %d (5-line minus 2-line arbiter)", got, want)
	}

	// A 64-line arbiter (62 expected lines) does not fit beside its
	// members' tasks on one XC4013E, so the temporal partitioner must
	// re-plan around it (serializing Q and R so no arbiter is needed)
	// rather than keep the single-stage plan.
	replanned, err := Temporal(g, rc.Wildforce(), Options{ExpectedContention: map[string]int{res: 62}})
	if err != nil {
		t.Fatalf("widened pricing should re-plan, not fail: %v", err)
	}
	arbiters := 0
	for _, st := range replanned {
		arbiters += len(st.Arbiters)
	}
	if len(replanned) == 1 && arbiters > 0 {
		t.Fatalf("widened pricing kept the unaffordable single-stage arbiter plan (%d stages, %d arbiters)",
			len(replanned), arbiters)
	}
}

func TestRouteChannelsMergesPerPEPair(t *testing.T) {
	g := pipelineGraph()
	g.Channels = []*taskgraph.Channel{
		{Name: "c1", From: "Q", To: "R", WidthBits: 16},
		{Name: "c2", From: "P", To: "R", WidthBits: 8},
	}
	stages, err := Temporal(g, rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := stages[0]
	// Force interesting placement: move all three to distinct PEs.
	routes, err := RouteChannels(g, rc.Wildforce(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range routes {
		if pc.Pins <= 0 {
			t.Fatalf("physical channel with no pins: %+v", pc)
		}
		// Width must cover the widest merged logical channel.
		for _, lc := range pc.Logical {
			for _, c := range g.Channels {
				if c.Name == lc && c.WidthBits > pc.Pins {
					t.Fatalf("channel %s wider than its physical carrier", lc)
				}
			}
		}
	}
}

func TestRouteChannelsArbiterOnlyForUnorderedSources(t *testing.T) {
	g := pipelineGraph()
	g.Channels = []*taskgraph.Channel{
		{Name: "cq", From: "Q", To: "P", WidthBits: 8},
		{Name: "cr", From: "R", To: "P", WidthBits: 8},
	}
	stages, err := Temporal(g, rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := stages[0]
	// Place Q and R's channels onto the same PE pair by forcing PEs.
	st.TaskPE["P"] = 0
	st.TaskPE["Q"] = 1
	st.TaskPE["R"] = 1
	routes, err := RouteChannels(g, rc.Wildforce(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 {
		t.Fatalf("routes = %d, want 1 merged channel", len(routes))
	}
	if routes[0].Arbiter == nil {
		t.Fatal("unordered sources Q,R sharing a channel need an arbiter")
	}
	if routes[0].Arbiter.N() != 2 {
		t.Fatalf("channel arbiter size = %d, want 2", routes[0].Arbiter.N())
	}

	// P precedes Q, so their shared channel needs no arbiter, except
	// under conservative insertion, which wires every source.
	g = pipelineGraph()
	g.Channels = []*taskgraph.Channel{
		{Name: "cq", From: "Q", To: "R", WidthBits: 8},
		{Name: "cp", From: "P", To: "R", WidthBits: 8},
	}
	stages, err = Temporal(g, rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st = stages[0]
	st.TaskPE["P"], st.TaskPE["Q"], st.TaskPE["R"] = 1, 1, 0
	for _, conservative := range []bool{false, true} {
		routes, err := RouteChannels(g, rc.Wildforce(), st, Options{Conservative: conservative})
		if err != nil {
			t.Fatal(err)
		}
		if len(routes) != 1 {
			t.Fatalf("conservative %v: routes = %d, want 1 merged channel", conservative, len(routes))
		}
		var want *ArbiterSpec
		if conservative {
			want = &ArbiterSpec{Resource: routes[0].Name, Members: []string{"P", "Q"}}
		}
		if got := routes[0].Arbiter; !reflect.DeepEqual(got, want) {
			t.Fatalf("conservative %v: ordered sources Q,P got arbiter %+v, want %+v", conservative, got, want)
		}
	}
}

func TestStagePinUseRecorded(t *testing.T) {
	stages, err := Temporal(pipelineGraph(), rc.Wildforce(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stages[0].PinUse == nil {
		t.Fatal("PinUse should be recorded")
	}
}
