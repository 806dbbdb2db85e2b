package taskgraph

import "testing"

func diamond() *Graph {
	// A -> B, A -> C, B/C -> D; B and C are parallel.
	return &Graph{
		Name: "diamond",
		Segments: []*Segment{
			{Name: "S", SizeBytes: 1024, WidthBits: 32},
			{Name: "T", SizeBytes: 1024, WidthBits: 32},
		},
		Tasks: []*Task{
			{Name: "A", AreaCLBs: 10, Accesses: []Access{{Segment: "S", Kind: Write}}},
			{Name: "B", AreaCLBs: 10, Deps: []string{"A"}, Accesses: []Access{{Segment: "S", Kind: Read}, {Segment: "T", Kind: Write}}},
			{Name: "C", AreaCLBs: 10, Deps: []string{"A"}, Accesses: []Access{{Segment: "S", Kind: Read}}},
			{Name: "D", AreaCLBs: 10, Deps: []string{"B", "C"}, Accesses: []Access{{Segment: "T", Kind: Read}}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := diamond().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateUnknownDep(t *testing.T) {
	g := diamond()
	g.Tasks[1].Deps = []string{"Z"}
	if err := g.Validate(); err == nil {
		t.Fatal("expected unknown-dep error")
	}
}

func TestValidateUnknownSegment(t *testing.T) {
	g := diamond()
	g.Tasks[0].Accesses = []Access{{Segment: "Z"}}
	if err := g.Validate(); err == nil {
		t.Fatal("expected unknown-segment error")
	}
}

func TestValidateCycle(t *testing.T) {
	g := diamond()
	g.Tasks[0].Deps = []string{"D"}
	if err := g.Validate(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestValidateDuplicateTask(t *testing.T) {
	g := diamond()
	g.Tasks = append(g.Tasks, &Task{Name: "A", AreaCLBs: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

// TestValidateIgnoresSharedIndex pins Validate to its own name sets: a
// query builds the shared index once, and changes made after it must
// still be judged on the graph as it is, not on that index.
func TestValidateIgnoresSharedIndex(t *testing.T) {
	g := diamond()
	if g.TaskByName("A") == nil {
		t.Fatal("TaskByName(A) = nil")
	}
	g.Tasks = append(g.Tasks, &Task{Name: "A", AreaCLBs: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("expected duplicate-name error after a query")
	}

	// Replacing A keeps the task count the index saw, so only a check
	// against the current names finds B's and C's dependency on A.
	g = diamond()
	if g.TaskByName("A") == nil {
		t.Fatal("TaskByName(A) = nil")
	}
	g.Tasks[0] = &Task{Name: "Z", AreaCLBs: 1}
	if err := g.Validate(); err == nil {
		t.Fatal("expected unknown-dep error after a query")
	}
}

func TestValidateNonPositiveArea(t *testing.T) {
	g := diamond()
	g.Tasks[0].AreaCLBs = 0
	if err := g.Validate(); err == nil {
		t.Fatal("expected area error")
	}
}

func TestValidateChannelEndpoints(t *testing.T) {
	g := diamond()
	g.Channels = []*Channel{{Name: "c", From: "A", To: "Z", WidthBits: 8}}
	if err := g.Validate(); err == nil {
		t.Fatal("expected channel endpoint error")
	}
	g.Channels = []*Channel{{Name: "c", From: "A", To: "A", WidthBits: 8}}
	if err := g.Validate(); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	g := diamond()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["A"] > pos["B"] || pos["A"] > pos["C"] || pos["B"] > pos["D"] || pos["C"] > pos["D"] {
		t.Fatalf("order %v violates dependencies", order)
	}
}

func TestPrecedesTransitive(t *testing.T) {
	g := diamond()
	if !g.Precedes("A", "D") {
		t.Error("A should precede D transitively")
	}
	if g.Precedes("D", "A") {
		t.Error("D should not precede A")
	}
	if g.Precedes("B", "C") || g.Precedes("C", "B") {
		t.Error("B and C are parallel")
	}
}

func TestOrderedSymmetric(t *testing.T) {
	g := diamond()
	if !g.Ordered("A", "D") || !g.Ordered("D", "A") {
		t.Error("Ordered should be symmetric over A,D")
	}
	if g.Ordered("B", "C") {
		t.Error("B and C are unordered")
	}
	if g.Ordered("A", "A") {
		t.Error("a task is not ordered against itself")
	}
}

func TestUnorderedMembers(t *testing.T) {
	g := diamond()
	// Accessors of S: A, B, C. B and C are parallel; A is ordered against
	// both, so only B and C need arbitration.
	members := g.UnorderedMembers([]string{"A", "B", "C"})
	if len(members) != 2 || members[0] != "B" || members[1] != "C" {
		t.Fatalf("members = %v, want [B C]", members)
	}
	// A fully ordered chain needs no arbitration at all.
	if got := g.UnorderedMembers([]string{"A", "D"}); len(got) != 0 {
		t.Fatalf("ordered pair should have no members, got %v", got)
	}
}

func TestAccessors(t *testing.T) {
	g := diamond()
	acc := g.Accessors("S")
	if len(acc) != 3 || acc[0] != "A" || acc[1] != "B" || acc[2] != "C" {
		t.Fatalf("Accessors(S) = %v", acc)
	}
}

func TestReadsWrites(t *testing.T) {
	g := diamond()
	b := g.TaskByName("B")
	if r := b.Reads(); len(r) != 1 || r[0] != "S" {
		t.Fatalf("Reads = %v", r)
	}
	if w := b.Writes(); len(w) != 1 || w[0] != "T" {
		t.Fatalf("Writes = %v", w)
	}
	if s := b.Segments(); len(s) != 2 {
		t.Fatalf("Segments = %v", s)
	}
}

func TestTotals(t *testing.T) {
	g := diamond()
	if g.TotalArea() != 40 {
		t.Fatalf("TotalArea = %d", g.TotalArea())
	}
	if g.TotalSegmentBytes() != 2048 {
		t.Fatalf("TotalSegmentBytes = %d", g.TotalSegmentBytes())
	}
}

// TestAncestorsBuiltOnFirstOrderQuery pins when the ancestor sets are
// built: not by the name index's queries, and once by the first order
// query.
func TestAncestorsBuiltOnFirstOrderQuery(t *testing.T) {
	g := diamond()
	if g.TaskByName("A") == nil || g.SegmentByName("S") == nil {
		t.Fatal("index lookups failed")
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	if g.Accessors("S"); g.anc != nil {
		t.Fatal("ancestor sets built without an order query")
	}
	if !g.Precedes("A", "D") {
		t.Fatal("A should precede D")
	}
	anc := g.anc
	if anc == nil {
		t.Fatal("Precedes did not build the ancestor sets")
	}
	g.Ordered("B", "C")
	g.UnorderedMembers([]string{"A", "B", "C"})
	if g.anc != anc {
		t.Fatal("ancestor sets rebuilt by a later query")
	}
}
