// Package taskgraph models USM-style design specifications: concurrent
// tasks, logical memory segments, logical channels, and control
// dependencies (paper Section 2). Taskgraphs are the input to the SPARCS
// flow in internal/core.
package taskgraph

import (
	"fmt"
	"sort"
	"sync"
)

// AccessKind distinguishes reads from writes for conflict analysis.
type AccessKind uint8

const (
	// Read accesses load from a segment.
	Read AccessKind = iota
	// Write accesses store to a segment.
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Access is one task-to-segment relationship.
type Access struct {
	Segment string
	Kind    AccessKind
}

// Task is a synthesizable element of computation.
type Task struct {
	Name string
	// Deps lists tasks that must complete before this task may start
	// (control dependencies, the dashed arrows of the paper's Figure 10).
	Deps []string
	// Accesses lists the memory segments the task touches.
	Accesses []Access
	// AreaCLBs is the estimated logic area of the task's datapath and
	// controller, used by the partitioners.
	AreaCLBs int
}

// Reads returns the segment names the task reads.
func (t *Task) Reads() []string { return t.segmentsOf(Read) }

// Writes returns the segment names the task writes.
func (t *Task) Writes() []string { return t.segmentsOf(Write) }

func (t *Task) segmentsOf(k AccessKind) []string {
	var out []string
	for _, a := range t.Accesses {
		if a.Kind == k {
			out = append(out, a.Segment)
		}
	}
	return out
}

// Segments returns all segment names the task accesses, deduplicated.
func (t *Task) Segments() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range t.Accesses {
		if !seen[a.Segment] {
			seen[a.Segment] = true
			out = append(out, a.Segment)
		}
	}
	return out
}

// Segment is a logical element of data storage.
type Segment struct {
	Name      string
	SizeBytes int
	// WidthBits is the data word width (memory data bus width needed).
	WidthBits int
	// Cohort, when non-empty, names a group of segments that must share
	// one physical bank (e.g. a block the host DMA streams as a unit).
	Cohort string
}

// Channel is a logical point-to-point connection between two tasks.
type Channel struct {
	Name      string
	From, To  string
	WidthBits int
}

// Graph is a complete design specification.
//
// The name index behind TaskByName, SegmentByName, TopoOrder, Ordered,
// Precedes and UnorderedMembers is built once, on the first of those
// queries, and never written again, so any number of goroutines may
// query one graph. A graph must not be mutated after its first query:
// the index would not see the change. Validate does not use the index;
// it checks its own copy of the names on every call.
type Graph struct {
	Name     string
	Tasks    []*Task
	Segments []*Segment
	Channels []*Channel

	idxOnce sync.Once
	taskIdx map[string]*Task
	segIdx  map[string]*Segment
}

// TaskByName returns the named task, or nil.
func (g *Graph) TaskByName(name string) *Task {
	return g.tasksByName()[name]
}

// SegmentByName returns the named segment, or nil.
func (g *Graph) SegmentByName(name string) *Segment {
	g.idxOnce.Do(g.buildIndex)
	return g.segIdx[name]
}

// tasksByName returns the shared task index, building it on first use.
func (g *Graph) tasksByName() map[string]*Task {
	g.idxOnce.Do(g.buildIndex)
	return g.taskIdx
}

func (g *Graph) buildIndex() {
	g.taskIdx = make(map[string]*Task, len(g.Tasks))
	g.segIdx = make(map[string]*Segment, len(g.Segments))
	for _, t := range g.Tasks {
		g.taskIdx[t.Name] = t
	}
	for _, s := range g.Segments {
		g.segIdx[s.Name] = s
	}
}

// Validate checks referential integrity and dependency acyclicity. It
// builds its own name sets rather than the shared index, so it sees the
// graph as it is now and writes nothing other queries read.
func (g *Graph) Validate() error {
	tasks := make(map[string]*Task, len(g.Tasks))
	for _, t := range g.Tasks {
		tasks[t.Name] = t
	}
	if len(tasks) != len(g.Tasks) {
		return fmt.Errorf("taskgraph %s: duplicate task names", g.Name)
	}
	segments := make(map[string]bool, len(g.Segments))
	for _, s := range g.Segments {
		segments[s.Name] = true
	}
	if len(segments) != len(g.Segments) {
		return fmt.Errorf("taskgraph %s: duplicate segment names", g.Name)
	}
	for _, t := range g.Tasks {
		for _, d := range t.Deps {
			if tasks[d] == nil {
				return fmt.Errorf("taskgraph %s: task %s depends on unknown task %s", g.Name, t.Name, d)
			}
		}
		for _, a := range t.Accesses {
			if !segments[a.Segment] {
				return fmt.Errorf("taskgraph %s: task %s accesses unknown segment %s", g.Name, t.Name, a.Segment)
			}
		}
		if t.AreaCLBs <= 0 {
			return fmt.Errorf("taskgraph %s: task %s has non-positive area", g.Name, t.Name)
		}
	}
	for _, c := range g.Channels {
		if tasks[c.From] == nil || tasks[c.To] == nil {
			return fmt.Errorf("taskgraph %s: channel %s connects unknown tasks %s->%s", g.Name, c.Name, c.From, c.To)
		}
		if c.From == c.To {
			return fmt.Errorf("taskgraph %s: channel %s is a self-loop", g.Name, c.Name)
		}
	}
	if _, err := g.topoOrder(tasks); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns task names in a dependency-respecting order, or an
// error if control dependencies form a cycle. Ties preserve declaration
// order for determinism.
func (g *Graph) TopoOrder() ([]string, error) {
	return g.topoOrder(g.tasksByName())
}

// topoOrder is TopoOrder over the given name-to-task map.
func (g *Graph) topoOrder(tasks map[string]*Task) ([]string, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]uint8{}
	var order []string
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("taskgraph %s: control dependency cycle through %s", g.Name, name)
		}
		color[name] = gray
		t := tasks[name]
		deps := append([]string(nil), t.Deps...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[name] = black
		order = append(order, name)
		return nil
	}
	for _, t := range g.Tasks {
		if err := visit(t.Name); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Ordered reports whether task a transitively precedes task b through
// control dependencies. Ordered tasks can never contend for a resource —
// the basis of the paper's Section 5 arbiter-elision observation.
func (g *Graph) Ordered(a, b string) bool {
	return g.reaches(a, b) || g.reaches(b, a)
}

// Precedes reports whether a transitively precedes b (a completes before b
// starts).
func (g *Graph) Precedes(a, b string) bool {
	return g.reaches(a, b)
}

// reaches reports whether from is an ancestor of to in the dependency DAG.
func (g *Graph) reaches(from, to string) bool {
	if from == to {
		return false
	}
	tasks := g.tasksByName()
	seen := map[string]bool{}
	var walk func(cur string) bool
	walk = func(cur string) bool {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		t := tasks[cur]
		if t == nil {
			return false
		}
		for _, d := range t.Deps {
			if d == from || walk(d) {
				return true
			}
		}
		return false
	}
	return walk(to)
}

// Accessors returns the names of tasks accessing the segment, in
// declaration order.
func (g *Graph) Accessors(segment string) []string {
	var out []string
	for _, t := range g.Tasks {
		for _, a := range t.Accesses {
			if a.Segment == segment {
				out = append(out, t.Name)
				break
			}
		}
	}
	return out
}

// UnorderedMembers returns the subset of the given tasks that have at
// least one other task in the set they are not ordered against by control
// dependencies. These are exactly the tasks that can contend at run time
// and therefore need request/grant lines on a shared resource; tasks
// ordered against every other accessor are elidable (paper Section 5).
// The result preserves the input order.
func (g *Graph) UnorderedMembers(tasks []string) []string {
	var out []string
	for i, a := range tasks {
		for j, b := range tasks {
			if i == j {
				continue
			}
			if !g.Ordered(a, b) {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// TotalArea sums task area estimates.
func (g *Graph) TotalArea() int {
	sum := 0
	for _, t := range g.Tasks {
		sum += t.AreaCLBs
	}
	return sum
}

// TotalSegmentBytes sums segment sizes.
func (g *Graph) TotalSegmentBytes() int {
	sum := 0
	for _, s := range g.Segments {
		sum += s.SizeBytes
	}
	return sum
}
