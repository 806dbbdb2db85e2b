package taskgraph_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sparcs/internal/fft"
	"sparcs/internal/taskgraph"
)

// dfsReaches is the per-query walk Precedes and Ordered made before the
// ancestor sets: a depth-first search up the Deps from to, resolving each
// name through the last task of that name, as the graph's index does.
func dfsReaches(g *taskgraph.Graph, from, to string) bool {
	if from == to {
		return false
	}
	tasks := map[string]*taskgraph.Task{}
	for _, t := range g.Tasks {
		tasks[t.Name] = t
	}
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

// dfsUnorderedMembers is UnorderedMembers over dfsReaches.
func dfsUnorderedMembers(g *taskgraph.Graph, tasks []string) []string {
	var out []string
	for i, a := range tasks {
		for j, b := range tasks {
			if i != j && !dfsReaches(g, a, b) && !dfsReaches(g, b, a) {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// randomGraph builds a graph of 1..12 tasks whose deps name earlier
// tasks, later ones (so cycles, self-loops included, are possible) and
// names that are no task; some task names repeat.
func randomGraph(r *rand.Rand) *taskgraph.Graph {
	n := 1 + r.IntN(12)
	g := &taskgraph.Graph{Name: "random"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		if i > 0 && r.IntN(8) == 0 {
			name = g.Tasks[r.IntN(i)].Name
		}
		t := &taskgraph.Task{Name: name, AreaCLBs: 1}
		for k := r.IntN(4); k > 0; k-- {
			switch r.IntN(6) {
			case 0:
				t.Deps = append(t.Deps, fmt.Sprintf("ghost%d", r.IntN(2)))
			case 1:
				t.Deps = append(t.Deps, fmt.Sprintf("t%d", r.IntN(n)))
			default:
				if i > 0 {
					t.Deps = append(t.Deps, fmt.Sprintf("t%d", r.IntN(i)))
				}
			}
		}
		g.Tasks = append(g.Tasks, t)
	}
	return g
}

// checkAgainstDFS holds Precedes, Ordered and UnorderedMembers on g to
// the depth-first reference over every pair of names g mentions, plus
// names it does not.
func checkAgainstDFS(t *testing.T, g *taskgraph.Graph, r *rand.Rand) {
	t.Helper()
	names := []string{"", "nobody", "ghost0", "ghost1"}
	for _, task := range g.Tasks {
		names = append(names, task.Name)
		names = append(names, task.Deps...)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	for _, a := range names {
		for _, b := range names {
			want := dfsReaches(g, a, b)
			if got := g.Precedes(a, b); got != want {
				t.Fatalf("%s: Precedes(%q, %q) = %v, the walk says %v", g.Name, a, b, got, want)
			}
			want = want || dfsReaches(g, b, a)
			if got := g.Ordered(a, b); got != want {
				t.Fatalf("%s: Ordered(%q, %q) = %v, the walk says %v", g.Name, a, b, got, want)
			}
		}
	}
	for k := 0; k < 20; k++ {
		var list []string
		for m := r.IntN(8); m > 0; m-- {
			list = append(list, names[r.IntN(len(names))])
		}
		if got, want := g.UnorderedMembers(list), dfsUnorderedMembers(g, list); !slices.Equal(got, want) {
			t.Fatalf("%s: UnorderedMembers(%q) = %q, the walk says %q", g.Name, list, got, want)
		}
	}
}

// TestAncestorsMatchDFS holds the ancestor sets to the per-query walk
// they replace, on the FFT case study's graph and on random graphs with
// cycles, duplicate names and deps that name no task, queried before
// any Validate.
func TestAncestorsMatchDFS(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	checkAgainstDFS(t, fft.Taskgraph(), r)
	for i := 0; i < 500; i++ {
		checkAgainstDFS(t, randomGraph(r), r)
	}
}
