package core

import (
	"fmt"
	"sort"
	"strings"
)

// DeadlockProneError rejects a contention protocol whose correlated
// sources can reach circular hold-and-wait: the union of their ordered
// acquisition chains contains a cycle, so under any non-preemptive
// policy the sources can interlock and starve the member tasks until
// the watchdog fires. Cycle names the resources in acquisition order,
// with the first resource repeated at the end ("M1 -> M3 -> M1").
//
// The checker vets the protocol a System declares at build time
// (sparcs.WithExpectedContention) and the contention every run composes
// (Simulate, SimulateStage); Options.UnsafeProtocols — the
// sparcs.WithUnsafeProtocols run option — restores the historical
// watchdog-only behavior for the deadlock experiments' runs.
type DeadlockProneError struct {
	// Cycle is the offending acquisition cycle, first resource repeated
	// at the end; len >= 2.
	Cycle []string
}

func (e *DeadlockProneError) Error() string {
	return fmt.Sprintf("core: contention protocol is deadlock-prone: acquisition-order cycle %s (fix the acquisition order, or run watchdog-only with WithUnsafeProtocols)",
		strings.Join(e.Cycle, " -> "))
}

// CheckProtocols verifies that the correlated sources' acquisition
// orders embed in one global resource order — the classical
// ordered-acquisition deadlock-avoidance discipline. Each correlated
// spec holds every earlier resource in its Resources list while it
// waits for the next, so the union of the per-spec chains is exactly
// the protocol's hold-and-wait graph; a cycle in it means two sources
// can block each other forever. Returns a *DeadlockProneError naming
// the first cycle (deterministically chosen), or nil for protocols that
// admit a global order. Independent (one-resource) specs cannot
// hold-and-wait and never contribute edges.
func CheckProtocols(specs []ContentionSpec) error {
	// next[u] collects the resources some source waits for while
	// holding u.
	next := map[string][]string{}
	nodes := map[string]bool{}
	for _, cs := range specs {
		for i := 0; i+1 < len(cs.Resources); i++ {
			u, v := cs.Resources[i], cs.Resources[i+1]
			next[u] = append(next[u], v)
			nodes[u], nodes[v] = true, true
		}
	}
	if len(next) == 0 {
		return nil
	}
	order := make([]string, 0, len(nodes))
	for r := range nodes {
		order = append(order, r)
	}
	sort.Strings(order)
	for _, u := range order {
		sort.Strings(next[u])
	}
	// Iterative-deepening-free DFS with colors; starting nodes and edge
	// fan-out are sorted, so the reported cycle is deterministic.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var cycle []string
	var visit func(u string) bool
	visit = func(u string) bool {
		color[u] = gray
		stack = append(stack, u)
		for _, v := range next[u] {
			switch color[v] {
			case gray:
				// Found: slice the stack from v's occurrence to u, close it.
				for i, w := range stack {
					if w == v {
						cycle = append(append(cycle, stack[i:]...), v)
						return true
					}
				}
			case white:
				if visit(v) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return false
	}
	for _, r := range order {
		if color[r] == white && visit(r) {
			return &DeadlockProneError{Cycle: cycle}
		}
	}
	return nil
}
