package workload

import (
	"reflect"
	"strings"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/partition"
	"sparcs/internal/sim"
	"sparcs/internal/taskgraph"
)

// contentionScenario builds a two-task bankS contention Config; the
// background generator is attached by each test.
func contentionScenario(t *testing.T) sim.Config {
	t.Helper()
	g := &taskgraph.Graph{
		Name:     "contend",
		Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 1024, WidthBits: 32}},
		Tasks: []*taskgraph.Task{
			{Name: "A", AreaCLBs: 1, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "B", AreaCLBs: 1, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := func(base int) behav.Program {
		return behav.Program{Body: []behav.Instr{
			behav.Req("bankS"), behav.WaitGrant("bankS"),
			behav.WriteImm("S", base, int64(base)), behav.Read("S", base),
			behav.Release("bankS"),
			behav.Compute(3),
		}, Repeat: 40}
	}
	return sim.Config{
		Graph:             g,
		Tasks:             []string{"A", "B"},
		Programs:          map[string]behav.Program{"A": prog(0), "B": prog(100)},
		Arbiters:          []partition.ArbiterSpec{{Resource: "bankS", Members: []string{"A", "B"}}},
		ResourceOfSegment: map[string]string{"S": "bankS"},
		Memory:            sim.NewMemory(),
		MaxCycles:         3000,
	}
}

// TestContentionSafetyAllPolicies drives the full-system simulator with
// bursty and hog background traffic under every policy implementation
// and verifies the arbiter safety invariants on the widened traces:
// mutual exclusion, grant-implies-request, and work conservation hold
// no matter how adversarial the background load, and the real tasks
// never access the bank without a grant. (Completion is NOT asserted:
// a hog legitimately starves non-preemptive policies; the watchdog
// bounds the run and safety must still hold.)
func TestContentionSafetyAllPolicies(t *testing.T) {
	for _, pspec := range DefaultPolicies() {
		for _, wspec := range []string{"bursty", "hog"} {
			t.Run(pspec+"×"+wspec, func(t *testing.T) {
				cfg := contentionScenario(t)
				// 2 members + 2 phantom lines = 4 total; every default
				// policy (including hier:2) is valid at 4.
				gen, err := NewGenerator(wspec, 2, 7)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Sources = []sim.Source{{Resources: []string{"bankS"}, Gen: gen}}
				sp, err := arbiter.ParsePolicySpec(pspec)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Policy = sp
				stats, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr := stats.ArbiterTraces["bankS"]
				if len(tr.Steps) == 0 {
					t.Fatal("no trace recorded")
				}
				if tr.N != 4 {
					t.Fatalf("trace width %d, want 4 (2 members + 2 phantoms)", tr.N)
				}
				trace := tr.Steps
				if err := arbiter.CheckMutualExclusion(trace); err != nil {
					t.Error(err)
				}
				if err := arbiter.CheckGrantImpliesRequest(trace); err != nil {
					t.Error(err)
				}
				if err := arbiter.CheckWorkConserving(trace); err != nil {
					t.Error(err)
				}
				for _, v := range stats.Violations {
					if v.Kind == "no-grant" || v.Kind == "port-conflict" {
						t.Errorf("real task violated the protocol under background load: %v", v)
					}
				}
				// Accounting: each phantom line's grants+waits fit in the run,
				// and the trace's phantom columns agree with the stats.
				cs := stats.Contention["bankS"]
				if cs == nil {
					t.Fatal("no contention stats")
				}
				for i := range cs.Grants {
					if cs.Grants[i]+cs.Waits[i] > stats.Cycles {
						t.Errorf("phantom %d: grants %d + waits %d exceed %d cycles", i, cs.Grants[i], cs.Waits[i], stats.Cycles)
					}
					inTrace := 0
					for _, step := range trace {
						if step.Grant.Bit(2 + i) {
							inTrace++
						}
					}
					if inTrace != cs.Grants[i] {
						t.Errorf("phantom %d: trace shows %d grants, stats %d", i, inTrace, cs.Grants[i])
					}
				}
			})
		}
	}
}

// TestSilentGeneratorElidedThroughSim proves the cross-package seam:
// workload's silent generator satisfies sim.StaticallySilent
// structurally, so attaching it through the public Config is a
// byte-identical no-op.
func TestSilentGeneratorElidedThroughSim(t *testing.T) {
	plain, err := sim.Run(contentionScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := contentionScenario(t)
	gen, err := NewGenerator("silent", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sources = []sim.Source{{Resources: []string{"bankS"}, Gen: gen}}
	quiet, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, quiet) {
		t.Fatal("silent workload generator was not elided")
	}
	if quiet.Contention != nil {
		t.Fatal("elided contention still produced stats")
	}
}

// TestCensoredWaitFlushing pins the censoring semantics under
// starvation: a static-priority arbiter facing a pinned hog grants the
// hog forever, so every other arriving task waits to the end of the
// run — Drive must flush those in-progress waits into MaxWait instead
// of reporting no wait at all.
func TestCensoredWaitFlushing(t *testing.T) {
	const n, cycles = 4, 10_000
	p := arbiter.NewPriority(n)
	g, err := NewGenerator("hog", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Drive(p, g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if m.Violation != "" {
		t.Fatalf("unexpected safety violation: %s", m.Violation)
	}
	if g := m.Tasks[0].Grants; g < cycles-1 {
		t.Fatalf("hog held %d of %d cycles; priority should never revoke it", g, cycles)
	}
	starved := 0
	for i := 1; i < n; i++ {
		tm := m.Tasks[i]
		if tm.Services != 0 {
			t.Fatalf("task %d was served %d times under a pinned hog + priority", i, tm.Services)
		}
		// Flushed censored wait: the task has been waiting since its
		// first arrival, which at rate 0.25 lands early in the run.
		if tm.MaxWait > cycles/2 {
			starved++
		}
	}
	if starved != n-1 {
		t.Fatalf("only %d of %d starved tasks report flushed censored waits", starved, n-1)
	}
	if m.MaxWait() < cycles/2 {
		t.Fatalf("run-wide MaxWait %d does not reflect censored starvation", m.MaxWait())
	}
}

// TestCensoredWaitFlushingUnderBursty: censored flushing is monotone —
// truncating a run can only shorten the reported MaxWait, never lose a
// wait in progress. Compares a prefix run against a longer run under
// identical bursty traffic and a fair policy.
func TestCensoredWaitFlushingUnderBursty(t *testing.T) {
	const n = 6
	for _, cycles := range []int{500, 5_000} {
		p := arbiter.NewRoundRobin(n)
		g, err := NewGenerator("bursty", n, 9)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Drive(p, g, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if m.Violation != "" {
			t.Fatalf("cycles=%d: %s", cycles, m.Violation)
		}
		for i, tm := range m.Tasks {
			if tm.MaxWait > cycles {
				t.Fatalf("cycles=%d task %d: MaxWait %d exceeds run length", cycles, i, tm.MaxWait)
			}
			if tm.MaxWait < 0 || tm.TotalWait < 0 {
				t.Fatalf("cycles=%d task %d: negative wait", cycles, i)
			}
		}
	}
}

// TestContentionMetricsInGrantsByRes documents the split accounting:
// the silent column in a table renders all-zero instead of polluting
// aggregate columns (regression for the silent generator's metrics).
func TestSilentColumnMetrics(t *testing.T) {
	cells, err := RunGrid([]string{"rr"}, []string{"silent"}, GridOptions{N: 4, Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	m := cells[0]
	if m.Utilization() != 0 || m.Demand() != 0 || m.Jain() != 1 {
		t.Fatalf("silent column: util=%g demand=%g jain=%g, want 0/0/1", m.Utilization(), m.Demand(), m.Jain())
	}
	if !strings.Contains(FormatTable(cells), "silent") {
		t.Fatal("table missing the silent column")
	}
}
