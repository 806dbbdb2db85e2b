package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sparcs/internal/arbiter"
)

// TestGeneratorsDeterministic: every shape replays the identical
// experiment for the same seed, and Reset restores the initial state.
func TestGeneratorsDeterministic(t *testing.T) {
	const n = 6
	for _, spec := range DefaultWorkloads() {
		run := func(g Generator) *Metrics {
			p := arbiter.NewRoundRobin(n)
			m, err := Drive(p, g, 20000)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		g1, err := NewGenerator(spec, n, 42)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		g2, err := NewGenerator(spec, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		a, b := run(g1), run(g2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different metrics", spec)
		}
		g1.Reset()
		if c := run(g1); !reflect.DeepEqual(a, c) {
			t.Errorf("%s: Reset did not restore the initial state", spec)
		}
		g3, err := NewGenerator(spec, n, 43)
		if err != nil {
			t.Fatal(err)
		}
		if spec != "trace" && reflect.DeepEqual(a, run(g3)) {
			t.Errorf("%s: different seeds produced identical metrics", spec)
		}
	}
}

// TestGeneratorShapes: each shape produces its advertised traffic
// pattern when arbitrated by round-robin.
func TestGeneratorShapes(t *testing.T) {
	const n, cycles = 6, 50000
	drive := func(spec string) *Metrics {
		g, err := NewGenerator(spec, n, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Drive(arbiter.NewRoundRobin(n), g, cycles)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Hog: task 1 requests every cycle, grabs the resource once, and
	// never lets go — full utilization, minimal fairness.
	m := drive("hog")
	if m.Tasks[0].Grants < int64(cycles)-10 {
		t.Errorf("hog: task 1 held %d of %d cycles", m.Tasks[0].Grants, cycles)
	}
	if j := m.Jain(); j > 1.0/float64(n)+0.01 {
		t.Errorf("hog under round-robin: Jain %.3f, want ~%.3f (monopoly)", j, 1.0/float64(n))
	}

	// Hotspot: task 1 dominates but others still get served.
	m = drive("hotspot:0.90")
	var others int64
	for _, tm := range m.Tasks[1:] {
		others += tm.Grants
	}
	if m.Tasks[0].Grants < 2*others/int64(n-1) {
		t.Errorf("hotspot: task 1 got %d grants vs mean other %d — not hot enough",
			m.Tasks[0].Grants, others/int64(n-1))
	}
	if others == 0 {
		t.Error("hotspot: cold tasks starved under round-robin")
	}

	// Bernoulli at 0.30 with hold 2 saturates a 6-task arbiter.
	m = drive("bernoulli:0.30")
	if u := m.Utilization(); u < 0.95 {
		t.Errorf("bernoulli:0.30: utilization %.3f, want near 1", u)
	}
	if j := m.Jain(); j < 0.95 {
		t.Errorf("bernoulli under round-robin: Jain %.3f, want ~1", j)
	}

	// Bursty and markov alternate between load and silence: utilization
	// strictly between idle and saturated.
	for _, spec := range []string{"bursty", "markov"} {
		m = drive(spec)
		if u := m.Utilization(); u < 0.1 || u > 0.99 {
			t.Errorf("%s: utilization %.3f, want intermediate", spec, u)
		}
	}

	// The built-in trace is open-loop and fully deterministic: demand
	// equals the pattern's duty cycle regardless of policy.
	a := drive("trace")
	g, err := NewGenerator("trace", n, 999)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Drive(arbiter.NewPriority(n), g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if a.DemandCycles != b.DemandCycles {
		t.Errorf("trace demand depends on policy/seed: %d vs %d", a.DemandCycles, b.DemandCycles)
	}
}

// TestDriveHandComputed pins every metric on a 4-cycle trace computed
// by hand: task 1 is served instantly and holds two cycles, task 2
// waits one cycle behind it, then the system drains.
func TestDriveHandComputed(t *testing.T) {
	g, err := NewTrace("hand", 2, []arbiter.BitVec{0b01, 0b11, 0b10, 0b00})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Drive(arbiter.NewRoundRobin(2), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.GrantedCycles != 3 || m.DemandCycles != 3 {
		t.Errorf("granted/demand = %d/%d, want 3/3", m.GrantedCycles, m.DemandCycles)
	}
	if u := m.Utilization(); u != 0.75 {
		t.Errorf("utilization %.3f, want 0.75", u)
	}
	if m.Tasks[0].Grants != 2 || m.Tasks[1].Grants != 1 {
		t.Errorf("grants %d/%d, want 2/1", m.Tasks[0].Grants, m.Tasks[1].Grants)
	}
	if m.Tasks[0].MaxWait != 0 || m.Tasks[1].MaxWait != 1 {
		t.Errorf("max waits %d/%d, want 0/1", m.Tasks[0].MaxWait, m.Tasks[1].MaxWait)
	}
	if m.Tasks[0].Services != 1 || m.Tasks[1].Services != 1 {
		t.Errorf("services %d/%d, want 1/1", m.Tasks[0].Services, m.Tasks[1].Services)
	}
	// Jain over grants (2,1): (3²)/(2·5) = 0.9.
	if j := m.Jain(); j < 0.899 || j > 0.901 {
		t.Errorf("Jain %.4f, want 0.9", j)
	}
	if m.WaitHist[0] != 1 || m.WaitHist[1] != 1 {
		t.Errorf("wait histogram %v: want one zero-wait and one 1-cycle wait", m.WaitHist)
	}
	if m.Violation != "" {
		t.Errorf("unexpected violation %q", m.Violation)
	}
}

// TestDriveErrors: mismatched sizes and empty runs fail cleanly.
func TestDriveErrors(t *testing.T) {
	g, err := NewGenerator("bernoulli", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(arbiter.NewRoundRobin(6), g, 100); err == nil {
		t.Error("size mismatch should error")
	}
	if _, err := Drive(arbiter.NewRoundRobin(4), g, 0); err == nil {
		t.Error("zero cycles should error")
	}
}

// TestNewGeneratorErrors: the workload grammar rejects malformed specs.
func TestNewGeneratorErrors(t *testing.T) {
	for _, spec := range []string{
		"", "tsunami", "bernoulli:0", "bernoulli:1.5", "bernoulli:x",
		"bernoulli:NaN", "hotspot:nan", "bernoulli:inf",
		"hotspot:-1", "bursty:3", "markov:0.5", "hog:1", "trace:foo",
	} {
		if _, err := NewGenerator(spec, 4, 1); err == nil {
			t.Errorf("NewGenerator(%q) should error", spec)
		}
	}
	// The exported constructors reject what the grammar cannot express:
	// a job that never requests, and a NaN rate.
	for _, hold := range []int{0, -3} {
		if _, err := NewBernoulli(4, 0.5, hold, 1); err == nil {
			t.Errorf("NewBernoulli with hold %d should error", hold)
		}
		if _, err := NewHotspot(4, 0.5, hold, 1); err == nil {
			t.Errorf("NewHotspot with hold %d should error", hold)
		}
	}
	if _, err := NewBernoulli(4, math.NaN(), 2, 1); err == nil {
		t.Error("NewBernoulli with a NaN rate should error")
	}
	for _, n := range []int{0, arbiter.MaxN + 1} {
		if _, err := NewGenerator("bernoulli", n, 1); err == nil {
			t.Errorf("NewGenerator at N=%d should error", n)
		}
	}
	if _, err := NewTrace("empty", 2, nil); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := NewTrace("wide", 2, []arbiter.BitVec{0b100}); err == nil {
		t.Error("a trace requesting a line beyond its width should error")
	}
}

// TestArrivals: an arrival process reports only rising edges of its
// generator's request line, only on stride boundaries, replays after
// Reset, and rejects malformed specs.
func TestArrivals(t *testing.T) {
	const stride, ticks = 64, 100_000
	a, err := NewArrivals("bursty/64", 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "bursty/64" {
		t.Errorf("name %q, want bursty/64", a.Name())
	}
	run := func() []int {
		var at []int
		for c := 0; c < ticks; c++ {
			if a.Tick() {
				at = append(at, c)
			}
		}
		return at
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("bursty/64 never arrived")
	}
	for _, c := range first {
		if (c+1)%stride != 0 {
			t.Fatalf("arrival at tick %d is off the stride-%d grid", c, stride)
		}
	}
	a.Reset()
	if again := run(); !reflect.DeepEqual(first, again) {
		t.Error("Reset did not replay the arrival process")
	}
	// p=1 with hold 2: the line rises once and never drops, because each
	// job ends on the cycle the next one arrives.
	one, err := NewArrivals("bernoulli:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 100; c++ {
		if got := one.Tick(); got != (c == 0) {
			t.Fatalf("bernoulli:1 tick %d: arrival %v", c, got)
		}
	}
	for _, bad := range []string{"bursty/0", "bursty/x", "tsunami", "bernoulli:NaN/4"} {
		if _, err := NewArrivals(bad, 1); err == nil {
			t.Errorf("NewArrivals(%q) should error", bad)
		}
	}
}

// TestEveryPolicyEveryWorkloadProperties is the full-grid property
// sweep the issue asks for: every reachable policy under every traffic
// shape upholds mutual exclusion, grant-implies-request, and work
// conservation (checked online by Drive), and the round-robin family
// additionally upholds the N-1 grant-episode bound under every shape.
func TestEveryPolicyEveryWorkloadProperties(t *testing.T) {
	const n, cycles = 6, 8000
	bounded := map[string]bool{
		"rr": true, "fsm": true, "netlist:one-hot": true,
		"preemptive:4": true, "wrr:2": true, "hier:2": true,
	}
	for _, pspec := range DefaultPolicies() {
		for _, wspec := range DefaultWorkloads() {
			p, err := arbiter.NewPolicy(pspec, n)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGenerator(wspec, n, 11)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Drive(p, g, cycles)
			if err != nil {
				t.Fatal(err)
			}
			if m.Violation != "" {
				t.Errorf("%s × %s: %s", pspec, wspec, m.Violation)
			}
			if bounded[pspec] {
				if w := m.WorstEpisodes(); w > n-1 {
					t.Errorf("%s × %s: worst wait %d episodes, bound %d", pspec, wspec, w, n-1)
				}
			}
		}
	}
}

// TestNewPoliciesCheckAllUnderEveryWorkload replays the two new
// policies through the trace-based check.go property suite under every
// workload shape — the explicit CheckAll coverage the issue asks for.
func TestNewPoliciesCheckAllUnderEveryWorkload(t *testing.T) {
	const n, cycles = 6, 4000
	for _, pspec := range []string{"wrr:2", "wrr:1,2,3,1,2,3", "hier:2", "hier:3"} {
		for _, wspec := range DefaultWorkloads() {
			p, err := arbiter.NewPolicy(pspec, n)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGenerator(wspec, n, 23)
			if err != nil {
				t.Fatal(err)
			}
			var req, grant arbiter.BitVec
			steps := make([]arbiter.TraceStep, 0, cycles)
			for c := 0; c < cycles; c++ {
				req = g.NextBits(grant)
				grant = p.StepBits(req)
				steps = append(steps, arbiter.TraceStep{Req: req, Grant: grant})
			}
			if err := arbiter.CheckAll(n, steps); err != nil {
				t.Errorf("%s × %s: %v", pspec, wspec, err)
			}
		}
	}
}

// TestRunGridDeterministicAndOrdered: the grid returns one cell per
// policy×workload pair in row-major order and is reproducible.
func TestRunGridDeterministicAndOrdered(t *testing.T) {
	policies := []string{"rr", "priority", "wrr:2"}
	workloads := []string{"bernoulli:0.30", "hog"}
	opt := GridOptions{N: 4, Cycles: 3000, Seed: 9}
	a, err := RunGrid(policies, workloads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(policies)*len(workloads) {
		t.Fatalf("got %d cells, want %d", len(a), len(policies)*len(workloads))
	}
	for pi, ps := range policies {
		for wi, ws := range workloads {
			m := a[pi*len(workloads)+wi]
			wantW := strings.SplitN(ws, ":", 2)[0]
			if !strings.HasPrefix(m.Workload, wantW) {
				t.Errorf("cell (%s,%s) reports workload %q", ps, ws, m.Workload)
			}
		}
	}
	b, err := RunGrid(policies, workloads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("grid is not deterministic")
	}
	// Same workload column, same seed: every policy faced the same
	// offered process; the open-loop demand of hog's pinned task is
	// bitwise equal across rows.
	if a[0].Tasks[0].Grants == 0 {
		t.Error("rr × bernoulli: task 1 never granted")
	}
}

// TestRunGridValidatesUpfront: bad specs fail before any cell runs.
func TestRunGridValidatesUpfront(t *testing.T) {
	if _, err := RunGrid([]string{"lottery"}, []string{"hog"}, GridOptions{N: 4, Cycles: 10}); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := RunGrid([]string{"hier:3"}, []string{"hog"}, GridOptions{N: 4, Cycles: 10}); err == nil {
		t.Error("indivisible hier grouping should error at grid setup")
	}
	if _, err := RunGrid([]string{"rr"}, []string{"tsunami"}, GridOptions{N: 4, Cycles: 10}); err == nil {
		t.Error("unknown workload should error")
	}
	if _, err := RunGrid([]string{}, []string{"hog"}, GridOptions{}); err == nil {
		t.Error("empty (non-nil) policy list should error")
	}
	if _, err := RunGridColumns([]string{"rr"}, []Column{{Name: "bare"}}, GridOptions{N: 4, Cycles: 10}); err == nil {
		t.Error("a column without a generator factory should error")
	}
	// nil means the full default list.
	ms, err := RunGrid(nil, []string{"hog"}, GridOptions{N: 4, Cycles: 500})
	if err != nil {
		t.Fatalf("nil policies should evaluate the defaults: %v", err)
	}
	if len(ms) != len(DefaultPolicies()) {
		t.Errorf("nil policies ran %d cells, want %d", len(ms), len(DefaultPolicies()))
	}
}

// TestFormatTable: the rendering is aligned, complete, and flags
// violations.
func TestFormatTable(t *testing.T) {
	ms, err := RunGrid([]string{"rr", "fifo"}, []string{"hog", "trace"}, GridOptions{N: 4, Cycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	table := FormatTable(ms)
	for _, want := range []string{"policy", "workload", "jain", "worst_ep", "round-robin", "fifo", "hog", "trace"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 1+len(ms) {
		t.Errorf("table has %d lines, want %d", len(lines), 1+len(ms))
	}
}

// BenchmarkDrive measures Drive's loop per cycle under behavioral
// round-robin and every generated shape of the default grid, at the
// FFT's N=6 and at the full word, N=64. The loop must not allocate: a
// shape fails the benchmark if 512 cycles of it allocate anything.
func BenchmarkDrive(b *testing.B) {
	for _, n := range []int{6, arbiter.MaxN} {
		for _, spec := range DefaultWorkloads() {
			g, err := NewGenerator(spec, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := g.(arriver); !ok {
				continue // a replayed trace draws nothing
			}
			b.Run(fmt.Sprintf("%s/n%d", spec, n), func(b *testing.B) {
				g.Reset()
				d := newDriver(arbiter.NewRoundRobin(n), g, g, max(b.N, 1))
				if allocs := testing.AllocsPerRun(1, func() { d.advance(512) }); allocs != 0 {
					b.Fatalf("%v allocations in 512 cycles, want 0", allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				d.advance(max(b.N, 1))
				if m := d.flush(); m.Violation != "" {
					b.Fatal(m.Violation)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}
