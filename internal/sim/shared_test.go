package sim

import (
	"reflect"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/partition"
	"sparcs/internal/taskgraph"
)

// twoBankConfig builds a stage with two independently arbitrated banks:
// A/B contend on bankS, C/D on bankT — the minimal host for a source
// spanning two resources.
func twoBankConfig() Config {
	g := &taskgraph.Graph{
		Name: "twobank",
		Segments: []*taskgraph.Segment{
			{Name: "S", SizeBytes: 1024, WidthBits: 32},
			{Name: "T", SizeBytes: 1024, WidthBits: 32},
		},
		Tasks: []*taskgraph.Task{
			{Name: "A", AreaCLBs: 10, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "B", AreaCLBs: 10, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "C", AreaCLBs: 10, Accesses: []taskgraph.Access{{Segment: "T", Kind: taskgraph.Write}}},
			{Name: "D", AreaCLBs: 10, Accesses: []taskgraph.Access{{Segment: "T", Kind: taskgraph.Write}}},
		},
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	prog := func(res, seg string, base int) behav.Program {
		return behav.Program{Body: []behav.Instr{
			behav.Req(res), behav.WaitGrant(res),
			behav.WriteImm(seg, base, int64(base)),
			behav.Release(res),
			behav.Compute(2),
		}, Repeat: 30}
	}
	return Config{
		Graph: g,
		Tasks: []string{"A", "B", "C", "D"},
		Programs: map[string]behav.Program{
			"A": prog("bankS", "S", 0), "B": prog("bankS", "S", 10),
			"C": prog("bankT", "T", 0), "D": prog("bankT", "T", 10),
		},
		Arbiters: []partition.ArbiterSpec{
			arbSpec("bankS", "A", "B"),
			arbSpec("bankT", "C", "D"),
		},
		ResourceOfSegment: map[string]string{"S": "bankS", "T": "bankT"},
		Memory:            NewMemory(),
	}
}

// orderedAcquirer is a deterministic hold-and-wait source over k
// resources, packed like workload.SharedSource (bit r·lanes+j = lane j
// on resource r): each lane idles `gap` cycles, acquires the resources
// in order (holding earlier grants), holds everything for `hold`
// all-held cycles, releases, and repeats. No randomness, so assertions
// can be exact.
type orderedAcquirer struct {
	k, lanes  int
	gap, hold int
	shifts    []uint // r·lanes, resource r's window in the packed word
	idleLeft  []int
	stage     []int
	heldFor   []int
}

// orderedSource attaches an orderedAcquirer to the named resources.
func orderedSource(resources []string, lanes, gap, hold int) Source {
	o := &orderedAcquirer{k: len(resources), lanes: lanes, gap: gap, hold: hold}
	for r := range resources {
		o.shifts = append(o.shifts, uint(r*lanes))
	}
	o.Reset()
	return Source{Resources: resources, Gen: o}
}

func (o *orderedAcquirer) Name() string { return "ordered" }
func (o *orderedAcquirer) N() int       { return o.k * o.lanes }

func (o *orderedAcquirer) Reset() {
	o.idleLeft = make([]int, o.lanes)
	o.stage = make([]int, o.lanes)
	o.heldFor = make([]int, o.lanes)
	for j := range o.stage {
		o.idleLeft[j] = o.gap
		o.stage[j] = -1
	}
}

func (o *orderedAcquirer) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	var req arbiter.BitVec
	for j := 0; j < o.lanes; j++ {
		bit := arbiter.BitVec(1) << uint(j)
		switch {
		case o.stage[j] < 0:
			if o.idleLeft[j] > 0 {
				o.idleLeft[j]--
			} else {
				o.stage[j] = 0
			}
		case o.stage[j] < o.k:
			if prevGrant>>o.shifts[o.stage[j]]&bit != 0 {
				o.stage[j]++
			}
		}
		if o.stage[j] == o.k {
			all := true
			for _, sh := range o.shifts {
				all = all && prevGrant>>sh&bit != 0
			}
			if all {
				o.heldFor[j]++
			}
			if o.heldFor[j] >= o.hold {
				o.stage[j] = -1
				o.heldFor[j] = 0
				o.idleLeft[j] = o.gap
			}
		}
		for r := 0; r <= o.stage[j] && r < o.k; r++ {
			req |= bit << o.shifts[r]
		}
	}
	return req
}

// greedyShared requests every line on every resource every cycle — the
// multi-resource hog, for stats-accounting invariants.
type greedyShared struct{ n int }

func (gr *greedyShared) Name() string                           { return "greedy" }
func (gr *greedyShared) N() int                                 { return gr.n }
func (gr *greedyShared) Reset()                                 {}
func (gr *greedyShared) NextBits(arbiter.BitVec) arbiter.BitVec { return arbiter.Mask(gr.n) }

// silentShared never requests and is statically silent: Run must elide
// it entirely.
type silentShared struct{ greedyShared }

func (s *silentShared) Silent() bool                           { return true }
func (s *silentShared) NextBits(arbiter.BitVec) arbiter.BitVec { return 0 }

// TestSharedWiringErrors: a correlated source is rejected before any
// cycle runs when it has no generator, names a resource twice or one no
// arbiter guards, or claims lines that do not split evenly over its
// resources or do not fit one request word.
func TestSharedWiringErrors(t *testing.T) {
	cases := []struct {
		name string
		src  Source
	}{
		{"nil generator", Source{Resources: []string{"bankS", "bankT"}}},
		{"duplicate resource", orderedSource([]string{"bankS", "bankS"}, 1, 1, 1)},
		{"unknown resource", orderedSource([]string{"bankS", "bankX"}, 1, 1, 1)},
		{"zero lanes", orderedSource([]string{"bankS", "bankT"}, 0, 1, 1)},
		{"uneven lanes", Source{Resources: []string{"bankS", "bankT"}, Gen: &greedyShared{n: 3}}},
		// Each 50-lane window fits its arbiter, but the packed word
		// does not.
		{"past-word", Source{Resources: []string{"bankS", "bankT"}, Gen: &greedyShared{n: 100}}},
	}
	for _, c := range cases {
		cfg := twoBankConfig()
		cfg.Sources = []Source{c.src}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run should error", c.name)
		}
	}
}

// TestSharedWidensPolicies: lanes append to every spanned arbiter after
// member lines, policies size over the widened counts, traces record
// the widened width, and per-line phantom stats land in
// Stats.Contention for both resources.
func TestSharedWidensPolicies(t *testing.T) {
	cfg := twoBankConfig()
	cfg.Sources = []Source{orderedSource([]string{"bankS", "bankT"}, 2, 1, 2)}
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both arbiters: 2 members + 2 lanes = 4 lines.
	for _, res := range []string{"bankS", "bankT"} {
		tr := stats.ArbiterTraces[res]
		if len(tr.Steps) == 0 || tr.N != 4 {
			t.Fatalf("%s trace of %d steps is %d lines wide, want 4", res, len(tr.Steps), tr.N)
		}
		cs := stats.Contention[res]
		if cs == nil || len(cs.Grants) != 2 || len(cs.Waits) != 2 {
			t.Fatalf("%s contention stats = %+v", res, cs)
		}
	}
	if len(stats.Shared) != 1 {
		t.Fatalf("shared stats = %d entries", len(stats.Shared))
	}
	sh := stats.Shared[0]
	if sh.Name != "ordered" || !reflect.DeepEqual(sh.Resources, []string{"bankS", "bankT"}) {
		t.Fatalf("shared header = %+v", sh)
	}
	if sh.AllHeld == 0 {
		t.Fatal("the ordered acquirer never completed a critical section")
	}
	// The shared per-resource totals equal the per-line phantom counts.
	for i, res := range sh.Resources {
		cs := stats.Contention[res]
		if g := cs.Grants[0] + cs.Grants[1]; g != sh.Grants[i] {
			t.Fatalf("%s grants: contention %d vs shared %d", res, g, sh.Grants[i])
		}
		if w := cs.Waits[0] + cs.Waits[1]; w != sh.Waits[i] {
			t.Fatalf("%s waits: contention %d vs shared %d", res, w, sh.Waits[i])
		}
	}
}

// TestSharedStatsInvariants drives the greedy multi-resource hog and
// checks the accounting identities: every lane-cycle on a resource is
// either a grant or a wait, and the overlap counters are bounded.
func TestSharedStatsInvariants(t *testing.T) {
	cfg := twoBankConfig()
	cfg.Sources = []Source{{Resources: []string{"bankS", "bankT"}, Gen: &greedyShared{n: 4}}}
	// The greedy hog never releases, so the members starve; bound the
	// watchdog instead of simulating ten million stuck cycles.
	cfg.MaxCycles = 5_000
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := stats.Shared[0]
	laneCycles := 2 * stats.Cycles
	for i := range sh.Resources {
		if got := sh.Grants[i] + sh.Waits[i]; got != laneCycles {
			t.Fatalf("resource %d: grants+waits = %d, want %d (always requesting)", i, got, laneCycles)
		}
	}
	if sh.AllHeld > sh.Grants[0] || sh.AllHeld > sh.Grants[1] {
		t.Fatalf("AllHeld %d exceeds a grant count %v", sh.AllHeld, sh.Grants)
	}
	if sh.HoldWait+sh.AllHeld > laneCycles {
		t.Fatalf("HoldWait %d + AllHeld %d exceeds lane-cycles %d", sh.HoldWait, sh.AllHeld, laneCycles)
	}
	if sh.AllHeld == 0 {
		t.Fatal("a non-preemptive arbiter lets the first greedy lane keep both banks: AllHeld must accumulate")
	}
}

// TestSharedCircularHoldWait wires two sources over the same banks in
// opposite acquisition orders with a hold longer than the run: each
// deterministically acquires its first bank on cycle 0, then waits
// forever for the other's — the circular hold-and-wait the overlap
// counter exists to expose. The watchdog reports the starved members.
func TestSharedCircularHoldWait(t *testing.T) {
	cfg := twoBankConfig()
	cfg.Sources = []Source{
		orderedSource([]string{"bankS", "bankT"}, 1, 0, 1_000_000),
		orderedSource([]string{"bankT", "bankS"}, 1, 0, 1_000_000),
	}
	cfg.MaxCycles = 2_000
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Done {
		t.Fatal("the circular hold-and-wait should deadlock the stage")
	}
	timeout := false
	for _, v := range stats.Violations {
		timeout = timeout || v.Kind == "deadlock-or-timeout"
	}
	if !timeout {
		t.Fatalf("no deadlock-or-timeout violation: %v", stats.Violations)
	}
	if len(stats.Shared) != 2 {
		t.Fatalf("shared stats = %d entries", len(stats.Shared))
	}
	for i, sh := range stats.Shared {
		// Each source holds its first bank from cycle 1 on and waits on
		// the other for essentially the whole run.
		if sh.HoldWait < stats.Cycles-10 {
			t.Fatalf("source %d: HoldWait = %d over %d cycles; expected near-total overlap", i, sh.HoldWait, stats.Cycles)
		}
		if sh.AllHeld != 0 {
			t.Fatalf("source %d: AllHeld = %d; the interlock must prevent any critical section", i, sh.AllHeld)
		}
	}
}

// TestSharedSilentElision: a statically silent shared source is a
// byte-identical no-op, exactly like silent single-resource sources.
func TestSharedSilentElision(t *testing.T) {
	base, err := Run(twoBankConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := twoBankConfig()
	cfg.Sources = []Source{{Resources: []string{"bankS", "bankT"}, Gen: &silentShared{greedyShared{n: 6}}}}
	quiet, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, quiet) {
		t.Fatal("silent shared source perturbed the run")
	}
	// But a typo'd resource still errors even when silent.
	cfg = twoBankConfig()
	cfg.Sources = []Source{{Resources: []string{"bankS", "bankX"}, Gen: &silentShared{greedyShared{n: 2}}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("silent source with unknown resource should still error")
	}
}

// TestCaptureOnly: per-resource trace taps record exactly the named
// resources, and the recorded stream matches a full-capture run.
func TestCaptureOnly(t *testing.T) {
	full, err := Run(twoBankConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := twoBankConfig()
	cfg.CaptureOnly = []string{"bankT"}
	tapped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr := tapped.ArbiterTraces["bankS"]; tr != nil {
		t.Fatalf("bankS should not record under CaptureOnly bankT; got %d steps", len(tr.Steps))
	}
	if !reflect.DeepEqual(tapped.ArbiterTraces["bankT"], full.ArbiterTraces["bankT"]) {
		t.Fatal("bankT trace under CaptureOnly differs from full capture")
	}
	// Everything except the traces is unchanged.
	tapped.ArbiterTraces, full.ArbiterTraces = nil, nil
	if !reflect.DeepEqual(tapped, full) {
		t.Fatal("CaptureOnly perturbed non-trace stats")
	}
}
