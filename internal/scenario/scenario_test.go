package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/behav"
	"sparcs/internal/core"
	"sparcs/internal/fft"
	"sparcs/internal/partition"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// fftClass compiles the Section 5 FFT case study as a scenario class,
// mirroring the root System's run composition (paper stages, traces
// disabled).
func fftClass(t testing.TB, tiles int, name string) Class {
	t.Helper()
	opts := core.Options{
		Partition:     partition.Options{FixedStages: fft.PaperStages()},
		DisableTraces: true,
	}
	d, err := core.Compile(fft.Taskgraph(), rc.Wildforce(), fft.Programs(tiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	return Class{Name: name, Design: d, Opts: opts}
}

// churnConfig is a scenario small enough for tests but busy enough to
// exercise queueing, placement failure, and compaction: a fabric
// holding two residents, six staggered arrivals.
func churnConfig(t testing.TB) Config {
	return Config{
		Classes:         []Class{fftClass(t, 2, "fft2"), fftClass(t, 3, "fft3")},
		Arrivals:        "bursty/256",
		Jobs:            6,
		Seed:            1,
		FabricCols:      192,
		FabricRows:      24,
		CompactionDelay: 64,
	}
}

// TestScenarioDeterminism: the engine is a pure function of its config
// — two runs with the same seed produce byte-identical reports, across
// every placement x prefetch mode and with cross-contention active.
// Without KeepStats no job retains its stats or memory.
func TestScenarioDeterminism(t *testing.T) {
	for _, placement := range []string{PlaceFirstFit, PlaceBestFit} {
		for _, prefetch := range []string{PrefetchNone, PrefetchHybrid} {
			cfg := churnConfig(t)
			cfg.Placement = placement
			cfg.Prefetch = prefetch
			cfg.CrossContention = "bernoulli:0.30"
			var prev []byte
			for pass := 0; pass < 2; pass++ {
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s pass %d: %v", placement, prefetch, pass, err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if pass > 0 && !bytes.Equal(prev, b) {
					t.Fatalf("%s/%s: runs with one seed diverged:\nfirst:  %s\nsecond: %s",
						placement, prefetch, prev, b)
				}
				prev = b
				for _, j := range res.Jobs {
					if j.Stages != nil || j.Memory != nil {
						t.Fatalf("%s/%s: job %d retains stats or memory without KeepStats", placement, prefetch, j.ID)
					}
				}
			}
		}
	}
}

// TestScenarioOracleBound: the offline full-knowledge bound never
// exceeds any online schedule, and hybrid prefetch never loses to
// no-prefetch on stall cycles under identical arrivals.
func TestScenarioOracleBound(t *testing.T) {
	for _, arrivals := range []string{"", "bursty/256", "markov/256"} {
		var stalls = map[string]int64{}
		for _, placement := range []string{PlaceFirstFit, PlaceBestFit} {
			for _, prefetch := range []string{PrefetchNone, PrefetchHybrid} {
				cfg := churnConfig(t)
				cfg.Arrivals = arrivals
				cfg.Placement = placement
				cfg.Prefetch = prefetch
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%q %s/%s: %v", arrivals, placement, prefetch, err)
				}
				if res.OracleMakespan <= 0 || res.Makespan < res.OracleMakespan {
					t.Fatalf("%q %s/%s: makespan %d below oracle bound %d",
						arrivals, placement, prefetch, res.Makespan, res.OracleMakespan)
				}
				if len(res.Jobs) != cfg.Jobs {
					t.Fatalf("%q %s/%s: %d job reports, want %d", arrivals, placement, prefetch, len(res.Jobs), cfg.Jobs)
				}
				for _, j := range res.Jobs {
					if j.Finish <= j.Arrive || j.Place < j.Arrive {
						t.Fatalf("%q %s/%s: job %d lifecycle out of order: arrive=%d place=%d finish=%d",
							arrivals, placement, prefetch, j.ID, j.Arrive, j.Place, j.Finish)
					}
					if j.QueueWait != j.Place-j.Arrive {
						t.Fatalf("%q %s/%s: job %d queue wait %d, want place−arrive = %d",
							arrivals, placement, prefetch, j.ID, j.QueueWait, j.Place-j.Arrive)
					}
				}
				stalls[placement+prefetch] = res.StallCycles
			}
		}
		for _, placement := range []string{PlaceFirstFit, PlaceBestFit} {
			if h, n := stalls[placement+PrefetchHybrid], stalls[placement+PrefetchNone]; h > n {
				t.Errorf("%q %s: hybrid prefetch stalls more than no-prefetch (%d > %d)",
					arrivals, placement, h, n)
			}
		}
	}
}

// startEngine builds an engine and starts it as run() does: the forced
// cycle-0 arrival (all arrivals, with no arrival process) and the first
// event dispatch.
func startEngine(t *testing.T, cfg Config) *engine {
	t.Helper()
	e, err := newEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.start(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestScenarioStripInvariants drives the engine event loop by hand and
// verifies the strip-packing invariants (no overlap, nothing outside
// the fabric, consistent shelf bookkeeping) after every handled event,
// under the churniest configuration the suite has.
func TestScenarioStripInvariants(t *testing.T) {
	for _, placement := range []string{PlaceFirstFit, PlaceBestFit} {
		cfg := churnConfig(t)
		cfg.Placement = placement
		cfg.Arrivals = ""   // all six jobs at cycle 0...
		cfg.FabricCols = 96 // ...through a one-resident fabric: deep queue
		cfg.CompactionDelay = 8
		e := startEngine(t, cfg)
		events := 0
		for e.completed < e.cfg.Jobs {
			if e.clock >= cfg.maxCycles() {
				t.Fatalf("%s: watchdog: %d/%d jobs after %d cycles", placement, e.completed, cfg.Jobs, e.clock)
			}
			ev := e.stepCycle()
			if ev == 0 {
				continue
			}
			if err := e.handle(ev); err != nil {
				t.Fatal(err)
			}
			events++
			if err := e.strip.check(); err != nil {
				t.Fatalf("%s: cycle %d: %v", placement, e.clock, err)
			}
			for _, id := range e.residents {
				if _, _, _, _, ok := e.strip.rectOf(id); !ok {
					t.Fatalf("%s: cycle %d: resident %d has no rectangle", placement, e.clock, id)
				}
			}
		}
		if events == 0 {
			t.Fatalf("%s: no events handled", placement)
		}
		if e.placeFails == 0 {
			t.Fatalf("%s: fabric never filled; the invariant sweep did not cover queueing", placement)
		}
	}
}

// TestScenarioCompactionRelocation manufactures the fragmented layout
// the sweep above cannot reach deterministically (real FFT footprints
// are full-height and symmetric) and verifies the whole relocation
// path: the blocked queue head arms the delayed compaction, the repack
// preserves the strip invariants, moved residents pay their area's
// reconfiguration stall, an in-flight port load into a moved region is
// invalidated, and the head finally places.
func TestScenarioCompactionRelocation(t *testing.T) {
	cfg := churnConfig(t)
	cfg.Jobs = 4
	cfg.Arrivals = ""
	e, err := newEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to a synthetic geometry: class 0 is 5x3, class 1 is 6x3,
	// on a 16x3 fabric.
	e.cols, e.rows = 16, 3
	e.strip = newStrip(16, 3, false)
	e.classes[0].w, e.classes[0].h = 5, 3
	e.classes[1].w, e.classes[1].h = 6, 3
	for _, id := range []int{0, 1, 2} {
		if _, _, ok := e.strip.place(id, 5, 3); !ok {
			t.Fatalf("seed placement %d failed", id)
		}
		e.jobs[id] = job{id: id, class: 0, state: stateLoading}
		e.residents = append(e.residents, id)
	}
	// The middle resident departs: two gaps (5 wide at x=5, 1 at x=15),
	// 18 CLBs free in total but nothing contiguous for a 6x3 head.
	e.strip.remove(1)
	e.residents = []int{0, 2}
	e.jobs[3] = job{id: 3, class: 1, state: stateQueued}
	e.queue = append(e.queue, 3)
	e.portJob, e.portRemain = 2, 7 // port mid-load into the region about to move

	e.tryPlace()
	if e.placeFails != 1 {
		t.Fatalf("placeFails = %d, want 1", e.placeFails)
	}
	if e.compactAt != e.clock+cfg.CompactionDelay {
		t.Fatalf("compactAt = %d, want armed at clock+%d", e.compactAt, cfg.CompactionDelay)
	}

	e.doCompact()
	checkStrip(t, e.strip, "after doCompact")
	if e.compactions != 1 || e.movedResidents != 1 {
		t.Fatalf("compactions=%d moved=%d, want 1 and 1", e.compactions, e.movedResidents)
	}
	if got := e.jobs[2].moveRemain; got != 5*3*e.perCLB {
		t.Fatalf("moved resident's stall = %d cycles, want area 15 x perCLB %d", got, e.perCLB)
	}
	if e.portJob != -1 || e.portRemain != 0 {
		t.Fatalf("port still targets job %d (remain %d) after its region moved", e.portJob, e.portRemain)
	}
	e.tryPlace()
	if e.jobs[3].state != stateLoading {
		t.Fatal("queue head still blocked after compaction")
	}
	if x, _, _, _, ok := e.strip.rectOf(3); !ok || x != 10 {
		t.Fatalf("head placed at x=%d ok=%v, want x=10 after residents slid left", x, ok)
	}
}

// TestScenarioStepAllocs pins the hot per-cycle loop at zero
// allocations: once the engine reaches a steady state (residents
// executing, port loading, arrivals ticking, jobs queued), stepCycle
// must not allocate.
func TestScenarioStepAllocs(t *testing.T) {
	cfg := churnConfig(t)
	e := startEngine(t, cfg)
	// Advance until at least one resident is executing.
	running := func() bool {
		for _, id := range e.residents {
			if e.jobs[id].state == stateRunning {
				return true
			}
		}
		return false
	}
	for !running() {
		if e.clock > 1<<20 {
			t.Fatal("engine never reached a running resident")
		}
		if ev := e.stepCycle(); ev != 0 {
			if err := e.handle(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Freeze the countdowns so the measured window stays event-free in
	// the dimensions that would leave the hot path.
	for i := range e.jobs {
		if e.jobs[i].remain > 0 {
			e.jobs[i].remain += 1 << 30
		}
	}
	if e.portRemain > 0 {
		e.portRemain += 1 << 30
	}
	e.compactAt = -1
	if allocs := testing.AllocsPerRun(2000, func() { e.stepCycle() }); allocs != 0 {
		t.Fatalf("stepCycle allocates %v times per cycle, want 0", allocs)
	}
}

// TestScenarioConfigValidation pins the error surface: bad modes, bad
// arrival specs, missing classes, oversized designs.
func TestScenarioConfigValidation(t *testing.T) {
	base := func() Config { return churnConfig(t) }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no classes", func(c *Config) { c.Classes = nil }},
		{"zero jobs", func(c *Config) { c.Jobs = 0 }},
		{"bad placement", func(c *Config) { c.Placement = "tetris" }},
		{"bad prefetch", func(c *Config) { c.Prefetch = "psychic" }},
		{"bad arrivals", func(c *Config) { c.Arrivals = "markov:0.4" }},
		{"nil design", func(c *Config) { c.Classes[0].Design = nil }},
		{"fabric too small", func(c *Config) { c.FabricCols, c.FabricRows = 4, 4 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}

// twoWritersClass compiles a one-stage design whose only arbiter is an
// Arb2 (W1 and W2 write one segment, unordered), run under policy.
func twoWritersClass(t *testing.T, policy string) Class {
	t.Helper()
	g := &taskgraph.Graph{
		Name:     "two-writers",
		Segments: []*taskgraph.Segment{{Name: "S", SizeBytes: 1024, WidthBits: 32}},
		Tasks: []*taskgraph.Task{
			{Name: "W1", AreaCLBs: 50, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
			{Name: "W2", AreaCLBs: 50, Accesses: []taskgraph.Access{{Segment: "S", Kind: taskgraph.Write}}},
		},
	}
	progs := map[string]behav.Program{
		"W1": {Body: []behav.Instr{behav.WriteImm("S", 0, 1)}},
		"W2": {Body: []behav.Instr{behav.WriteImm("S", 1, 2)}},
	}
	sp, err := arbiter.ParsePolicySpec(policy)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Policy: sp, DisableTraces: true}
	d, err := core.Compile(g, rc.Wildforce(), progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Arbiters(); len(got) != 1 || !strings.HasSuffix(got[0], ":2") {
		t.Fatalf("arbiters = %v, want one Arb2", got)
	}
	return Class{Name: "two-writers", Design: d, Opts: opts}
}

// TestCrossContentionCheckedUpFront: newEngine rejects a bad
// cross-contention spec even when no job could have a co-resident, and
// a policy that fits a class's members but not its arbiters widened by
// maxCrossLines, before the clock starts.
func TestCrossContentionCheckedUpFront(t *testing.T) {
	cfg := churnConfig(t)
	cfg.Jobs = 1
	cfg.CrossContention = "no-such-shape"
	if _, err := newEngine(&cfg); err == nil {
		t.Fatal("a bad cross-contention spec was accepted")
	}

	cfg = Config{Classes: []Class{twoWritersClass(t, "wrr:1,1")}, Jobs: 1}
	if _, err := newEngine(&cfg); err != nil {
		t.Fatalf("wrr:1,1 on an Arb2 without cross-contention: %v", err)
	}
	cfg.CrossContention = "bernoulli:0.30"
	if _, err := newEngine(&cfg); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("wrr:1,1 on an Arb2 widened by %d cross lines: err = %v, want the policy rejected", maxCrossLines, err)
	}
}
