package sparcs_test

import (
	"reflect"
	"strings"
	"testing"

	"sparcs"
)

// TestScenarioZeroChurnMatchesRun is the scenario engine's anchor to
// the static flow: one job, no neighbors, no cross-contention must be
// the same experiment as a plain System.Run — identical per-stage
// sim.Stats and an identical final memory image, for a bare run and for
// a composed one (policy + background contention + seed). Several jobs
// of two classes sharing the fabric must each match their class's run.
func TestScenarioZeroChurnMatchesRun(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []sparcs.RunOption
	}{
		{"bare", nil},
		{"composed", []sparcs.RunOption{
			sparcs.WithPolicy("wrr:2"),
			sparcs.WithContention("M1=hog/1"),
			sparcs.WithSeed(7),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := sys.Run(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, prefetch := range []string{sparcs.PrefetchNone, sparcs.PrefetchHybrid} {
				res, err := sparcs.RunScenario(sparcs.ScenarioConfig{
					Entries:   []sparcs.ScenarioEntry{{System: sys, Options: tc.opts}},
					Jobs:      1,
					Prefetch:  prefetch,
					KeepStats: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Jobs) != 1 {
					t.Fatalf("%d job reports, want 1", len(res.Jobs))
				}
				j := res.Jobs[0]
				if len(j.Stages) != len(ref.Stages) {
					t.Fatalf("prefetch=%s: %d stage stats, want %d", prefetch, len(j.Stages), len(ref.Stages))
				}
				for i := range ref.Stages {
					if !reflect.DeepEqual(ref.Stages[i].Stats, j.Stages[i]) {
						t.Fatalf("prefetch=%s: stage %d stats diverge from System.Run:\nrun:      %+v\nscenario: %+v",
							prefetch, i, ref.Stages[i].Stats, j.Stages[i])
					}
				}
				if !reflect.DeepEqual(ref.Memory, j.Memory) {
					t.Fatalf("prefetch=%s: final memory image diverges from System.Run", prefetch)
				}
				if j.ArbWait == 0 && tc.name == "composed" {
					t.Fatalf("composed run reports zero arbiter wait; contention was dropped")
				}
			}
		})
	}
	t.Run("multi-job", func(t *testing.T) {
		large, err := sparcs.FFTSystem(3)
		if err != nil {
			t.Fatal(err)
		}
		entries := []sparcs.ScenarioEntry{
			{System: sys},
			{System: large, Options: []sparcs.RunOption{
				sparcs.WithPolicy("wrr:2"),
				sparcs.WithContention("M1=hog/1"),
				sparcs.WithSeed(7),
			}},
		}
		var refs []*sparcs.Result
		for _, ent := range entries {
			ref, err := ent.System.Run(ent.Options...)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
		cfg := sparcs.ScenarioConfig{
			Entries:         entries,
			Arrivals:        "bursty/256",
			Jobs:            6,
			Seed:            1,
			FabricCols:      192, // two residents at a time
			FabricRows:      24,
			CompactionDelay: 64,
			KeepStats:       true,
		}
		res, err := sparcs.RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != cfg.Jobs {
			t.Fatalf("%d job reports, want %d", len(res.Jobs), cfg.Jobs)
		}
		for _, j := range res.Jobs {
			ref := refs[j.ID%len(refs)]
			if len(j.Stages) != len(ref.Stages) {
				t.Fatalf("job %d: %d stage stats, want %d", j.ID, len(j.Stages), len(ref.Stages))
			}
			for i := range ref.Stages {
				if !reflect.DeepEqual(ref.Stages[i].Stats, j.Stages[i]) {
					t.Fatalf("job %d: stage %d stats diverge from System.Run", j.ID, i)
				}
			}
			if !reflect.DeepEqual(ref.Memory, j.Memory) {
				t.Fatalf("job %d: final memory image diverges from System.Run", j.ID)
			}
		}
		// Each job owns its image: a write into one shows in no other
		// job's image, nor in the class's.
		for i, j := range res.Jobs {
			for _, k := range res.Jobs[i+1:] {
				if j.Memory == k.Memory {
					t.Fatalf("jobs %d and %d share one memory image", j.ID, k.ID)
				}
			}
		}
		res.Jobs[0].Memory.Write("MO0", 0, -1)
		if reflect.DeepEqual(refs[0].Memory, res.Jobs[0].Memory) {
			t.Fatal("the probe write did not change job 0's image")
		}
		for _, j := range res.Jobs[1:] {
			if !reflect.DeepEqual(refs[j.ID%len(refs)].Memory, j.Memory) {
				t.Fatalf("a write into job 0's image shows in job %d's", j.ID)
			}
		}
		cfg.KeepStats = false
		if res, err = sparcs.RunScenario(cfg); err != nil {
			t.Fatal(err)
		}
		for _, j := range res.Jobs {
			if j.Stages != nil || j.Memory != nil {
				t.Fatalf("job %d retains stats or memory without KeepStats", j.ID)
			}
		}
	})
}

// TestRunScenarioValidation pins the facade's error surface.
func TestRunScenarioValidation(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sparcs.RunScenario(sparcs.ScenarioConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := sparcs.RunScenario(sparcs.ScenarioConfig{
		Entries: []sparcs.ScenarioEntry{{System: sys, Options: []sparcs.RunOption{sparcs.WithMemory(sparcs.NewMemory())}}},
		Jobs:    1,
	}); err == nil {
		t.Fatal("WithMemory accepted: scenario jobs must own their memory images")
	}
	if _, err := sparcs.RunScenario(sparcs.ScenarioConfig{
		Entries:         []sparcs.ScenarioEntry{{System: sys}},
		Jobs:            1,
		CrossContention: "no-such-shape",
	}); err == nil {
		t.Fatal("bad cross-contention spec accepted")
	}
	if _, err := sparcs.RunScenario(sparcs.ScenarioConfig{
		Entries: []sparcs.ScenarioEntry{{System: sys, Options: []sparcs.RunOption{sparcs.WithPolicy("no-such-policy")}}},
		Jobs:    1,
	}); err == nil {
		t.Fatal("bad policy accepted")
	}
	// Cross-contention replaces a running stage's contention, so an
	// entry bringing its own is refused instead of silently losing it
	// once the entry has a co-resident.
	_, err = sparcs.RunScenario(sparcs.ScenarioConfig{
		Entries:         []sparcs.ScenarioEntry{{Name: "loaded", System: sys, Options: []sparcs.RunOption{sparcs.WithContention("M1=bursty/1")}}},
		Jobs:            3,
		CrossContention: "bernoulli:0.02",
	})
	if err == nil || !strings.Contains(err.Error(), "loaded") {
		t.Fatalf("entry contention with CrossContention: err = %v, want a rejection naming the class", err)
	}
}
