package core

import (
	"errors"
	"reflect"
	"testing"

	"sparcs/internal/arbiter"
	"sparcs/internal/sim"
	"sparcs/internal/workload"
)

// TestDuplicateResourceRejected pins the typed rejection of duplicate
// resources in both kinds of spec — and that the compositional cases
// (independent+correlated on one resource, repeated correlated spans)
// remain accepted: those describe independent background processes,
// not a silently merged one.
func TestDuplicateResourceRejected(t *testing.T) {
	assertDup := func(t *testing.T, err error, resource string) {
		t.Helper()
		var dup *DuplicateResourceError
		if !errors.As(err, &dup) {
			t.Fatalf("want *DuplicateResourceError, got %v", err)
		}
		if dup.Resource != resource {
			t.Fatalf("error names resource %q, want %q", dup.Resource, resource)
		}
	}

	specs, err := ParseContention("M1=hog,M1=bursty")
	if specs != nil {
		t.Fatalf("duplicate list returned partial specs %+v", specs)
	}
	assertDup(t, err, "M1")

	if _, err := ParseContention("M1=hog,M3=bursty"); err != nil {
		t.Fatalf("distinct resources rejected: %v", err)
	}

	specs, err = ParseContention("M1+M3+M1=corr")
	if specs != nil {
		t.Fatalf("duplicate span returned partial specs %+v", specs)
	}
	assertDup(t, err, "M1")

	specs, err = ParseContention("M1=hog,M2+M3=corr,M1=bursty")
	if specs != nil {
		t.Fatalf("duplicate mixed list returned partial specs %+v", specs)
	}
	assertDup(t, err, "M1")

	// A resource under both independent and correlated load is two
	// distinct background processes — still accepted.
	if _, err := ParseContention("M1=hog,M1+M3=corr"); err != nil {
		t.Fatalf("independent+correlated composition rejected: %v", err)
	}
	// Repeating a correlated span across entries adds lanes of another
	// correlated source — still accepted.
	if _, err := ParseContention("M1+M3=corr,M1+M3=corr:0.50"); err != nil {
		t.Fatalf("repeated correlated span rejected: %v", err)
	}

	// The run validator applies the same check to the list a run
	// composes, whichever parse (or none) each spec came from.
	d := fakeDesign([]string{"M1", "M3"})
	hog := ContentionSpec{Resources: []string{"M1"}, Workload: "hog"}
	assertDup(t, validateContention(d, []ContentionSpec{hog, hog}), "M1")
	assertDup(t, validateContention(d, []ContentionSpec{{Resources: []string{"M1", "M3", "M1"}, Workload: "corr"}}), "M1")
}

// TestContentionRejectsNaNRate: a NaN arrival rate fails at parse time
// in both kinds of spec, instead of building a background source that
// never requests.
func TestContentionRejectsNaNRate(t *testing.T) {
	for _, spec := range []string{"M1=bernoulli:NaN/4", "M1+M3=corr:NaN", "M1=hotspot:nan,M1+M3=corr"} {
		if _, err := ParseContention(spec); err == nil {
			t.Errorf("ParseContention accepted the NaN rate in %q", spec)
		}
	}
}

// policyOpts returns paper options running the given policy spec.
func policyOpts(t *testing.T, spec string) Options {
	t.Helper()
	sp, err := arbiter.ParsePolicySpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := paperOpts()
	opts.Policy = sp
	return opts
}

// runFFT simulates the FFT case study under opts and returns per-stage
// stats plus the final memory image of every segment.
func runFFT(t *testing.T, opts Options) ([]*sim.Stats, map[string]map[int]int64) {
	t.Helper()
	d, mem, _ := compileFFT(t, 2, opts)
	res, err := Simulate(d, mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]*sim.Stats, len(res.Stages))
	for i, ss := range res.Stages {
		stats[i] = ss.Stats
	}
	segs := map[string]map[int]int64{}
	for _, s := range d.Graph.Segments {
		segs[s.Name] = mem.Snapshot(s.Name)
	}
	return stats, segs
}

// TestZeroRateContentionByteIdentical is the differential guard on the
// tentpole's no-op path: for every policy spec, a full-system FFT run
// with zero-rate ("silent") background generators on both arbitrated
// banks produces Stats — including traces, wait cycles, and finish
// times — and memory images deeply equal to an uninstrumented run.
// Silent sources are statically elided, so this holds for every policy,
// including hier, whose tree shape would change under real widening.
func TestZeroRateContentionByteIdentical(t *testing.T) {
	for _, spec := range workload.DefaultPolicies() {
		t.Run(spec, func(t *testing.T) {
			plain, memPlain := runFFT(t, policyOpts(t, spec))

			opts := policyOpts(t, spec)
			opts.Contention = []ContentionSpec{
				{Resources: []string{"M1"}, Workload: "silent", Lines: 2},
				{Resources: []string{"M3"}, Workload: "silent", Lines: 1},
			}
			quiet, memQuiet := runFFT(t, opts)

			if !reflect.DeepEqual(plain, quiet) {
				t.Fatalf("stats diverge under zero-rate contention:\nplain: %+v\nquiet: %+v", plain, quiet)
			}
			if !reflect.DeepEqual(memPlain, memQuiet) {
				t.Fatal("memory images diverge under zero-rate contention")
			}
		})
	}
}

// neutralPolicies are the specs for which appending request lines that
// never assert cannot change the member grant stream: either the grant
// decisions depend only on the requesting subset and its cyclic order,
// or — for hier — the widened constructor (PolicySpec.NewWidened /
// arbiter.NewHierarchicalWidened) keeps the member-line tree layout
// identical to the unwidened arbiter's and parks the appended lanes in
// their own always-idle cluster.
func neutralPolicies() []string {
	return []string{"rr", "fifo", "priority", "random:1", "fsm", "netlist:one-hot", "preemptive:4", "wrr:2", "hier:2"}
}

// TestQuietTracePlumbingDoesNotPerturb drives the stronger differential
// on the wiring itself: a trace-backed generator that happens to never
// request (but is not statically silent, so its phantom lines ARE wired
// and the policy IS widened) must leave every member-visible statistic
// untouched. Traces widen by the phantom lines; projecting them back to
// member width must recover the uninstrumented run exactly.
func TestQuietTracePlumbingDoesNotPerturb(t *testing.T) {
	for _, spec := range neutralPolicies() {
		t.Run(spec, func(t *testing.T) {
			plain, memPlain := runFFT(t, policyOpts(t, spec))

			opts := policyOpts(t, spec)
			d, mem, _ := compileFFT(t, 2, opts)
			res := simulateWithQuietTrace(t, d, mem, opts, "M1", 2)

			contended := make([]*sim.Stats, len(res.Stages))
			for i, ss := range res.Stages {
				contended[i] = ss.Stats
			}
			memQuiet := map[string]map[int]int64{}
			for _, s := range d.Graph.Segments {
				memQuiet[s.Name] = mem.Snapshot(s.Name)
			}

			for i, st := range contended {
				// The quiet phantoms must have won nothing and waited never.
				if cs := st.Contention["M1"]; cs != nil {
					for _, g := range cs.Grants {
						if g != 0 {
							t.Fatalf("stage %d: quiet phantom won %d grants", i, g)
						}
					}
					for _, w := range cs.Waits {
						if w != 0 {
							t.Fatalf("stage %d: quiet phantom waited %d cycles", i, w)
						}
					}
				}
				projectToMembers(st, "M1", 6)
			}
			if !reflect.DeepEqual(plain, contended) {
				t.Fatalf("member-visible stats diverge under quiet-trace contention:\nplain:     %+v\ncontended: %+v", plain, contended)
			}
			if !reflect.DeepEqual(memPlain, memQuiet) {
				t.Fatal("memory images diverge under quiet-trace contention")
			}
		})
	}
}

// simulateWithQuietTrace mirrors Simulate but injects a never-
// requesting trace generator (not statically silent) on one resource.
func simulateWithQuietTrace(t *testing.T, d *Design, mem *sim.Memory, opts Options, res string, lines int) *RunResult {
	t.Helper()
	out := &RunResult{Memory: mem}
	for _, sp := range d.Stages {
		cfg := sim.Config{
			Graph:             d.Graph,
			Tasks:             sp.Stage.Tasks,
			Programs:          sp.Inserted.Programs,
			Arbiters:          sp.Inserted.Arbiters,
			ResourceOfSegment: sp.Inserted.ResourceOfSegment,
			ResourceOfChannel: sp.Inserted.ResourceOfChannel,
			Policy:            opts.Policy,
			Memory:            mem,
		}
		for _, a := range sp.Inserted.Arbiters {
			if a.Resource == res {
				quiet, err := workload.NewTrace("quiet", lines, []arbiter.BitVec{0})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Sources = append(cfg.Sources, sim.Source{Resources: []string{res}, Gen: quiet})
			}
		}
		stats, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out.Stages = append(out.Stages, StageStats{Stage: sp, Stats: stats})
		out.TotalCycles += stats.Cycles
	}
	return out
}

// projectToMembers strips the phantom columns from one resource's
// traces and clears the contention stats, recovering the member-width
// view an uninstrumented run would have produced.
func projectToMembers(st *sim.Stats, res string, memberN int) {
	if trace := st.ArbiterTraces[res]; trace != nil {
		members := arbiter.Mask(memberN)
		for i, step := range trace.Steps {
			trace.Steps[i] = arbiter.TraceStep{Req: step.Req & members, Grant: step.Grant & members}
		}
		trace.N = memberN
	}
	delete(st.Contention, res)
	if len(st.Contention) == 0 {
		st.Contention = nil
	}
}
