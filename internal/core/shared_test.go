package core

import (
	"reflect"
	"strings"
	"testing"

	"sparcs/internal/arbinsert"
	"sparcs/internal/partition"
)

// TestParseSharedContentionGrammar pins the correlated (shared) half of
// the grammar: entries spanning two or more resources.
func TestParseSharedContentionGrammar(t *testing.T) {
	specs, err := ParseContention("M1+M3=corr:0.25/2, M1+M2+M3=corr")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs", len(specs))
	}
	if !reflect.DeepEqual(specs[0].Resources, []string{"M1", "M3"}) || specs[0].Workload != "corr:0.25" || specs[0].Lines != 2 {
		t.Fatalf("spec 0 = %+v", specs[0])
	}
	if got := specs[0].String(); got != "M1+M3=corr:0.25/2" {
		t.Fatalf("String() = %q", got)
	}
	if len(specs[1].Resources) != 3 || specs[1].Lines != 1 {
		t.Fatalf("spec 1 = %+v", specs[1])
	}
	if out, err := ParseContention("   "); err != nil || out != nil {
		t.Fatalf("blank spec: %v %v", out, err)
	}
	for _, bad := range []string{
		"M1+M3",                          // no '='
		"M1+M3=",                         // no workload
		"=corr",                          // no resources
		"M1+M3=corr/0",                   // bad lane count
		"M1+M3=corr/x",                   // bad lane count
		"M1+M3=corr/33",                  // k × lanes past one request word
		"M1+M3=corr/4611686018427387904", // k × lanes wraps past MaxInt
		"M1+M3=bursty",                   // not a shared shape
		"M1=corr",                        // one resource: an independent spec, and corr is no generator
		"M1+M1=corr",                     // duplicate resource
		"M1+M3=corr:oops",                // bad rate
		"M1+M3=corr:0.5:no",              // bad hold
	} {
		if _, err := ParseContention(bad); err == nil {
			t.Errorf("spec %q should error", bad)
		}
	}
}

// TestParseMixedContention pins lists mixing independent and
// correlated entries, and the rejection of empty entries.
func TestParseMixedContention(t *testing.T) {
	specs, err := ParseContention("M1=hog/2, M1+M3=corr:0.30/1, M3=bernoulli:0.50")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || !reflect.DeepEqual(specs[0].Resources, []string{"M1"}) || specs[0].Workload != "hog" || specs[0].Lines != 2 {
		t.Fatalf("specs = %+v", specs)
	}
	if !reflect.DeepEqual(specs[1].Resources, []string{"M1", "M3"}) || !reflect.DeepEqual(specs[2].Resources, []string{"M3"}) {
		t.Fatalf("specs = %+v", specs)
	}
	if s, err := ParseContention(""); err != nil || s != nil {
		t.Fatalf("blank: %v %v", s, err)
	}
	for _, bad := range []string{
		"M1+M3=nope", "M1=notashape", "M1+M3",
		"M1=hog,,M3=bursty", "M1=hog,", ",M1=hog", // empty entries
	} {
		if _, err := ParseContention(bad); err == nil {
			t.Errorf("spec %q should error", bad)
		}
	}
}

// TestExtraLines: independent specs add their lines to their resource
// unless statically silent; correlated specs add theirs to every
// resource they span.
func TestExtraLines(t *testing.T) {
	specs, err := ParseContention("M1+M3=corr:0.25/2,M1=hog/1,M2=silent/3")
	if err != nil {
		t.Fatal(err)
	}
	extra := ExtraLines(specs)
	// hog adds 1 on M1, silent is elided, corr adds 2 lanes to M1 and M3.
	want := map[string]int{"M1": 3, "M3": 2}
	if !reflect.DeepEqual(extra, want) {
		t.Fatalf("ExtraLines = %v, want %v", extra, want)
	}
}

// fakeDesign builds a Design skeleton with the given per-stage arbiter
// resource lists, enough for validateContention.
func fakeDesign(stages ...[]string) *Design {
	d := &Design{}
	for _, resources := range stages {
		ins := &arbinsert.Result{}
		for _, r := range resources {
			ins.Arbiters = append(ins.Arbiters, partition.ArbiterSpec{
				Resource: r, Members: []string{"a", "b", "c"},
			})
		}
		d.Stages = append(d.Stages, &StagePlan{Inserted: ins})
	}
	return d
}

func TestValidateSharedRequiresCoArbitration(t *testing.T) {
	// M1 and M3 are each arbitrated somewhere, but never in one stage: a
	// correlated source spanning them is meaningless and must be
	// rejected, not silently skipped.
	d := fakeDesign([]string{"M1"}, []string{"M3"})
	specs, err := ParseContention("M1+M3=corr")
	if err != nil {
		t.Fatal(err)
	}
	err = validateContention(d, specs)
	if err == nil {
		t.Fatal("want an error for never-co-arbitrated resources")
	}
	if !strings.Contains(err.Error(), "no single stage") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// Together in stage 0: fine.
	if err := validateContention(fakeDesign([]string{"M1", "M3"}, []string{"M3"}), specs); err != nil {
		t.Fatal(err)
	}
}

// TestSetupChecksEveryStageFirst: a run's policy is built at every
// arbiter's simulated width when its stages are set up, so Simulate and
// Check reject a width the policy cannot serve before any stage runs,
// naming the stage and the member/background split, and the caller's
// memory image is left as it was. A default-policy run whose contention
// overflows a later stage's arbiter fails the same way.
func TestSetupChecksEveryStageFirst(t *testing.T) {
	d, mem, _ := compileFFT(t, 2, paperOpts())
	image := func() map[string]map[int]int64 {
		segs := map[string]map[int]int64{}
		for _, s := range d.Graph.Segments {
			segs[s.Name] = mem.Snapshot(s.Name)
		}
		return segs
	}
	loaded := image()

	bad := policyOpts(t, "wrr:1,1,1,1,1,1")
	bad.Contention = mustContention(t, "M1=hog/1")
	_, simErr := Simulate(d, mem, bad)
	want := "7-line arbiter on M1 (6 members + 1 background)"
	for name, err := range map[string]error{"Simulate": simErr, "Check": Check(d, bad)} {
		if err == nil || !strings.HasPrefix(err.Error(), "core: stage 0: ") || !strings.Contains(err.Error(), want) {
			t.Errorf("%s = %v, want a stage 0 error mentioning %q", name, err, want)
		}
	}
	if !reflect.DeepEqual(image(), loaded) {
		t.Error("a Simulate that failed in setup changed the memory image")
	}

	wide := paperOpts()
	wide.Contention = mustContention(t, "M3=hog/61")
	if err := Check(d, wide); err == nil || !strings.HasPrefix(err.Error(), "core: stage 1: ") || !strings.Contains(err.Error(), "M3") {
		t.Errorf("Check(M3=hog/61) = %v, want a stage 1 error on M3", err)
	}

	fine := policyOpts(t, "wrr:2")
	fine.Contention = mustContention(t, "M1=hog/1,M3=bursty/2")
	if err := Check(d, fine); err != nil {
		t.Errorf("Check(wrr:2, M1=hog/1,M3=bursty/2) = %v", err)
	}
}

// TestSharedContentionFFTEndToEnd runs the full FFT under a correlated
// M1+M3 source: the source must wire into stage 0 only (the one stage
// arbitrating both), report coherent cross-resource stats, and leave the
// design's output intact.
func TestSharedContentionFFTEndToEnd(t *testing.T) {
	opts := paperOpts()
	var err error
	if opts.Contention, err = ParseContention("M1+M3=corr:0.30/1"); err != nil {
		t.Fatal(err)
	}
	opts.ContentionSeed = 11
	stats, _ := runFFT(t, opts)
	if len(stats) != 3 {
		t.Fatalf("stages = %d", len(stats))
	}
	if len(stats[0].Shared) != 1 {
		t.Fatalf("stage 0 shared sources = %d, want 1", len(stats[0].Shared))
	}
	if len(stats[1].Shared) != 0 || len(stats[2].Shared) != 0 {
		t.Fatal("correlated source leaked into a stage that does not arbitrate both resources")
	}
	sh := stats[0].Shared[0]
	if !reflect.DeepEqual(sh.Resources, []string{"M1", "M3"}) {
		t.Fatalf("resources = %v", sh.Resources)
	}
	if sh.Grants[0] == 0 || sh.Grants[1] == 0 {
		t.Fatalf("correlated source never granted: %+v", sh)
	}
	if sh.AllHeld == 0 {
		t.Fatal("correlated source never completed a critical section")
	}
	// AllHeld counts cycles with BOTH granted, bounded by each
	// resource's grant count.
	if sh.AllHeld > sh.Grants[0] || sh.AllHeld > sh.Grants[1] {
		t.Fatalf("AllHeld %d exceeds a per-resource grant count %v", sh.AllHeld, sh.Grants)
	}
	// Per-line phantom stats land in Stats.Contention for both spanned
	// resources and must agree with the shared view.
	for i, res := range sh.Resources {
		cs := stats[0].Contention[res]
		if cs == nil {
			t.Fatalf("no Stats.Contention entry for %s", res)
		}
		if got := sum(cs.Grants); got != sh.Grants[i] {
			t.Fatalf("%s: contention grants %d != shared grants %d", res, got, sh.Grants[i])
		}
		if got := sum(cs.Waits); got != sh.Waits[i] {
			t.Fatalf("%s: contention waits %d != shared waits %d", res, got, sh.Waits[i])
		}
	}
	// No member violations: the background load delays but never breaks
	// the access protocol.
	for si, st := range stats {
		if len(st.Violations) > 0 {
			t.Fatalf("stage %d violations: %v", si, st.Violations)
		}
	}
}

// TestSharedContentionDeterministic: identical options replay the
// identical stats, and a different seed produces a different experience.
func TestSharedContentionDeterministic(t *testing.T) {
	opts := paperOpts()
	var err error
	if opts.Contention, err = ParseContention("M1+M3=corr:0.30/2"); err != nil {
		t.Fatal(err)
	}
	opts.ContentionSeed = 3
	a, _ := runFFT(t, opts)
	b, _ := runFFT(t, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical shared-contention runs diverged")
	}
	opts.ContentionSeed = 4
	c, _ := runFFT(t, opts)
	if reflect.DeepEqual(a[0].Shared, c[0].Shared) {
		t.Fatal("different seeds produced identical shared stats (suspicious)")
	}
}

// TestSharedContentionDeadlockAdjacent wires two correlated sources over
// the same two resources in OPPOSITE acquisition orders — the circular
// hold-and-wait. Under the non-preemptive round-robin (grants persist
// while requested) the two phantoms eventually interlock, the member
// tasks starve behind them, and the watchdog must report the deadlock.
func TestSharedContentionDeadlockAdjacent(t *testing.T) {
	opts := paperOpts()
	var err error
	if opts.Contention, err = ParseContention("M1+M3=corr:0.90:64/1,M3+M1=corr:0.90:64/1"); err != nil {
		t.Fatal(err)
	}
	// The circular acquisition order is the whole point here, so opt out
	// of the run's ordered-acquisition gate and let the watchdog do the
	// detecting (the pre-checker behavior this test predates).
	opts.UnsafeProtocols = true
	opts.ContentionSeed = 1
	opts.MaxCyclesPerStage = 20_000
	d, mem, _ := compileFFT(t, 2, opts)
	res, err := Simulate(d, mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages[0].Stats
	if st.Done {
		t.Fatal("expected the circular hold-and-wait to starve stage 0 into the watchdog")
	}
	dead := false
	for _, v := range st.Violations {
		if v.Kind == "deadlock-or-timeout" {
			dead = true
		}
	}
	if !dead {
		t.Fatalf("no deadlock-or-timeout violation; got %v", st.Violations)
	}
	// Both sources must be stuck in hold-and-wait at the end — huge
	// overlap counts, near-zero critical sections after lock-up.
	if len(st.Shared) != 2 {
		t.Fatalf("shared sources = %d", len(st.Shared))
	}
	for _, sh := range st.Shared {
		if sh.HoldWait == 0 {
			t.Fatalf("source %s never reached hold-and-wait: %+v", sh.Name, sh)
		}
	}
}

// TestSharedContentionEmptyIsNoOp: a statically silent correlated
// source cannot exist — the corr grammar has no zero rate — though an
// explicitly silent one wired through sim directly is elided; here we
// pin the cheaper core-level guarantee that an empty contention list
// changes nothing, whatever the seed.
func TestSharedContentionEmptyIsNoOp(t *testing.T) {
	base, segsA := runFFT(t, paperOpts())
	opts := paperOpts()
	opts.Contention = nil
	opts.ContentionSeed = 99 // irrelevant without sources
	with, segsB := runFFT(t, opts)
	if !reflect.DeepEqual(base, with) || !reflect.DeepEqual(segsA, segsB) {
		t.Fatal("empty shared contention perturbed the run")
	}
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
