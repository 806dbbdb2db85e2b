package core

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzContentionSeeds is the seed corpus for independent
// (one-resource) entries: every documented form, the /lines corners,
// and representative junk.
func fuzzContentionSeeds() []string {
	return []string{
		"", " ", "M1=hog", "M1=hog/2", "M1=bernoulli:0.50", "M3=bursty",
		"M1=silent", "M1=hog/1,M3=bernoulli:0.25", " M1=hog , M3=bursty/3 ",
		"M1=hog/0", "M1=hog/-1", "M1=hog/x", "M1=hog/99999999999999999999",
		"=hog", "M1=", "M1", ",", "M1=hog,,M3=bursty", "M1==hog",
		"M1=bogus", "M1=bernoulli", "M1=bernoulli:1.5", "M1=bernoulli:NaN/4", "M 1=hog",
		"M1=hog/2/3", "préemptive=hog", "M1=hog\x00",
		"M1=hog,M1=bursty", "M1=hog/2,M1=hog/2", "M2=hog,M1=bursty,M2=silent",
	}
}

// fuzzSharedSeeds is the seed corpus for correlated entries.
func fuzzSharedSeeds() []string {
	return []string{
		"", "M1+M3=corr", "M1+M3=corr:0.25", "M1+M3=corr:0.25/2",
		"M1+M2+M3=corr:0.10", "M1+M3=corr,M2+M4=corr:0.50/3",
		"M1+M3=corr/0", "M1+M3=corr/-2", "M1+M3=corr/x",
		"+M1=corr", "M1+=corr", "M1+M3=", "M1+M3", "=corr",
		"M1+M3=bogus", "M1=corr", "M1+M3=corr:2.0", "M1+M3=corr:NaN", "M1+M1=corr",
		"M1+M3+M1=corr", "M1+M3=corr,M1+M3=corr:0.50",
	}
}

// fuzzMixedSeeds covers lists mixing both kinds of entry, so the
// one-resource/correlated boundary (a '+' left of '=') gets exercised
// from both sides.
func fuzzMixedSeeds() []string {
	return []string{
		"", "M1=hog,M1+M3=corr:0.25", "M1+M3=corr,M1=hog/2",
		"M1=hog/2,M3=bernoulli:0.30,M1+M3=corr:0.25/2",
		"M1+M3=corr,M2=bursty,", "M1=hog,M1+M3",
		"M1=hog,M1=bursty,M1+M3=corr", "M1+M1=corr,M2=hog",
		"M1=hog,M1+M3=corr,M3=bursty",
	}
}

// allContentionSeeds is the union of the three corpora, in that order.
func allContentionSeeds() []string {
	return append(append(fuzzContentionSeeds(), fuzzSharedSeeds()...), fuzzMixedSeeds()...)
}

// canonContention renders the canonical comma-joined form of a parsed
// spec list.
func canonContention(specs []ContentionSpec) string {
	parts := make([]string, len(specs))
	for i, cs := range specs {
		parts[i] = cs.String()
	}
	return strings.Join(parts, ",")
}

// checkContentionRoundTrip is the fuzz property for ParseContention:
// parsing never panics, errors carry the package prefix and come
// without a partial result, every entry of an accepted input becomes
// exactly one spec (none is silently dropped), and every accepted input
// canonicalizes through String() to a fixed point of parse∘String.
func checkContentionRoundTrip(t *testing.T, s string) {
	t.Helper()
	specs, err := ParseContention(s)
	if err != nil {
		if specs != nil {
			t.Fatalf("ParseContention(%q) returned both specs and error %v", s, err)
		}
		if !strings.Contains(err.Error(), "core:") {
			t.Fatalf("ParseContention(%q) error %q lacks the package prefix", s, err)
		}
		return
	}
	if len(specs) == 0 {
		if strings.TrimSpace(s) != "" {
			t.Fatalf("ParseContention(%q) accepted non-blank input with no specs", s)
		}
		return
	}
	if entries := strings.Count(s, ",") + 1; len(specs) != entries {
		t.Fatalf("ParseContention(%q) returned %d specs for %d entries", s, len(specs), entries)
	}
	canon := canonContention(specs)
	specs2, err := ParseContention(canon)
	if err != nil {
		t.Fatalf("canonical form %q of %q does not reparse: %v", canon, s, err)
	}
	if !reflect.DeepEqual(specs, specs2) {
		t.Fatalf("round trip diverges for %q: %+v -> %q -> %+v", s, specs, canon, specs2)
	}
	if got := canonContention(specs2); got != canon {
		t.Fatalf("String is not a fixed point for %q: %q -> %q", s, canon, got)
	}
}

// checkMixedRoundTrip extends checkContentionRoundTrip to the order of
// the two kinds of entry: an accepted list, reordered independent specs
// first and correlated ones after (each in list order, the order
// stageSources numbers seeds in), must parse to exactly that reordered
// list, so acceptance never depends on how the kinds are interleaved.
func checkMixedRoundTrip(t *testing.T, s string) {
	t.Helper()
	checkContentionRoundTrip(t, s)
	specs, err := ParseContention(s)
	if err != nil || len(specs) == 0 {
		return
	}
	var reordered []ContentionSpec
	for _, correlated := range []bool{false, true} {
		for _, cs := range specs {
			if cs.correlated() == correlated {
				reordered = append(reordered, cs)
			}
		}
	}
	canon := canonContention(reordered)
	got, err := ParseContention(canon)
	if err != nil {
		t.Fatalf("independent-first form %q of %q does not reparse: %v", canon, s, err)
	}
	if !reflect.DeepEqual(got, reordered) {
		t.Fatalf("independent-first round trip diverges for %q via %q: %+v -> %+v", s, canon, reordered, got)
	}
}

// FuzzParseContention fuzzes the contention grammar from independent
// entries: no input may panic, and every accepted input must round-trip
// through its canonical String() form. CI smokes this and the two
// targets below with a short -fuzztime.
func FuzzParseContention(f *testing.F) {
	for _, s := range fuzzContentionSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkContentionRoundTrip(t, s)
	})
}

// FuzzParseSharedContention fuzzes the same grammar and property from
// correlated entries.
func FuzzParseSharedContention(f *testing.F) {
	for _, s := range fuzzSharedSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkContentionRoundTrip(t, s)
	})
}

// FuzzParseMixedContention fuzzes lists mixing both kinds of entry from
// all three corpora, under the independent-first reordering property.
func FuzzParseMixedContention(f *testing.F) {
	for _, s := range allContentionSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkMixedRoundTrip(t, s)
	})
}

// TestContentionGrammarSeedCorpus runs the fuzz properties over the
// seed corpora in plain `go test`, so the round-trip invariants are
// enforced on every run, not only when the fuzzer is invoked.
func TestContentionGrammarSeedCorpus(t *testing.T) {
	for _, s := range allContentionSeeds() {
		checkMixedRoundTrip(t, s)
	}
}
