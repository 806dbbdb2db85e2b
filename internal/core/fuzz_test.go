package core

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzContentionSeeds is the seed corpus for the single-resource
// grammar: every documented form, the /lines corners, and
// representative junk.
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

// fuzzSharedSeeds is the seed corpus for the correlated grammar.
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

// fuzzMixedSeeds covers the one-flag front end mixing both grammars.
func fuzzMixedSeeds() []string {
	return []string{
		"", "M1=hog,M1+M3=corr:0.25", "M1+M3=corr,M1=hog/2",
		"M1=hog/2,M3=bernoulli:0.30,M1+M3=corr:0.25/2",
		"M1+M3=corr,M2=bursty,", "M1=hog,M1+M3",
		"M1=hog,M1=bursty,M1+M3=corr", "M1+M1=corr,M2=hog",
		"M1=hog,M1+M3=corr,M3=bursty",
	}
}

// canonContention renders the canonical comma-joined form of a parsed
// single-resource spec list.
func canonContention(specs []ContentionSpec) string {
	parts := make([]string, len(specs))
	for i, cs := range specs {
		parts[i] = cs.String()
	}
	return strings.Join(parts, ",")
}

// canonShared renders the canonical comma-joined form of a parsed
// shared spec list.
func canonShared(specs []SharedContentionSpec) string {
	parts := make([]string, len(specs))
	for i, cs := range specs {
		parts[i] = cs.String()
	}
	return strings.Join(parts, ",")
}

// checkContentionRoundTrip is the fuzz property for ParseContention:
// parsing never panics, errors carry the package prefix and come
// without a partial result, and every accepted input canonicalizes
// through String() to a fixed point of parse∘String.
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

// checkSharedRoundTrip is the same property for ParseSharedContention.
func checkSharedRoundTrip(t *testing.T, s string) {
	t.Helper()
	specs, err := ParseSharedContention(s)
	if err != nil {
		if specs != nil {
			t.Fatalf("ParseSharedContention(%q) returned both specs and error %v", s, err)
		}
		if !strings.Contains(err.Error(), "core:") {
			t.Fatalf("ParseSharedContention(%q) error %q lacks the package prefix", s, err)
		}
		return
	}
	if len(specs) == 0 {
		if strings.TrimSpace(s) != "" {
			t.Fatalf("ParseSharedContention(%q) accepted non-blank input with no specs", s)
		}
		return
	}
	canon := canonShared(specs)
	specs2, err := ParseSharedContention(canon)
	if err != nil {
		t.Fatalf("canonical form %q of %q does not reparse: %v", canon, s, err)
	}
	if !reflect.DeepEqual(specs, specs2) {
		t.Fatalf("round trip diverges for %q: %+v -> %q -> %+v", s, specs, canon, specs2)
	}
	if got := canonShared(specs2); got != canon {
		t.Fatalf("String is not a fixed point for %q: %q -> %q", s, canon, got)
	}
}

// checkMixedRoundTrip covers ParseMixedContention: the split into
// single and shared lists must itself round-trip through the joined
// canonical form (singles first, then shared — reclassification is
// stable because only shared entries contain '+' left of '=').
func checkMixedRoundTrip(t *testing.T, s string) {
	t.Helper()
	single, shared, err := ParseMixedContention(s)
	if err != nil {
		if single != nil || shared != nil {
			t.Fatalf("ParseMixedContention(%q) returned specs alongside error %v", s, err)
		}
		if !strings.Contains(err.Error(), "core:") {
			t.Fatalf("ParseMixedContention(%q) error %q lacks the package prefix", s, err)
		}
		return
	}
	if len(single) == 0 && len(shared) == 0 {
		return
	}
	var parts []string
	if c := canonContention(single); c != "" {
		parts = append(parts, c)
	}
	if c := canonShared(shared); c != "" {
		parts = append(parts, c)
	}
	canon := strings.Join(parts, ",")
	single2, shared2, err := ParseMixedContention(canon)
	if err != nil {
		t.Fatalf("canonical form %q of %q does not reparse: %v", canon, s, err)
	}
	if !reflect.DeepEqual(single, single2) || !reflect.DeepEqual(shared, shared2) {
		t.Fatalf("round trip diverges for %q via %q:\n singles %+v -> %+v\n shared  %+v -> %+v",
			s, canon, single, single2, shared, shared2)
	}
}

// FuzzParseContention fuzzes the single-resource contention grammar:
// no input may panic, and every accepted input must round-trip through
// its canonical String() form. CI smokes this with a short -fuzztime.
func FuzzParseContention(f *testing.F) {
	for _, s := range fuzzContentionSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkContentionRoundTrip(t, s)
	})
}

// FuzzParseSharedContention fuzzes the correlated grammar under the
// same never-panic/round-trip property.
func FuzzParseSharedContention(f *testing.F) {
	for _, s := range fuzzSharedSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkSharedRoundTrip(t, s)
	})
}

// FuzzParseMixedContention fuzzes the mixed front-end grammar; seeds
// include both sub-grammars' corpora so the classifier boundary (a '+'
// left of '=') gets exercised from both sides.
func FuzzParseMixedContention(f *testing.F) {
	for _, s := range fuzzContentionSeeds() {
		f.Add(s)
	}
	for _, s := range fuzzSharedSeeds() {
		f.Add(s)
	}
	for _, s := range fuzzMixedSeeds() {
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
	for _, s := range fuzzContentionSeeds() {
		checkContentionRoundTrip(t, s)
	}
	for _, s := range fuzzSharedSeeds() {
		checkSharedRoundTrip(t, s)
	}
	for _, s := range append(fuzzContentionSeeds(), append(fuzzSharedSeeds(), fuzzMixedSeeds()...)...) {
		checkMixedRoundTrip(t, s)
	}
}
