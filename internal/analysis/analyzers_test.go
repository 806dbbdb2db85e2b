package analysis_test

import (
	"strings"
	"testing"

	"sparcs/internal/analysis"
	"sparcs/internal/analysis/vettest"
)

// Each analyzer runs over a seeded-violation testdata tree: wrong code
// must be flagged exactly where the `// want` expectations say, clean
// and out-of-scope code must stay silent.

func TestHotpath(t *testing.T) {
	vettest.Run(t, "testdata/hotpath", analysis.Hotpath, "hot")
}

func TestDeterminism(t *testing.T) {
	vettest.Run(t, "testdata/determinism", analysis.Determinism, "sparcs/internal/sim", "other")
}

func TestBitwidth(t *testing.T) {
	vettest.Run(t, "testdata/bitwidth", analysis.Bitwidth, "sparcs/internal/arbiter", "other")
}

func TestErrSentinel(t *testing.T) {
	vettest.Run(t, "testdata/errsentinel", analysis.ErrSentinel, "errsent")
}

func TestLockorder(t *testing.T) {
	vettest.Run(t, "testdata/lockorder", analysis.Lockorder, "locks")
}

func TestGoroleak(t *testing.T) {
	vettest.Run(t, "testdata/goroleak", analysis.Goroleak, "sparcs/internal/service", "other")
}

// TestBrokenPackage exercises the hardened loader: a type-error package
// and its dependent surface as driver diagnostics at pointed positions,
// while a healthy sibling package is still analyzed.
func TestBrokenPackage(t *testing.T) {
	vettest.Run(t, "testdata/broken", analysis.Hotpath, "brokendep", "uses", "fine")
}

// TestIgnores exercises the //sparcs:ignore machinery end to end:
// trailing and standalone suppression, per-analyzer scoping, and the
// driver's malformed/unused reporting.
func TestIgnores(t *testing.T) {
	vettest.Run(t, "testdata/ignore", analysis.Hotpath, "ign")
}

// TestIgnoresSubsetLoad: an ignore in a dependency may serve a walk
// rooted in a package the load did not analyze, so a load whose roots
// are a subset of its packages reports no unused ignore (malformed ones
// still surface), and the corpus's unused ignore fires again once every
// loaded package is a root.
func TestIgnoresSubsetLoad(t *testing.T) {
	active := []*analysis.Analyzer{analysis.Hotpath}
	driverDiags := func(roots ...string) (unused, malformed int) {
		t.Helper()
		m, err := analysis.LoadTree("testdata/ignore/src", roots...)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range analysis.ApplyIgnores(m, active, analysis.RunAnalyzers(m, active), true) {
			switch {
			case d.Analyzer != analysis.Driver:
			case strings.HasPrefix(d.Message, "unused "):
				unused++
			default:
				malformed++
			}
		}
		return unused, malformed
	}
	if unused, malformed := driverDiags("ignuser"); unused != 0 || malformed != 3 {
		t.Errorf("subset load (ignuser only): %d unused, %d malformed ignores reported; want 0 and 3", unused, malformed)
	}
	if unused, malformed := driverDiags("ignuser", "ign"); unused != 1 || malformed != 3 {
		t.Errorf("full load (ignuser, ign): %d unused, %d malformed ignores reported; want 1 and 3", unused, malformed)
	}
}
