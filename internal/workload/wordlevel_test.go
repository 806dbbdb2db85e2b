package workload

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"sparcs/internal/arbiter"
)

// wordShapes are the closed-loop specs the word-level differential tests
// cover: every generated shape, plus the p=1 threshold edge.
var wordShapes = []string{"bernoulli:0.30", "bernoulli:1", "hotspot:0.90", "hog", "bursty", "markov"}

// grantFeed is the grant stream a generator observes: a real policy
// stepping on the request word (every requester at once at N=1, below
// the policies' MinN), or random words mixing silence, dense words
// (several grants, idle lanes, lines past N), single lines anywhere in
// the word, and random subsets of the requesters.
type grantFeed struct {
	step   arbiter.BitStepper
	random bool
	r      rng
}

func (f *grantFeed) next(req arbiter.BitVec) arbiter.BitVec {
	switch {
	case !f.random && f.step == nil:
		return req
	case !f.random:
		return f.step.StepBits(req)
	}
	w := f.r.next()
	switch w & 3 {
	case 0:
		return 0
	case 1:
		return arbiter.BitVec(w)
	case 2:
		return arbiter.BitVec(1) << (w >> 58)
	default:
		return req & arbiter.BitVec(w>>2)
	}
}

// matchWords drives the live generator and its frozen per-lane reference
// with the same grant stream and fails on the first request word that
// differs.
func matchWords(t *testing.T, what string, live BitGenerator, ref refGenerator, feed *grantFeed, cycles int) {
	t.Helper()
	var grant arbiter.BitVec
	for c := 0; c < cycles; c++ {
		req := live.NextBits(grant)
		if want := ref.NextBits(grant); req != want {
			t.Fatalf("%s cycle %d: grant %064b\nword-level req %064b\nper-lane req   %064b", what, c, grant, req, want)
		}
		grant = feed.next(req)
	}
}

// TestWordGeneratorsMatchPerLane holds every closed-loop shape to its
// frozen per-lane reference at widths straddling the word's edges, under
// real policy grants and under random grant words, and again after
// Reset: the request words must match on every cycle.
func TestWordGeneratorsMatchPerLane(t *testing.T) {
	const cycles = 20_000
	policies := []string{"rr", "priority", "wrr:2"}
	for _, spec := range wordShapes {
		for _, n := range []int{1, 2, 6, 31, 32, 33, 63, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, random := range []bool{false, true} {
					g, err := NewGenerator(spec, n, seed)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newRef(spec, n, seed)
					if err != nil {
						t.Fatal(err)
					}
					feed := &grantFeed{random: random, r: rng{state: ^seed}}
					if !random && n >= arbiter.MinN {
						p, err := arbiter.NewPolicy(policies[seed-1], n)
						if err != nil {
							t.Fatal(err)
						}
						feed.step = p
					}
					what := fmt.Sprintf("%s N=%d seed %d random=%v", spec, n, seed, random)
					matchWords(t, what, g, ref, feed, cycles)
					g.Reset()
					ref.Reset()
					matchWords(t, what+" after Reset", g, ref, feed, cycles)
				}
			}
		}
	}
	// The exported constructors' hold parameter.
	for _, hold := range []int{1, 5} {
		for _, n := range []int{1, 33, 64} {
			g, err := NewBernoulli(n, 0.4, hold, 7)
			if err != nil {
				t.Fatal(err)
			}
			feed := &grantFeed{random: true, r: rng{state: uint64(hold)}}
			matchWords(t, fmt.Sprintf("NewBernoulli hold %d N=%d", hold, n), g, newRefBernoulli(n, 0.4, hold, 7), feed, cycles)
		}
	}
}

// brokenPolicy corrupts a real policy's grant word on a fixed schedule
// into what no correct arbiter emits: two grants, a grant to a line that
// is not requesting, a grant on line N (past the policy's lines), or no
// grant under demand.
type brokenPolicy struct {
	arbiter.Policy
	kind  string
	cycle int
}

func (b *brokenPolicy) StepBits(req arbiter.BitVec) arbiter.BitVec {
	grant := b.Policy.StepBits(req)
	b.cycle++
	n := b.N()
	switch {
	case b.kind == "two-grants" && b.cycle%7 == 0:
		others := req &^ grant
		grant |= others & -others
	case b.kind == "non-requester" && b.cycle%5 == 0:
		idle := arbiter.Mask(n) &^ req
		grant |= idle & -idle
	case b.kind == "line-n" && b.cycle%3 == 0 && n < arbiter.MaxN:
		grant = arbiter.BitVec(1) << uint(n)
	case b.kind == "starve" && b.cycle%13 != 0:
		grant = 0
	}
	return grant
}

// compareDrive runs Drive and the frozen refDrive on freshly built,
// identical policy/generator pairs and requires deeply equal Metrics.
func compareDrive(t *testing.T, what string, build func() (arbiter.Policy, Generator), cycles int) {
	t.Helper()
	p, g := build()
	got, err := Drive(p, g, cycles)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	p, g = build()
	if want := refDrive(p, g, cycles); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Drive diverges from the per-lane loop\nword-level: %+v\nper-lane:   %+v", what, got, want)
	}
}

// TestDriveMatchesPerLane holds Drive to the frozen per-lane loop: every
// policy × shape at N ∈ {2, 6, 33, 64}, then broken steppers, whose
// violations, censored waits and open waits at run end exercise every
// flush.
func TestDriveMatchesPerLane(t *testing.T) {
	const cycles = 4000
	shapes := append(DefaultWorkloads(), "silent")
	build := func(pspec, wspec string, n int, wrap func(arbiter.Policy) arbiter.Policy) func() (arbiter.Policy, Generator) {
		return func() (arbiter.Policy, Generator) {
			p, err := arbiter.NewPolicy(pspec, n)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGenerator(wspec, n, 5)
			if err != nil {
				t.Fatal(err)
			}
			return wrap(p), g
		}
	}
	same := func(p arbiter.Policy) arbiter.Policy { return p }
	for _, n := range []int{2, 6, 33, 64} {
		for _, pspec := range DefaultPolicies() {
			if _, err := arbiter.NewPolicy(pspec, n); err != nil {
				continue // synthesized kinds stop at MaxSynthN; hier:2 needs even N
			}
			for _, wspec := range shapes {
				compareDrive(t, fmt.Sprintf("N=%d %s × %s", n, pspec, wspec), build(pspec, wspec, n, same), cycles)
			}
		}
		for _, kind := range []string{"two-grants", "non-requester", "line-n", "starve"} {
			broken := func(p arbiter.Policy) arbiter.Policy {
				return &brokenPolicy{Policy: p, kind: kind}
			}
			for _, wspec := range shapes {
				compareDrive(t, fmt.Sprintf("N=%d broken %s × %s", n, kind, wspec), build("rr", wspec, n, broken), cycles)
			}
		}
	}
}

// TestGridMatchesPerLaneDrive holds every grid cell to the frozen
// per-lane refDrive over a fresh policy and a fresh generator of the
// column's seed: the shared arrival words, each cell's own jobs loop and
// the block loop must together reproduce a cell run on its own. The
// run lengths straddle one and two block boundaries, and the worker
// counts group a generated column's cells into one unit, two, three and
// one unit per cell.
func TestGridMatchesPerLaneDrive(t *testing.T) {
	specs := append(DefaultWorkloads(), "silent", "bernoulli:0.70", "hotspot:0.20")
	const seed = 7
	for _, n := range []int{2, 6, 33, 64} {
		var policies []string
		for _, spec := range append(DefaultPolicies(), "wrr:3", "random:9") {
			if _, err := arbiter.NewPolicy(spec, n); err == nil {
				policies = append(policies, spec) // fsm and netlist stop at MaxSynthN; hier:2 needs even N
			}
		}
		r := rng{state: uint64(n)}
		steps := make([]arbiter.BitVec, 97)
		for c := range steps {
			steps[c] = arbiter.BitVec(r.next()) & arbiter.Mask(n)
		}
		var cols []Column
		for _, spec := range specs {
			cols = append(cols, SpecColumn(spec))
		}
		cols = append(cols, TraceColumn("random-words", n, steps))
		cells := len(policies) * len(cols)
		for _, cycles := range []int{1, gridBlock - 1, gridBlock, gridBlock + 1, 2*gridBlock + 13} {
			want := make([]*Metrics, cells)
			for idx := range want {
				p, err := arbiter.NewPolicy(policies[idx/len(cols)], n)
				if err != nil {
					t.Fatal(err)
				}
				g, err := cols[idx%len(cols)].New(n, columnSeed(seed, idx%len(cols)))
				if err != nil {
					t.Fatal(err)
				}
				want[idx] = refDrive(p, g, cycles)
			}
			for _, workers := range []int{1, 2 * cells / len(policies), 3 * cells / len(policies), cells} {
				got, err := runGrid(policies, cols, GridOptions{N: n, Cycles: cycles, Seed: seed}, workers)
				if err != nil {
					t.Fatalf("N=%d cycles=%d workers=%d: %v", n, cycles, workers, err)
				}
				for idx, m := range got {
					if !reflect.DeepEqual(m, want[idx]) {
						t.Fatalf("N=%d cycles=%d workers=%d %s × %s: grid cell diverges from the per-lane loop\ngrid:     %+v\nper-lane: %+v",
							n, cycles, workers, policies[idx/len(cols)], cols[idx%len(cols)].Name, m, want[idx])
					}
				}
			}
		}
	}
	const want = "workload: grid cell rr × hog: workload: cycles must be positive, got -1"
	if _, err := RunGrid([]string{"rr"}, []string{"hog"}, GridOptions{Cycles: -1}); err == nil || err.Error() != want {
		t.Errorf("Cycles -1: got %v, want %q", err, want)
	}
}

// TestGroupSize pins how a generated column's cells group into units:
// one group per column on one worker, a worker's share of the cells at
// most, evenly split, and one cell per group once workers cover the
// cells.
func TestGroupSize(t *testing.T) {
	for _, c := range []struct{ policies, cols, workers, want int }{
		{7, 6, 1, 7},    // arb-grid on one worker: one group per column
		{7, 6, 2, 7},    // 42 cells, 21 a worker: still one group
		{7, 1, 2, 4},    // one column on two workers: 4 + 3
		{4, 2, 2, 4},    // examples/policies: one group per column
		{9, 6, 8, 5},    // 54 cells, 7 a worker: 5 + 4
		{7, 1, 7, 1},    // a worker per cell: every cell draws its own
		{7, 1, 64, 1},   // more workers than cells
		{7, 1, 0, 7},    // no worker count reads as one worker
		{11, 10, 30, 4}, // 110 cells, 4 a worker: 4 + 4 + 3
	} {
		if got := groupSize(c.policies, c.policies*c.cols, c.workers); got != c.want {
			t.Errorf("%d policies × %d columns on %d workers: group of %d, want %d", c.policies, c.cols, c.workers, got, c.want)
		}
	}
}

// TestWindowMatchesPerLaneStreams holds the window to independent
// per-lane streams (taskStreams): at widths from one lane to the full
// word, every fire word must read, on every cycle, what each lane's own
// stream draws, when the window slides one position a cycle (the
// bernoulli family, markov, SharedSource) and when it slides two, with
// bursty's arrival word one position ahead of its flip words; and again
// after a Reset.
func TestWindowMatchesPerLaneStreams(t *testing.T) {
	const cycles = 1000
	fire := func(x, t uint64, i int) arbiter.BitVec { return arbiter.BitVec(below(x, t)) << uint(i) }
	for _, n := range []int{1, 2, 33, 63, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			w := newWindow(n, threshold(0.5), threshold(0.3))
			w.prime(seed)
			g, err := NewBursty(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			b := g.(*bursty)
			for pass := 0; pass < 2; pass++ {
				one, two := taskStreams(seed, n), taskStreams(seed, n)
				for c := 0; c < cycles; c++ {
					var want1, want2 [3]arbiter.BitVec
					for i := 0; i < n; i++ {
						x := one[i].next() >> 11
						want1[0] |= fire(x, w.thr[0], i)
						want1[1] |= fire(x, w.thr[1], i)
						flip, arr := two[i].next()>>11, two[i].next()>>11
						want2[0] |= fire(flip, b.flips.thr[0], i)
						want2[1] |= fire(flip, b.flips.thr[1], i)
						want2[2] |= fire(arr, b.arrival, i)
					}
					if got := [3]arbiter.BitVec{w.read(0), w.read(1)}; got != want1 {
						t.Fatalf("N=%d seed %d pass %d cycle %d, one position a cycle:\nwindow   %064b\nper-lane %064b", n, seed, pass, c, got, want1)
					}
					if got := [3]arbiter.BitVec{b.flips.read(0), b.flips.read(1), b.arr >> b.flips.shift}; got != want2 {
						t.Fatalf("N=%d seed %d pass %d cycle %d, two positions a cycle:\nwindow   %064b\nper-lane %064b", n, seed, pass, c, got, want2)
					}
					w.advance()
					b.advance()
					b.advance()
				}
				w.prime(seed)
				b.Reset()
			}
		}
	}
}

// TestBuiltinTraceMatchesNestedLoop holds the trace's lane ranges to the
// per-lane nested loop that built it before, at every width.
func TestBuiltinTraceMatchesNestedLoop(t *testing.T) {
	for n := 1; n <= arbiter.MaxN; n++ {
		got := builtinTrace(n)
		want := make([]arbiter.BitVec, 7*n)
		for c := range want {
			for i := 0; i < n; i++ {
				start := 2 * i
				if (c >= start && c < start+n) || (c >= 4*n && c < 6*n) {
					want[c] |= 1 << uint(i)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("N=%d: builtinTrace\n%x\nnested loop\n%x", n, got, want)
		}
	}
}

// TestThresholdMatchesFloatCompare pins the integer draw test to the
// float test it replaced at the boundary draws T−1, T and T+1 and at the
// ends of the draw range, for rates at and beside representable k/2^53
// values and for the rates the generators use; then replays whole
// streams through both.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	const top = 1<<53 - 1
	ps := []float64{1, 0x1p-53, 5e-324, 1.0 / 60, 1.0 / 20, 0.9, 0.1125}
	for _, k := range []uint64{1, 3, 12345, 1 << 40, 1<<52 + 1, top} {
		p := float64(k) / (1 << 53)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	for _, p := range ps {
		thr := threshold(p)
		for _, u := range []uint64{thr - 1, thr, thr + 1, 0, top} {
			if u > top {
				continue
			}
			got := below(u, thr) == 1
			if want := float64(u)*(1.0/(1<<53)) < p; got != want {
				t.Errorf("p=%g (T=%d) draw %d: integer test %v, float test %v", p, thr, u, got, want)
			}
		}
		live, ref := rng{state: math.Float64bits(p)}, rng{state: math.Float64bits(p)}
		for i := 0; i < 10_000; i++ {
			if got, want := live.hit(thr) == 1, refChance(&ref, p); got != want {
				t.Fatalf("p=%g draw %d: hit %v, chance %v", p, i, got, want)
			}
		}
	}
}

// wordFuzzInput is one FuzzWordGenerators case: a shape index, a width
// index, a seed and a grant program.
type wordFuzzInput struct {
	shape, n uint8
	seed     uint64
	grants   []byte
}

// corrCases are the correlated sources FuzzWordGenerators covers after
// wordShapes: k ∈ {2, 3, 4} resources, at a light and a heavy
// arrival/hold setting.
var corrCases = []struct {
	k    int
	p    float64
	hold int
}{{2, 0.25, 2}, {3, 0.25, 2}, {4, 0.25, 2}, {2, 0.9, 3}, {3, 0.9, 3}, {4, 0.9, 3}}

// wordFuzzSeeds is the seed corpus: every shape at widths on both sides
// of the word's edges, and every correlated case at one lane and at the
// most lanes that fit the word, under grant programs covering silence,
// single lines, the lowest requester and every requester at once.
func wordFuzzSeeds() []wordFuzzInput {
	prog := []byte{0x01, 0x02, 0xfe, 0x03, 0x40}
	var in []wordFuzzInput
	for s := range wordShapes {
		for _, n := range []uint8{1, 6, 32, 63, 64} {
			in = append(in,
				wordFuzzInput{uint8(s), n - 1, uint64(n) * 7, prog},
				wordFuzzInput{uint8(s), n - 1, uint64(s), nil})
		}
	}
	for c, cc := range corrCases {
		shape := uint8(len(wordShapes) + c)
		for _, lanes := range []uint8{1, uint8(arbiter.MaxN / cc.k)} {
			in = append(in,
				wordFuzzInput{shape, lanes - 1, uint64(lanes) * 7, prog},
				wordFuzzInput{shape, lanes - 1, uint64(c), []byte{0x03}})
		}
	}
	return in
}

// fuzzPair builds one fuzz input's live generator and frozen reference:
// a closed-loop shape over 1..MaxN lines, or a correlated source over k
// resources with 1..MaxN/k lanes packed into one word.
func fuzzPair(in wordFuzzInput) (Generator, refGenerator, string, error) {
	s := int(in.shape) % (len(wordShapes) + len(corrCases))
	if s < len(wordShapes) {
		spec := wordShapes[s]
		n := 1 + int(in.n)%arbiter.MaxN
		what := fmt.Sprintf("%s N=%d seed %d", spec, n, in.seed)
		g, err := NewGenerator(spec, n, in.seed)
		if err != nil {
			return nil, nil, what, err
		}
		ref, err := newRef(spec, n, in.seed)
		return g, ref, what, err
	}
	c := corrCases[s-len(wordShapes)]
	lanes := 1 + int(in.n)%(arbiter.MaxN/c.k)
	what := fmt.Sprintf("corr:%g:%d k=%d lanes=%d seed %d", c.p, c.hold, c.k, lanes, in.seed)
	g, err := NewShared([]string{"A", "B", "C", "D"}[:c.k], lanes, c.p, c.hold, in.seed)
	if err != nil {
		return nil, nil, what, err
	}
	return g, newRefShared(c.k, lanes, c.p, c.hold, in.seed), what, nil
}

// fuzzGrant decodes cycle c's grant from a fuzzed program: each byte
// picks no grant, the lowest requester, one line anywhere in the word
// (idle, busy or past N), or every requester at once.
func fuzzGrant(prog []byte, c int, req arbiter.BitVec) arbiter.BitVec {
	if len(prog) == 0 {
		return 0
	}
	b := prog[c%len(prog)]
	switch b & 3 {
	case 0:
		return 0
	case 1:
		return req & -req
	case 2:
		return arbiter.BitVec(1) << (b >> 2)
	default:
		return req
	}
}

// checkWordGenerator is the property FuzzWordGenerators drives: the live
// generator and its frozen per-lane reference emit identical request
// words under the fuzzed grant program, before and after Reset.
func checkWordGenerator(t *testing.T, in wordFuzzInput) {
	t.Helper()
	g, ref, what, err := fuzzPair(in)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for pass := 0; pass < 2; pass++ {
		var grant arbiter.BitVec
		for c := 0; c < 512; c++ {
			req := g.NextBits(grant)
			if want := ref.NextBits(grant); req != want {
				t.Fatalf("%s pass %d cycle %d: grant %064b\nword-level req %064b\nper-lane req   %064b",
					what, pass, c, grant, req, want)
			}
			grant = fuzzGrant(in.grants, c, req)
		}
		g.Reset()
		ref.Reset()
	}
}

// FuzzWordGenerators fuzzes shape, width, seed and grant feedback
// through the word-level generators — the correlated source's packed
// lanes included — and their frozen per-lane references, which must emit
// identical words. Plain `go test` runs the seed corpus; CI fuzzes it
// with a short -fuzztime.
func FuzzWordGenerators(f *testing.F) {
	for _, in := range wordFuzzSeeds() {
		f.Add(in.shape, in.n, in.seed, in.grants)
	}
	f.Fuzz(func(t *testing.T, shape, n uint8, seed uint64, grants []byte) {
		checkWordGenerator(t, wordFuzzInput{shape, n, seed, grants})
	})
}
