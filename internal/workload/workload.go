// Package workload is a deterministic synthetic request-traffic engine
// for exercising arbitration policies standalone, outside the full
// system simulator: it drives any arbiter.Policy at millions of cycles
// per second, one request word per cycle, under traffic shapes the
// paper's single FFT case study never produces — uniform Bernoulli
// arrivals, bursty on/off sources, hotspot skew, Markov-modulated load
// regimes, an adversarial hog, and recorded-trace replay.
//
// Generators are closed-loop: each cycle they observe the previous
// cycle's grants, so a task requests persistently until its job has
// been served for its hold time and then releases — the request/release
// discipline of the paper's Figure 8 access protocol. All randomness
// comes from seeded splitmix64 sequences, so a (generator, seed, policy)
// triple always replays the identical experiment. The tasks' draws are
// not independent: they read one sequence, each task one position
// further along it than the task before (see window), so task i+1's
// draw on one cycle is task i's draw on the next.
//
// The per-cycle path treats all request lines as one word, as a parallel
// hardware arbiter does: a generator keeps every task's arrival draw as
// one bit of a BitVec, draws once or twice a cycle whatever the number
// of tasks, and keeps its jobs as a busy mask, and both the generators
// and Drive touch per-task state only for the tasks whose state changed
// that cycle.
//
// A generated shape's arrival draws never depend on grants, so an
// evaluation grid draws a column's arrival words once for a group of its
// policy cells (the whole column on one worker), each cell running its
// own jobs loop over them (see RunGridColumns).
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"sparcs/internal/arbiter"
)

// Generator produces one request word per cycle through its embedded
// BitGenerator: NextBits returns the request word for the coming cycle
// after observing the grants the arbiter issued last cycle (zero on the
// first call). Implementations must be deterministic: Reset followed by
// the same grant feedback replays the identical request stream. Every
// Generator is a sim.Requester, so any of them can be attached to a
// simulation as background contention.
type Generator interface {
	// Name identifies the shape with its parameters ("bernoulli:0.30").
	Name() string
	// N returns the number of request lines.
	N() int
	// BitGenerator produces the request word for one cycle.
	BitGenerator
	// Reset returns the generator to its initial state, including the
	// random stream.
	Reset()
}

// BitGenerator is the per-cycle core of Generator: NextBits returns the
// request word for the coming cycle (bit i = line i) after observing
// prevGrant, the grants issued to these lines last cycle. Bits at or
// above N() in prevGrant are ignored.
type BitGenerator interface {
	NextBits(prevGrant arbiter.BitVec) arbiter.BitVec
}

// rng is a splitmix64 pseudo-random stream: tiny, allocation-free, and
// fully determined by its seed.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// threshold converts a rate p in (0,1] into the integer bound
// T = ceil(p·2^53) that draws are compared against: a draw x fires when
// x>>11 < T. For every such p that is exactly the float test
// float64(x>>11)·2^-53 < p, because x>>11 and p·2^53 are both exact in
// float64 (scaling by a power of two loses nothing) and an integer is
// below a real exactly when it is below the real's ceiling.
func threshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// below returns 1 when u < t and 0 otherwise, without a branch: for
// operands under 2^63, u−t wraps to a word with its top bit set exactly
// when u < t.
func below(u, t uint64) uint64 { return (u - t) >> 63 }

// hit draws once from r and returns 1 when the draw fires against
// threshold t, 0 otherwise.
func (r *rng) hit(t uint64) uint64 { return below(r.next()>>11, t) }

// window is how a generated shape's n tasks read their arrival draws:
// one splitmix64 sequence v(1), v(2), … (v(m) is the m-th draw of
// rng{state: seed}), of which task i's k-th draw is v(i+1+k). A shape
// that draws once per task per cycle reads tasks 0..n−1 from v(t+2) ..
// v(t+n+1) on cycle t, so consecutive cycles share n−1 positions and
// the window slides one position a cycle: one draw, not n. These are
// exactly the draws of per-task streams seeded seed+(i+1)·γ that add γ
// (splitmix64's increment) a draw, the streams the frozen per-lane
// references in the tests still keep.
//
// For each of up to two thresholds, a fire word keeps whether each
// position of the window fires against it, aligned to the top of the
// word: the newest position is bit MaxN−1 and task i is bit shift+i, so
// read shifts the window down to bit i = task i, and what slides below
// the window is never read. A shape with one threshold leaves the
// second zero, which never fires.
type window struct {
	seq   rng
	shift uint // arbiter.MaxN − n
	thr   [2]uint64
	fire  [2]arbiter.BitVec
}

func newWindow(n int, t0, t1 uint64) window {
	return window{shift: uint(arbiter.MaxN - n), thr: [2]uint64{t0, t1}}
}

// rewind restarts the sequence of seed. The window still holds the old
// draws until n slides replace every position a read sees.
func (w *window) rewind(seed uint64) { w.seq = rng{state: seed + 0x9e3779b97f4a7c15} }

// prime rewinds to seed and fills the window with the first cycle's n
// positions.
func (w *window) prime(seed uint64) {
	w.rewind(seed)
	for range arbiter.MaxN - w.shift {
		w.advance()
	}
}

// draw returns the sequence's next position, as the 53-bit value the
// thresholds are compared against.
func (w *window) draw() uint64 { return w.seq.next() >> 11 }

// push slides the window one position along: task i takes task i+1's
// draw, and task n−1 the draw x.
func (w *window) push(x uint64) {
	w.fire[0] = slide(w.fire[0], x, w.thr[0])
	w.fire[1] = slide(w.fire[1], x, w.thr[1])
}

// slide shifts fire word f down one position and puts the newest, draw
// x against threshold t, on top.
func slide(f arbiter.BitVec, x, t uint64) arbiter.BitVec {
	return f>>1 | arbiter.BitVec(below(x, t))<<(arbiter.MaxN-1)
}

// advance slides the window onto the sequence's next position.
func (w *window) advance() { w.push(w.draw()) }

// read returns the window's fire bits against threshold k: bit i is set
// when task i's draw fires.
func (w *window) read(k int) arbiter.BitVec { return w.fire[k] >> w.shift }

// jobs is the shared closed-loop core, embedded in every generated
// shape and in a grid cell's replay. busy marks the tasks with an
// outstanding job, and need[i] counts the granted cycles busy task i's
// job still requires. A busy task requests, consumes one unit per
// granted cycle, and goes idle when its job is done. Pinned tasks
// request every cycle outside the loop.
type jobs struct {
	busy arbiter.BitVec
	need []int
	hold int
	pin  arbiter.BitVec
}

func newJobs(n, hold int) jobs { return jobs{need: make([]int, n), hold: hold} }

// step consumes last cycle's grants, then starts a hold-cycle job on
// every idle task in arrive, and returns the request word: the busy
// tasks and the pinned ones. Counters are touched only for the tasks a
// grant served or an arrival spawned. It is small enough to inline, so
// NextBits costs one call, to arrive.
func (j *jobs) step(prevGrant, arrive arbiter.BitVec) arbiter.BitVec {
	for s := prevGrant & j.busy; s != 0; s &= s - 1 {
		i := bits.TrailingZeros64(uint64(s))
		j.need[i]--
		if j.need[i] == 0 {
			j.busy &^= s & -s
		}
	}
	for s := arrive &^ j.busy; s != 0; s &= s - 1 {
		j.need[bits.TrailingZeros64(uint64(s))] = j.hold
	}
	j.busy |= arrive
	return j.busy | j.pin
}

func (j *jobs) reset() { j.busy = 0 }

// newReplay returns a grid cell's replay: a fresh copy of this loop over
// the arrival words its grid unit draws.
func (j *jobs) newReplay() *replay {
	return &replay{jobs: jobs{need: make([]int, len(j.need)), hold: j.hold, pin: j.pin}}
}

// bernoulli is the uniform/hotspot/hog family: per-task arrival
// probability when idle, with optional always-requesting (pinned)
// tasks. A job occupies the resource for hold granted cycles. Its
// window compares against task 1's arrival threshold (hot) and every
// other task's (cold).
type bernoulli struct {
	name string
	n    int
	seed uint64
	win  window
	jobs
}

func newBernoulli(name string, n int, pHot, pCold float64, hold int, seed uint64) *bernoulli {
	b := &bernoulli{
		name: name, n: n, seed: seed,
		win: newWindow(n, threshold(pHot), threshold(pCold)), jobs: newJobs(n, hold),
	}
	b.Reset()
	return b
}

func (b *bernoulli) Name() string { return b.name }
func (b *bernoulli) N() int       { return b.n }

func (b *bernoulli) Reset() {
	b.win.prime(b.seed)
	b.jobs.reset()
}

// arrive draws one cycle's arrivals: task 1 against the hot threshold,
// the rest against the cold one. Every task draws every cycle, pinned
// tasks included, so the arrival stream is independent of grant
// history. Pinned tasks request outside the jobs loop, so their bits
// are cleared.
func (b *bernoulli) arrive() arbiter.BitVec {
	a := (b.win.read(0)&1 | b.win.read(1)&^1) &^ b.pin
	b.win.advance()
	return a
}

// NextBits implements BitGenerator.
//
//sparcs:hotpath
func (b *bernoulli) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	return b.step(prevGrant, b.arrive())
}

// NewBernoulli returns uniform Bernoulli traffic: every idle task
// starts a hold-cycle job with probability p each cycle.
func NewBernoulli(n int, p float64, hold int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	if err := checkRate("bernoulli", p); err != nil {
		return nil, err
	}
	if err := checkHold(hold); err != nil {
		return nil, err
	}
	return newBernoulli(fmt.Sprintf("bernoulli:%.2f", p), n, p, p, hold, seed), nil
}

// NewHotspot returns skewed traffic: task 1 arrives with probability
// pHot, every other task with pHot/8 — the single-popular-resource
// contention pattern.
func NewHotspot(n int, pHot float64, hold int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	if err := checkRate("hotspot", pHot); err != nil {
		return nil, err
	}
	if err := checkHold(hold); err != nil {
		return nil, err
	}
	return newBernoulli(fmt.Sprintf("hotspot:%.2f", pHot), n, pHot, pHot/8, hold, seed), nil
}

// NewHog returns adversarial traffic: task 1 requests every cycle and
// never releases, while the remaining tasks offer moderate Bernoulli
// load. Non-preemptive policies let the hog starve everyone once
// granted; preemptive and weighted policies bound its hold.
func NewHog(n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	b := newBernoulli("hog", n, 0.25, 0.25, 2, seed)
	b.pin = 1
	return b, nil
}

// bursty is the per-task on/off source: each task flips between an ON
// state (high arrival rate) and an OFF state (silent) with geometric
// dwell times. Each task draws twice a cycle, a flip and then an
// arrival, so on cycle t task i flips on v(i+2t+2) and arrives on
// v(i+2t+3) (see window): the window slides two positions a cycle, and
// the arrival word reads one position ahead of the flip words, so the
// newest draw waits in carry for the flip words' next slide.
type bursty struct {
	n       int
	seed    uint64
	flips   window         // against offOn and onOff
	arr     arbiter.BitVec // fire word against arrival, laid out as flips'
	carry   uint64         // the newest draw, one position ahead of flips
	on      arbiter.BitVec // tasks in the ON state
	arrival uint64         // arrival threshold while ON
	jobs
}

// NewBursty returns on/off burst traffic: mean bursts of 20 cycles at
// 0.9 arrival probability separated by mean 60-cycle silences. An OFF
// task turns ON at rate 1/60 and an ON task OFF at 1/20.
func NewBursty(n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	b := &bursty{
		n: n, seed: seed, flips: newWindow(n, threshold(1.0/60), threshold(1.0/20)),
		arrival: threshold(0.9), jobs: newJobs(n, 2),
	}
	b.Reset()
	return b, nil
}

func (b *bursty) Name() string { return "bursty" }
func (b *bursty) N() int       { return b.n }

func (b *bursty) Reset() {
	b.flips.rewind(b.seed)
	b.carry = b.flips.draw()
	for range b.n {
		b.advance()
	}
	b.on = 0
	b.jobs.reset()
}

// advance slides the flip words onto the carried draw and the arrival
// word onto a new one, which it carries.
func (b *bursty) advance() {
	x := b.flips.draw()
	b.flips.push(b.carry)
	b.arr = slide(b.arr, x, b.arrival)
	b.carry = x
}

// arrive flips the on/off states and draws one cycle's arrivals, which
// only ON tasks keep. Both draws are consumed unconditionally, so the
// on/off trajectory and the arrival stream are independent of grant
// history.
func (b *bursty) arrive() arbiter.BitVec {
	turnOn, turnOff := b.flips.read(0), b.flips.read(1)
	a := b.arr >> b.flips.shift
	b.advance()
	b.advance()
	b.on = b.on&^turnOff | turnOn&^b.on
	return a & b.on
}

// NextBits implements BitGenerator.
//
//sparcs:hotpath
func (b *bursty) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	return b.step(prevGrant, b.arrive())
}

// markov is the globally modulated source: a two-state regime chain
// (calm/storm) scales every task's arrival probability together, so the
// whole system alternates between light load and saturation. The regime
// draws from its own stream, rng{state: seed}; the tasks' window
// compares against the calm and the storm arrival thresholds.
type markov struct {
	n      int
	seed   uint64
	regime rng
	storm  bool
	// Thresholds of the regime flips calm→storm and storm→calm.
	calmStorm, stormCalm uint64
	win                  window
	jobs
}

// NewMarkov returns Markov-modulated traffic: calm regimes (arrival
// 0.05) punctuated by storms (arrival 0.85) with mean lengths 200 and
// 50 cycles.
func NewMarkov(n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	m := &markov{
		n: n, seed: seed,
		calmStorm: threshold(1.0 / 200), stormCalm: threshold(1.0 / 50),
		win: newWindow(n, threshold(0.05), threshold(0.85)), jobs: newJobs(n, 2),
	}
	m.Reset()
	return m, nil
}

func (m *markov) Name() string { return "markov" }
func (m *markov) N() int       { return m.n }

func (m *markov) Reset() {
	m.regime = rng{state: m.seed}
	m.win.prime(m.seed)
	m.storm = false
	m.jobs.reset()
}

// arrive advances the regime chain and draws one cycle's arrivals. Both
// advance every cycle regardless of grant feedback, keeping the offered
// traffic identical across policies.
func (m *markov) arrive() arbiter.BitVec {
	if m.storm {
		m.storm = m.regime.hit(m.stormCalm) == 0
	} else {
		m.storm = m.regime.hit(m.calmStorm) == 1
	}
	k := 0
	if m.storm {
		k = 1
	}
	a := m.win.read(k)
	m.win.advance()
	return a
}

// NextBits implements BitGenerator.
//
//sparcs:hotpath
func (m *markov) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	return m.step(prevGrant, m.arrive())
}

// silent is the zero-rate source: it never requests. Its Silent marker
// lets sim.Run elide it entirely (the contention no-op path), so a
// simulation configured with silent background sources is byte-identical
// to an uninstrumented one under every policy.
type silent struct{ n int }

// NewSilent returns the zero-rate generator: n lines that never
// request. It implements sim.StaticallySilent.
func NewSilent(n int) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	return &silent{n: n}, nil
}

func (s *silent) Name() string { return "silent" }
func (s *silent) N() int       { return s.n }
func (s *silent) Reset()       {}

// Silent marks the generator as statically request-free.
func (s *silent) Silent() bool { return true }

// NextBits implements BitGenerator.
//
//sparcs:hotpath
func (s *silent) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec { return 0 }

// trace replays a recorded request pattern cyclically — the open-loop
// shape: requests do not react to grants, exactly as captured. Replay
// is one word load per cycle.
type trace struct {
	name  string
	n     int
	steps []arbiter.BitVec
	pos   int
}

// NewTrace returns a generator replaying a copy of steps, one request
// word per cycle, cyclically. No step may request a line at or above n.
func NewTrace(name string, n int, steps []arbiter.BitVec) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("workload: trace %q has no steps", name)
	}
	for c, s := range steps {
		if s&^arbiter.Mask(n) != 0 {
			return nil, fmt.Errorf("workload: trace %q step %d requests a line at or above its width %d", name, c, n)
		}
	}
	return &trace{name: name, n: n, steps: slices.Clone(steps)}, nil
}

func (t *trace) Name() string { return t.name }
func (t *trace) N() int       { return t.n }
func (t *trace) Reset()       { t.pos = 0 }

// NextBits implements BitGenerator.
//
//sparcs:hotpath
func (t *trace) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	step := t.steps[t.pos]
	t.pos++
	if t.pos == len(t.steps) {
		t.pos = 0
	}
	return step
}

// builtinTrace builds the canonical recorded pattern the registry
// serves under "trace": staggered request windows (task i active for n
// cycles starting at cycle 2i), then an all-on contention burst, then
// silence — arrivals, overlap, saturation, and drain in one period. On
// cycle c the staggered windows cover the tasks i with 2i ≤ c < 2i+n,
// the range from ceil((c−n+1)/2) to floor(c/2), so each step is one
// range of lanes.
func builtinTrace(n int) []arbiter.BitVec {
	period := 4*n + 2*n + n // staggered windows, burst, silence
	steps := make([]arbiter.BitVec, period)
	for c := range steps {
		if c >= 4*n && c < 6*n {
			steps[c] = arbiter.Mask(n)
			continue
		}
		if lo, hi := max(c-n+2, 0)/2, min(c/2+1, n); lo < hi {
			steps[c] = arbiter.Mask(hi) &^ arbiter.Mask(lo)
		}
	}
	return steps
}

// checkRate accepts rates in (0,1]. It is written so that NaN, which
// fails every comparison, is rejected too.
func checkRate(shape string, p float64) error {
	if !(p > 0 && p <= 1) {
		return fmt.Errorf("workload: %s rate must be in (0,1], got %g", shape, p)
	}
	return nil
}

// checkHold rejects job lengths that would leave a source silent.
func checkHold(hold int) error {
	if hold < 1 {
		return fmt.Errorf("workload: hold must be positive, got %d", hold)
	}
	return nil
}

// checkN bounds generator widths to one request word: the whole engine
// — generators, Drive, the simulator's contention lanes — packs request
// vectors into single BitVec words.
func checkN(n int) error {
	if n < 1 {
		return fmt.Errorf("workload: N must be positive, got %d", n)
	}
	if n > arbiter.MaxN {
		return fmt.Errorf("workload: N must be at most %d (one request word), got %d", arbiter.MaxN, n)
	}
	return nil
}

// NewGenerator constructs a workload by name with a "shape:param"
// grammar mirroring arbiter.ParsePolicySpec:
//
//	bernoulli[:p]   uniform Bernoulli arrivals (default p=0.30)
//	bursty          per-task on/off bursts
//	hotspot[:p]     task 1 hot at p (default 0.90), others at p/8
//	markov          global calm/storm regime modulation
//	hog             task 1 requests forever, others moderate load
//	trace           the built-in staggered/burst/silence replay
//	silent          zero-rate: never requests (elided as contention)
func NewGenerator(spec string, n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	shape, param := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		shape, param = spec[:i], spec[i+1:]
	}
	rate := func(def float64) (float64, error) {
		if param == "" {
			return def, nil
		}
		v, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return 0, fmt.Errorf("workload: %s rate %q is not a number", shape, param)
		}
		return v, nil
	}
	noParam := func() error {
		if param != "" {
			return fmt.Errorf("workload: %s takes no parameter (got %q)", shape, param)
		}
		return nil
	}
	switch shape {
	case "bernoulli":
		p, err := rate(0.30)
		if err != nil {
			return nil, err
		}
		return NewBernoulli(n, p, 2, seed)
	case "hotspot":
		p, err := rate(0.90)
		if err != nil {
			return nil, err
		}
		return NewHotspot(n, p, 2, seed)
	case "bursty":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewBursty(n, seed)
	case "markov":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewMarkov(n, seed)
	case "hog":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewHog(n, seed)
	case "trace":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewTrace("trace", n, builtinTrace(n))
	case "silent":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewSilent(n)
	}
	return nil, fmt.Errorf("workload: unknown workload %q (see NewGenerator for the grammar)", spec)
}

// DefaultWorkloads lists one canonical spec per traffic shape, the
// columns of the standard policy×workload grid.
func DefaultWorkloads() []string {
	return []string{"bernoulli:0.30", "bursty", "hotspot:0.90", "markov", "hog", "trace"}
}

// DefaultPolicies lists the canonical policy specs the grid evaluates:
// every implementation in internal/arbiter, cheap parameters.
func DefaultPolicies() []string {
	return []string{
		"rr", "fifo", "priority", "random:1",
		"fsm", "netlist:one-hot", "preemptive:4", "wrr:2", "hier:2",
	}
}
