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
// comes from seeded splitmix64 streams, one per task, so a (generator,
// seed, policy) triple always replays the identical experiment.
//
// The per-cycle path treats all request lines as one word, as a parallel
// hardware arbiter does: a generator packs every task's arrival draw into
// one BitVec without branching and keeps its jobs as a busy mask, and
// both the generators and Drive touch per-task state only for the tasks
// whose state changed that cycle.
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

// hits draws once from every stream and packs the outcomes into a word:
// bit i is set when stream i's draw fires against threshold t.
func hits(streams []rng, t uint64) arbiter.BitVec {
	var w arbiter.BitVec
	for i := range streams {
		w |= arbiter.BitVec(streams[i].hit(t)) << uint(i)
	}
	return w
}

// taskStreams derives one independent rng stream per task from the
// generator seed. Closed-loop generators draw from task i's stream a
// fixed number of times per cycle regardless of grant feedback, so the
// arrival process (which jobs spawn at which cycles) is bitwise
// identical no matter which policy is being driven — rows of a grid
// column compare service discipline, not different traffic.
func taskStreams(seed uint64, n int) []rng {
	streams := make([]rng, n)
	for i := range streams {
		streams[i] = rng{state: seed + uint64(i+1)*0x9e3779b97f4a7c15}
	}
	return streams
}

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
// tasks. A job occupies the resource for hold granted cycles.
type bernoulli struct {
	name    string
	n       int
	seed    uint64
	streams []rng
	hot     uint64 // arrival threshold of task 1
	cold    uint64 // arrival threshold of every other task
	jobs
}

func newBernoulli(name string, n int, pHot, pCold float64, hold int, seed uint64) *bernoulli {
	return &bernoulli{
		name: name, n: n, seed: seed, streams: taskStreams(seed, n),
		hot: threshold(pHot), cold: threshold(pCold), jobs: newJobs(n, hold),
	}
}

func (b *bernoulli) Name() string { return b.name }
func (b *bernoulli) N() int       { return b.n }

func (b *bernoulli) Reset() {
	b.streams = taskStreams(b.seed, b.n)
	b.jobs.reset()
}

// arrive draws one cycle's arrivals: one draw per task, consumed
// unconditionally (pinned tasks included), so the arrival stream is
// independent of grant history. Pinned tasks request outside the jobs
// loop, so their bits are cleared.
func (b *bernoulli) arrive() arbiter.BitVec {
	return (arbiter.BitVec(b.streams[0].hit(b.hot)) | hits(b.streams[1:], b.cold)<<1) &^ b.pin
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
// dwell times.
type bursty struct {
	n       int
	seed    uint64
	streams []rng
	on      arbiter.BitVec // tasks in the ON state
	offOn   uint64         // threshold of an OFF task turning ON (mean idle 1/p cycles)
	onOff   uint64         // threshold of an ON task turning OFF (mean burst 1/p cycles)
	arrival uint64         // arrival threshold while ON
	jobs
}

// NewBursty returns on/off burst traffic: mean bursts of 20 cycles at
// 0.9 arrival probability separated by mean 60-cycle silences.
func NewBursty(n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	return &bursty{
		n: n, seed: seed, streams: taskStreams(seed, n),
		offOn: threshold(1.0 / 60), onOff: threshold(1.0 / 20), arrival: threshold(0.9),
		jobs: newJobs(n, 2),
	}, nil
}

func (b *bursty) Name() string { return "bursty" }
func (b *bursty) N() int       { return b.n }

func (b *bursty) Reset() {
	b.streams = taskStreams(b.seed, b.n)
	b.on = 0
	b.jobs.reset()
}

// arrive flips the on/off states and draws one cycle's arrivals, which
// only ON tasks keep.
func (b *bursty) arrive() arbiter.BitVec {
	var turnOn, turnOff, arrive arbiter.BitVec
	for i := range b.streams {
		// Two draws per task per cycle (state flip, then arrival),
		// consumed unconditionally: the on/off trajectory and arrival
		// stream are independent of grant history.
		flip := b.streams[i].next() >> 11
		turnOn |= arbiter.BitVec(below(flip, b.offOn)) << uint(i)
		turnOff |= arbiter.BitVec(below(flip, b.onOff)) << uint(i)
		arrive |= arbiter.BitVec(b.streams[i].hit(b.arrival)) << uint(i)
	}
	b.on = b.on&^turnOff | turnOn&^b.on
	return arrive & b.on
}

// NextBits implements BitGenerator.
//
//sparcs:hotpath
func (b *bursty) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	return b.step(prevGrant, b.arrive())
}

// markov is the globally modulated source: a two-state regime chain
// (calm/storm) scales every task's arrival probability together, so the
// whole system alternates between light load and saturation.
type markov struct {
	n       int
	seed    uint64
	regime  rng
	streams []rng
	storm   bool
	// Thresholds: regime flips calm→storm and storm→calm, then per-task
	// arrival in each regime.
	calmStorm, stormCalm uint64
	calm, stormy         uint64
	jobs
}

// NewMarkov returns Markov-modulated traffic: calm regimes (arrival
// 0.05) punctuated by storms (arrival 0.85) with mean lengths 200 and
// 50 cycles.
func NewMarkov(n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	return &markov{
		n: n, seed: seed, regime: rng{state: seed}, streams: taskStreams(seed, n),
		calmStorm: threshold(1.0 / 200), stormCalm: threshold(1.0 / 50),
		calm: threshold(0.05), stormy: threshold(0.85),
		jobs: newJobs(n, 2),
	}, nil
}

func (m *markov) Name() string { return "markov" }
func (m *markov) N() int       { return m.n }

func (m *markov) Reset() {
	m.regime = rng{state: m.seed}
	m.streams = taskStreams(m.seed, m.n)
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
	t := m.calm
	if m.storm {
		t = m.stormy
	}
	return hits(m.streams, t)
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
// silence — arrivals, overlap, saturation, and drain in one period.
func builtinTrace(n int) []arbiter.BitVec {
	period := 4*n + 2*n + n // staggered windows, burst, silence
	steps := make([]arbiter.BitVec, period)
	for c := range steps {
		for i := 0; i < n; i++ {
			start := 2 * i
			if (c >= start && c < start+n) || (c >= 4*n && c < 6*n) {
				steps[c] |= 1 << uint(i)
			}
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
