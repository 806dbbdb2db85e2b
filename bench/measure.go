package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the smallest sample with at least q·n samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// tailPerMille is the highest of p90, p99 and p99.9 (in per-mille) that
// leaves at least ten samples above its nearest rank among n; 500 (the
// median) when n is too small for any of them. Integer arithmetic keeps
// the boundary exact: 1000 samples admit p99, 999 do not.
func tailPerMille(n int) int {
	best := 500
	for _, q := range []int{900, 990, 999} {
		rank := (n*q + 999) / 1000 // ceil(n·q/1000)
		if n-rank >= 10 {
			best = q
		}
	}
	return best
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sample is one timed operation: a closed-loop op or one served request.
type sample struct {
	start  time.Duration // when it started (closed loop) or was due (open loop), from the window's start
	lat    time.Duration // host time of the operation
	cpu    time.Duration // process CPU time charged to it
	cycles int64         // simulated cycles it covered
}

// reference is a fixed loop of random read-modify-writes over a buffer
// larger than L2, timed on the benchmark's own thread every refEvery. The
// shared host this benchmark was built on slows code that leaves L2 — the
// sparcs code with it, CPU time included — by up to 1.7x, in spells that
// change within a second, and a whole run can land in one. A reading
// tracks what the operations around it met: scaling each operation by
// refNominal over the median reading within refSpan of it reports host
// time at the quiet host's speed, so that spells cancel.
type reference struct {
	buf []uint64
	x   uint64
}

const (
	refWords   = 1 << 17 // 1 MiB
	refSteps   = 1 << 14
	refEvery   = 50 * time.Millisecond
	refSpan    = 100 * time.Millisecond
	refNominal = 200 * time.Microsecond // about the fastest tenth of readings on the quiet host; only ratios matter
)

func newReference() *reference { return &reference{buf: make([]uint64, refWords)} }

func (r *reference) read() time.Duration {
	s := uint64(1)
	t0 := time.Now()
	for i := 0; i < refSteps; i++ {
		s += 0x9e3779b97f4a7c15
		z := (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
		j := z & (refWords - 1)
		r.x ^= r.buf[j]
		r.buf[j] = r.x + z
	}
	return time.Since(t0)
}

// refReading is one reference reading, timed from the window's start.
type refReading struct{ at, d time.Duration }

// hostSpeed is refNominal over the median of the readings taken within
// refSpan of [from, to] (1 on the quiet host, below 1 in a spell), or of
// all readings when none is that close. refs are in time order.
func hostSpeed(refs []refReading, from, to time.Duration) float64 {
	i := sort.Search(len(refs), func(k int) bool { return refs[k].at >= from-refSpan })
	j := sort.Search(len(refs), func(k int) bool { return refs[k].at > to+refSpan })
	if i >= j {
		i, j = 0, len(refs)
	}
	ds := make([]float64, 0, j-i)
	for _, r := range refs[i:j] {
		ds = append(ds, float64(r.d))
	}
	return float64(refNominal) / median(ds)
}

// atQuietHost returns the samples with their host and CPU times scaled by
// the host speed around each.
func atQuietHost(samples []sample, refs []refReading) []sample {
	out := make([]sample, len(samples))
	for i, s := range samples {
		v := hostSpeed(refs, s.start, s.start+s.lat)
		s.lat = time.Duration(float64(s.lat) * v)
		s.cpu = time.Duration(float64(s.cpu) * v)
		out[i] = s
	}
	return out
}

// setupClock takes reference readings during one set-up, at most one per
// refEvery, so that the set-up's time can be scaled like an operation's.
type setupClock struct {
	rr   *reference
	last time.Time
	ds   []float64
}

// tick reads the reference if refEvery has passed since the last reading.
func (c *setupClock) tick() {
	if c.last.IsZero() || time.Since(c.last) >= refEvery {
		c.ds = append(c.ds, float64(c.rr.read()))
		c.last = time.Now()
	}
}

// speed is refNominal over the set-up's median reading.
func (c *setupClock) speed() float64 { return float64(refNominal) / median(c.ds) }

// rate is the samples' simulated cycles per CPU second.
func rate(samples []sample) float64 {
	var cycles int64
	var cpu time.Duration
	for _, s := range samples {
		cycles += s.cycles
		cpu += s.cpu
	}
	return float64(cycles) / cpu.Seconds()
}

// latenciesMs returns the samples' latencies in ms, sorted.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// digest is an FNV-1a hash over a stream of integers: the fingerprint of
// an operation's simulated statistics, compared pass to pass.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(vs ...int64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			*d ^= digest(byte(v >> (8 * i)))
			*d *= 1099511628211
		}
	}
}

// metric reports the digest as the workload's sim_digest line.
func (d digest) metric(n int) metric {
	return metric{name: "sim_digest", unit: "hex", n: n, text: fmt.Sprintf("%016x", uint64(d))}
}

// splitmix is the benchmark's seed-derivation stream: every input a
// workload generates comes from one of these, seeded by -seed.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle permutes n items in place through swap (Fisher–Yates).
func (r *splitmix) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
