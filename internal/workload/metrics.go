package workload

import (
	"fmt"
	"math/bits"

	"sparcs/internal/arbiter"
)

// WaitBuckets is the number of log2 wait-histogram buckets: bucket 0
// counts zero-wait service, bucket k counts waits in [2^(k-1), 2^k),
// and the last bucket absorbs everything longer.
const WaitBuckets = 17

// TaskMetrics aggregates one task's experience over a run.
type TaskMetrics struct {
	// Grants is the number of cycles the task held the resource.
	Grants int64
	// Services is the number of distinct grant episodes the task won
	// (each preceded by one measured wait, possibly zero).
	Services int64
	// TotalWait sums the request-to-first-grant waits over all services.
	TotalWait int64
	// MaxWait is the longest single wait in cycles, including a wait
	// still in progress when the run ends — a task starved for the
	// whole run reports the full run length, not zero. (Censored waits
	// are excluded from Services/TotalWait/WaitHist, which cover
	// completed services only.)
	MaxWait int
	// WorstEpisodes is the most grant episodes to other tasks the task
	// sat through while requesting continuously (the paper's Section
	// 4.1 measure; round-robin bounds it at N-1).
	WorstEpisodes int
}

// MeanWait is the task's average wait per service in cycles.
func (t TaskMetrics) MeanWait() float64 {
	if t.Services == 0 {
		return 0
	}
	return float64(t.TotalWait) / float64(t.Services)
}

// foldEpisodes records a finished wait that sat through e grant
// episodes to other tasks.
func (t *TaskMetrics) foldEpisodes(e int) {
	if e > t.WorstEpisodes {
		t.WorstEpisodes = e
	}
}

// Metrics is the outcome of driving one policy under one workload.
type Metrics struct {
	// Policy and Workload are the names reported by the driven pair.
	Policy   string
	Workload string
	// N is the number of request lines, Cycles the run length.
	N      int
	Cycles int
	// Tasks holds per-task aggregates.
	Tasks []TaskMetrics
	// GrantedCycles counts cycles with a grant, DemandCycles cycles
	// with at least one request.
	GrantedCycles int64
	DemandCycles  int64
	// WaitHist is the run-wide log2 histogram of service waits.
	WaitHist [WaitBuckets]int64
	// Violation records the first online safety-check failure (mutual
	// exclusion, grant-implies-request, work conservation); empty for a
	// correct arbiter.
	Violation string
}

// checkSafety runs the three online safety checks in their fixed order
// on a cycle Drive's combined test flagged, so the first Violation names
// the same property it always has. Only a broken arbiter gets here.
//
//go:noinline
func (m *Metrics) checkSafety(cycle int, req, grant arbiter.BitVec) {
	if grant.Count() > 1 {
		m.violate(cycle, "mutual-exclusion")
	}
	if grant&^req != 0 {
		m.violate(cycle, "grant-implies-request")
	}
	if (req != 0) != (grant != 0) {
		m.violate(cycle, "work-conservation")
	}
}

// violate records the first online safety-check failure. Named rather
// than a closure so checkSafety's calls are statically resolvable; the
// hot loop reaches it only through checkSafety, on a cycle a correct
// arbiter never produces.
func (m *Metrics) violate(cycle int, kind string) {
	if m.Violation == "" {
		//sparcs:ignore hotpath first-violation formatting runs at most once per Drive, and only for a broken arbiter
		m.Violation = fmt.Sprintf("cycle %d: %s", cycle, kind)
	}
}

// Utilization is the fraction of all cycles the resource was granted.
func (m *Metrics) Utilization() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.GrantedCycles) / float64(m.Cycles)
}

// Demand is the fraction of cycles with at least one request — the
// offered load. For a work-conserving arbiter Utilization == Demand.
func (m *Metrics) Demand() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.DemandCycles) / float64(m.Cycles)
}

// Jain is Jain's fairness index over per-task grant counts:
// (Σx)²/(n·Σx²), 1.0 for perfectly equal shares, 1/n when one task
// monopolizes. An all-idle run reports 1.
func (m *Metrics) Jain() float64 {
	var sum, sq float64
	for _, t := range m.Tasks {
		x := float64(t.Grants)
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(m.Tasks)) * sq)
}

// MeanWait is the run-wide average wait per service in cycles.
func (m *Metrics) MeanWait() float64 {
	var wait, services int64
	for _, t := range m.Tasks {
		wait += t.TotalWait
		services += t.Services
	}
	if services == 0 {
		return 0
	}
	return float64(wait) / float64(services)
}

// MaxWait is the longest single wait any task experienced, in cycles.
func (m *Metrics) MaxWait() int {
	worst := 0
	for _, t := range m.Tasks {
		if t.MaxWait > worst {
			worst = t.MaxWait
		}
	}
	return worst
}

// WorstEpisodes is the worst per-task grant-episode wait — directly
// comparable to the round-robin N-1 bound.
func (m *Metrics) WorstEpisodes() int {
	worst := 0
	for _, t := range m.Tasks {
		if t.WorstEpisodes > worst {
			worst = t.WorstEpisodes
		}
	}
	return worst
}

// PercentileWait returns an upper bound in cycles on the q-quantile of
// the service-wait distribution (q in (0,1], e.g. 0.50 or 0.99),
// derived from the log2 WaitHist buckets: the smallest bucket whose
// cumulative count reaches ceil(q·services) is located, and its upper
// edge is reported — 0 for the zero-wait bucket, 2^k−1 for bucket k.
// Because the last bucket absorbs everything from 2^(WaitBuckets−2) up,
// a quantile landing there reports that bucket's lower edge (the bound
// "at least this much"). A run with no completed services reports 0.
func (m *Metrics) PercentileWait(q float64) int {
	return percentile(m.WaitHist, q)
}

// percentile is the shared log2-bucket quantile estimator behind
// Metrics.PercentileWait and Hist.Percentile.
func percentile(hist [WaitBuckets]int64, q float64) int {
	if q <= 0 || q > 1 {
		return 0
	}
	var total int64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	// ceil(q*total) without float edge-cases at the top: the target
	// rank is in [1, total].
	target := int64(q * float64(total))
	if float64(target) < q*float64(total) {
		target++
	}
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for b := 0; b < WaitBuckets; b++ {
		cum += hist[b]
		if cum >= target {
			return bucketEdge(b)
		}
	}
	return bucketEdge(WaitBuckets - 1)
}

// bucketEdge is the reported wait for a quantile landing in bucket b:
// the inclusive upper edge 2^b−1, except the open-ended last bucket,
// which reports its lower edge 2^(WaitBuckets−2).
func bucketEdge(b int) int {
	switch {
	case b == 0:
		return 0
	case b == WaitBuckets-1:
		return 1 << (WaitBuckets - 2)
	default:
		return 1<<b - 1
	}
}

// histBucket maps a wait in cycles to its log2 histogram bucket.
func histBucket(wait int) int {
	b := bits.Len(uint(wait))
	if b >= WaitBuckets {
		b = WaitBuckets - 1
	}
	return b
}

// Drive runs generator g against policy p for the given number of
// cycles and returns the aggregated metrics. The hot loop is
// allocation-free and runs on single request/grant words: the generator
// produces one BitVec per cycle, the policy steps it, and the online
// safety checks are one combined word test (mutual exclusion = at most
// one bit set, grant ⊆ request = grant &^ req == 0, work conservation
// = grant presence matches request presence) that only a broken
// arbiter fails.
//
// The per-task bookkeeping is mask arithmetic over a waiting word, the
// tasks requesting without a grant, so per-cycle work scales with the
// tasks whose state changed rather than with N: counters are touched
// for granted tasks and for tasks whose wait starts or ends. A cycle
// whose grant word and waiting word are both last cycle's (one holder
// or none) changes no service, wait or episode, so it touches only the
// holder's grant count. Grant episodes are counted lazily, as one
// running count of new-holder cycles minus a per-task base taken when a
// wait starts, folded into WorstEpisodes when the wait ends and at run
// end. Every metric updates incrementally — no trace is recorded, so
// multi-million-cycle runs cost O(N) memory.
//
// The loop lives in a driver that can be advanced a block of cycles at
// a time: Drive sets one up, advances it through every cycle and
// flushes it. RunGridColumns runs one driver per cell, block by block,
// feeding a group of a generated shape's cells the arrival words drawn
// once for the group; each cell returns what Drive returns for a
// generator of its own.
func Drive(p arbiter.Policy, g Generator, cycles int) (*Metrics, error) {
	if err := checkDrive(p, g, cycles); err != nil {
		return nil, err
	}
	d := newDriver(p, g, g, cycles)
	d.advance(cycles)
	return d.flush(), nil
}

// driver is Drive's loop state for one policy under one request stream,
// kept between calls so the loop can be advanced a block of cycles at a
// time.
type driver struct {
	p     arbiter.Policy
	src   BitGenerator
	m     *Metrics
	lanes arbiter.BitVec
	// grant still holds last cycle's decision, the closed-loop feedback
	// src reacts to; waiting marks the tasks requesting without a grant.
	grant, waiting arbiter.BitVec
	// For each waiting task: the cycle its wait began, and the episode
	// count at that cycle.
	since, base []int
	episodes    int // cycles on which a new holder took the grant
	prevHolder  int
	cycle       int // cycles advanced so far
}

// checkDrive reports why p cannot be driven under g for cycles cycles.
func checkDrive(p arbiter.Policy, g Generator, cycles int) error {
	n := p.N()
	if g.N() != n {
		return fmt.Errorf("workload: generator %s has %d lines, policy %s has %d", g.Name(), g.N(), p.Name(), n)
	}
	if n > arbiter.MaxN {
		return fmt.Errorf("workload: policy %s has %d lines; the bitset engine supports at most %d", p.Name(), n, arbiter.MaxN)
	}
	if cycles < 1 {
		return fmt.Errorf("workload: cycles must be positive, got %d", cycles)
	}
	return nil
}

// newDriver sets up the driver of a cell checkDrive accepted: g names
// the stream and gives its width, and src produces it, which is g itself
// except in a grid group that replays shared arrival words.
func newDriver(p arbiter.Policy, g Generator, src BitGenerator, cycles int) *driver {
	n := p.N()
	return &driver{
		p:   p,
		src: src,
		m: &Metrics{
			Policy:   p.Name(),
			Workload: g.Name(),
			N:        n,
			Cycles:   cycles,
			Tasks:    make([]TaskMetrics, n),
		},
		lanes:      arbiter.Mask(n),
		since:      make([]int, n),
		base:       make([]int, n),
		prevHolder: -1,
	}
}

// advance runs the next k cycles. The loop works on locals, copied in
// and written back once per call.
func (d *driver) advance(k int) {
	p, src, m, lanes := d.p, d.src, d.m, d.lanes
	grant, waiting := d.grant, d.waiting
	since, base := d.since, d.base
	episodes, prevHolder := d.episodes, d.prevHolder
	var demand, busy int64

	//sparcs:hotpath
	for cycle, end := d.cycle, d.cycle+k; cycle < end; cycle++ {
		last := grant
		req := src.NextBits(grant)
		grant = p.StepBits(req)

		// A correct arbiter never meets this: two grants, a grant to a
		// line not requesting, or grant presence unlike request presence.
		if grant&(grant-1) != 0 || grant&^req != 0 || (req == 0) != (grant == 0) {
			m.checkSafety(cycle, req, grant)
		}
		// x|-x has its top bit set iff x != 0.
		demand += int64(uint64(req|-req) >> 63)
		busy += int64(uint64(grant|-grant) >> 63)

		// Bookkeeping covers the policy's own lines only, so a broken
		// stepper's stray high bits cannot index past Tasks.
		grantN, reqN := grant&lanes, req&lanes
		still := reqN &^ grantN
		// Last cycle's one-hot (or empty) grant over the same waiting
		// tasks: no service, wait or episode changes, and prevHolder is
		// already this grant's holder.
		if grant == last && still == waiting && grant&(grant-1) == 0 {
			if grantN != 0 {
				m.Tasks[prevHolder].Grants++
			}
			continue
		}

		holder := grant.FirstSet()
		for s := grantN; s != 0; s &= s - 1 {
			i := s.FirstSet()
			t := &m.Tasks[i]
			t.Grants++
			if i != prevHolder {
				wait := 0
				if waiting.Bit(i) {
					wait = cycle - since[i]
				}
				t.Services++
				t.TotalWait += int64(wait)
				if wait > t.MaxWait {
					t.MaxWait = wait
				}
				m.WaitHist[histBucket(wait)]++
			}
		}
		for s := waiting &^ still; s != 0; s &= s - 1 {
			i := s.FirstSet()
			m.Tasks[i].foldEpisodes(episodes - base[i])
		}
		for s := still &^ waiting; s != 0; s &= s - 1 {
			i := s.FirstSet()
			since[i], base[i] = cycle, episodes
		}
		waiting = still
		if holder >= 0 && holder != prevHolder {
			episodes++
		}
		prevHolder = holder
	}
	m.DemandCycles += demand
	m.GrantedCycles += busy
	d.grant, d.waiting = grant, waiting
	d.episodes, d.prevHolder = episodes, prevHolder
	d.cycle += k
}

// flush closes the waits still open at run end and returns the metrics.
// A task still waiting (possibly starved for the entire run) reports its
// in-progress wait as a censored MaxWait, so starvation surfaces as the
// worst MaxWait instead of no wait at all.
func (d *driver) flush() *Metrics {
	for s := d.waiting; s != 0; s &= s - 1 {
		i := s.FirstSet()
		t := &d.m.Tasks[i]
		t.foldEpisodes(d.episodes - d.base[i])
		if w := d.cycle - d.since[i]; w > t.MaxWait {
			t.MaxWait = w
		}
	}
	return d.m
}
