package workload

// Frozen per-lane references for the word-level generators and Drive:
// the float draw, the closed-loop NextBits bodies and the Drive loop as
// they ran before the generators and Drive's bookkeeping moved onto whole
// BitVec words, and the correlated source's per-resource NextBits as it
// ran before its lanes moved onto one packed word (modulo ref* naming).
// The differential tests hold the live code to them bit for bit:
// identical request words every cycle, and deeply equal Metrics.

import (
	"fmt"
	"strconv"
	"strings"

	"sparcs/internal/arbiter"
)

// taskStreams derives one rng stream per task from the generator seed,
// as the generators did before they read one sequence through a window.
// The streams are not independent: stream i+1 starts one draw ahead of
// stream i, so task i+1's draw on one cycle is task i's draw on the
// next. The references draw from task i's stream a fixed number of
// times per cycle regardless of grant feedback, so the arrival process
// (which jobs spawn at which cycles) is bitwise identical no matter
// which policy is being driven.
func taskStreams(seed uint64, n int) []rng {
	streams := make([]rng, n)
	for i := range streams {
		streams[i] = rng{state: seed + uint64(i+1)*0x9e3779b97f4a7c15}
	}
	return streams
}

// refChance is the frozen float draw: true with probability p.
func refChance(r *rng, p float64) bool {
	return float64(r.next()>>11)*(1.0/(1<<53)) < p
}

// refGenerator is a frozen closed-loop generator.
type refGenerator interface {
	BitGenerator
	Reset()
}

// refJobs is the frozen per-lane closed-loop core: need[i] is the number
// of granted cycles task i's job still requires (0 = idle).
type refJobs struct {
	need []int
	hold int
}

// serve consumes grant feedback for task i, returning true if the task
// is now idle.
func (j *refJobs) serve(i int, granted bool) bool {
	if j.need[i] > 0 && granted {
		j.need[i]--
	}
	return j.need[i] == 0
}

func (j *refJobs) reset() {
	for i := range j.need {
		j.need[i] = 0
	}
}

// refBernoulli is the frozen uniform/hotspot/hog family.
type refBernoulli struct {
	n       int
	seed    uint64
	streams []rng
	p       []float64
	pin     []bool
	jobs    refJobs
}

func (b *refBernoulli) Reset() {
	b.streams = taskStreams(b.seed, b.n)
	b.jobs.reset()
}

func (b *refBernoulli) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	var req arbiter.BitVec
	for i := 0; i < b.n; i++ {
		arrive := refChance(&b.streams[i], b.p[i])
		if b.pin != nil && b.pin[i] {
			req |= 1 << uint(i)
			continue
		}
		if b.jobs.serve(i, prevGrant.Bit(i)) && arrive {
			b.jobs.need[i] = b.jobs.hold
		}
		if b.jobs.need[i] > 0 {
			req |= 1 << uint(i)
		}
	}
	return req
}

// refBursty is the frozen per-task on/off source.
type refBursty struct {
	n       int
	seed    uint64
	streams []rng
	on      []bool
	pOffOn  float64
	pOnOff  float64
	pArrive float64
	jobs    refJobs
}

func (b *refBursty) Reset() {
	b.streams = taskStreams(b.seed, b.n)
	for i := range b.on {
		b.on[i] = false
	}
	b.jobs.reset()
}

func (b *refBursty) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	var req arbiter.BitVec
	for i := 0; i < b.n; i++ {
		flip := b.streams[i].next()
		arrive := refChance(&b.streams[i], b.pArrive)
		if b.on[i] {
			if float64(flip>>11)*(1.0/(1<<53)) < b.pOnOff {
				b.on[i] = false
			}
		} else if float64(flip>>11)*(1.0/(1<<53)) < b.pOffOn {
			b.on[i] = true
		}
		if b.jobs.serve(i, prevGrant.Bit(i)) && b.on[i] && arrive {
			b.jobs.need[i] = b.jobs.hold
		}
		if b.jobs.need[i] > 0 {
			req |= 1 << uint(i)
		}
	}
	return req
}

// refMarkov is the frozen globally modulated source.
type refMarkov struct {
	n          int
	seed       uint64
	regime     rng
	streams    []rng
	storm      bool
	pCalmStorm float64
	pStormCalm float64
	pCalm      float64
	pStorm     float64
	jobs       refJobs
}

func (m *refMarkov) Reset() {
	m.regime = rng{state: m.seed}
	m.streams = taskStreams(m.seed, m.n)
	m.storm = false
	m.jobs.reset()
}

func (m *refMarkov) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	if m.storm {
		if refChance(&m.regime, m.pStormCalm) {
			m.storm = false
		}
	} else if refChance(&m.regime, m.pCalmStorm) {
		m.storm = true
	}
	p := m.pCalm
	if m.storm {
		p = m.pStorm
	}
	var req arbiter.BitVec
	for i := 0; i < m.n; i++ {
		arrive := refChance(&m.streams[i], p)
		if m.jobs.serve(i, prevGrant.Bit(i)) && arrive {
			m.jobs.need[i] = m.jobs.hold
		}
		if m.jobs.need[i] > 0 {
			req |= 1 << uint(i)
		}
	}
	return req
}

// newRefBernoulli mirrors the frozen constructors of the bernoulli
// family: every task at rate p.
func newRefBernoulli(n int, p float64, hold int, seed uint64) *refBernoulli {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = p
	}
	return &refBernoulli{n: n, seed: seed, streams: taskStreams(seed, n), p: ps, jobs: refJobs{need: make([]int, n), hold: hold}}
}

// newRef builds the frozen generator for a closed-loop spec of the
// NewGenerator grammar, with the same defaults.
func newRef(spec string, n int, seed uint64) (refGenerator, error) {
	shape, param := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		shape, param = spec[:i], spec[i+1:]
	}
	rate := func(def float64) (float64, error) {
		if param == "" {
			return def, nil
		}
		return strconv.ParseFloat(param, 64)
	}
	switch shape {
	case "bernoulli":
		p, err := rate(0.30)
		if err != nil {
			return nil, err
		}
		return newRefBernoulli(n, p, 2, seed), nil
	case "hotspot":
		p, err := rate(0.90)
		if err != nil {
			return nil, err
		}
		b := newRefBernoulli(n, p/8, 2, seed)
		b.p[0] = p
		return b, nil
	case "hog":
		b := newRefBernoulli(n, 0.25, 2, seed)
		b.pin = make([]bool, n)
		b.pin[0] = true
		return b, nil
	case "bursty":
		return &refBursty{
			n: n, seed: seed, streams: taskStreams(seed, n), on: make([]bool, n),
			pOffOn: 1.0 / 60, pOnOff: 1.0 / 20, pArrive: 0.9,
			jobs: refJobs{need: make([]int, n), hold: 2},
		}, nil
	case "markov":
		return &refMarkov{
			n: n, seed: seed, regime: rng{state: seed}, streams: taskStreams(seed, n),
			pCalmStorm: 1.0 / 200, pStormCalm: 1.0 / 50, pCalm: 0.05, pStorm: 0.85,
			jobs: refJobs{need: make([]int, n), hold: 2},
		}, nil
	}
	return nil, fmt.Errorf("no per-lane reference for %q", spec)
}

// refShared is the frozen correlated source: one lane word per
// resource (bit j = lane j), rewritten in place each cycle.
type refShared struct {
	k, lanes int
	seed     uint64
	arrival  uint64
	hold     int
	streams  []rng
	stage    []int
	heldFor  []int
	// The packed view NextBits offers the differential tests: resource
	// r's lane word is bits [shifts[r], shifts[r]+lanes) of the packed
	// word, as sim lays a correlated source's windows out.
	shifts      []uint
	reqW, prevW []arbiter.BitVec
}

func newRefShared(k, lanes int, p float64, hold int, seed uint64) *refShared {
	s := &refShared{
		k: k, lanes: lanes, seed: seed, arrival: threshold(p), hold: hold,
		stage: make([]int, lanes), heldFor: make([]int, lanes),
		reqW: make([]arbiter.BitVec, k), prevW: make([]arbiter.BitVec, k),
	}
	for r := 0; r < k; r++ {
		s.shifts = append(s.shifts, uint(r*lanes))
	}
	s.Reset()
	return s
}

func (s *refShared) Reset() {
	s.streams = taskStreams(s.seed, s.lanes)
	for j := range s.stage {
		s.stage[j] = -1
		s.heldFor[j] = 0
	}
}

// nextLanes is the frozen per-resource body: it consumes last cycle's
// grants prevGrant[r] and rewrites req[r], resource r's lane word.
func (s *refShared) nextLanes(req, prevGrant []arbiter.BitVec) {
	k := s.k
	for r := 0; r < k; r++ {
		req[r] = 0
	}
	for j := 0; j < s.lanes; j++ {
		bit := arbiter.BitVec(1) << uint(j)
		// One draw per lane per cycle regardless of state, so arrivals
		// are policy-independent.
		arrive := s.streams[j].hit(s.arrival) == 1
		switch {
		case s.stage[j] < 0:
			if arrive {
				s.stage[j] = 0
			}
		case s.stage[j] < k:
			// Waiting on resource stage[j]: advance when its grant lands.
			// Several may land in back-to-back cycles; latch one per cycle
			// (the request for the next resource only went up last cycle).
			if prevGrant[s.stage[j]]&bit != 0 {
				s.stage[j]++
			}
		}
		if s.stage[j] == k {
			// All acquired: count cycles where every grant is held
			// simultaneously (preemption can take one away mid-hold).
			all := true
			for r := 0; r < k; r++ {
				if prevGrant[r]&bit == 0 {
					all = false
					break
				}
			}
			if all {
				s.heldFor[j]++
			}
			if s.heldFor[j] >= s.hold {
				s.stage[j] = -1
				s.heldFor[j] = 0
			}
		}
		// Request lines: everything acquired so far plus the one being
		// waited on; idle lanes release everything.
		if s.stage[j] >= 0 {
			top := s.stage[j]
			if top >= k {
				top = k - 1
			}
			for r := 0; r <= top; r++ {
				req[r] |= bit
			}
		}
	}
}

// NextBits runs nextLanes on the packed word: it splits prevGrant into
// per-resource lane words and packs the request words back, masking
// each to its window as sim did.
func (s *refShared) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	mask := arbiter.Mask(s.lanes)
	for r, sh := range s.shifts {
		s.prevW[r] = prevGrant >> sh & mask
	}
	s.nextLanes(s.reqW, s.prevW)
	var req arbiter.BitVec
	for r, sh := range s.shifts {
		req |= (s.reqW[r] & mask) << sh
	}
	return req
}

// refDrive is the frozen Drive loop: per-lane bookkeeping with eager
// episode counters, behind the word-level safety checks.
func refDrive(p arbiter.Policy, g Generator, cycles int) *Metrics {
	n := p.N()
	m := &Metrics{
		Policy:   p.Name(),
		Workload: g.Name(),
		N:        n,
		Cycles:   cycles,
		Tasks:    make([]TaskMetrics, n),
	}
	var req, grant arbiter.BitVec
	waiting := make([]bool, n)
	waitStart := make([]int, n)
	episodes := make([]int, n)
	prevHolder := -1

	for cycle := 0; cycle < cycles; cycle++ {
		req = g.NextBits(grant)
		grant = p.StepBits(req)

		granted := grant.Count()
		holder := grant.FirstSet()
		if granted > 1 {
			m.violate(cycle, "mutual-exclusion")
		}
		if grant&^req != 0 {
			m.violate(cycle, "grant-implies-request")
		}
		if (req != 0) != (holder >= 0) {
			m.violate(cycle, "work-conservation")
		}
		if req != 0 {
			m.DemandCycles++
		}
		if holder >= 0 {
			m.GrantedCycles++
		}
		newEpisode := holder >= 0 && holder != prevHolder

		for i := 0; i < n; i++ {
			t := &m.Tasks[i]
			bit := arbiter.BitVec(1) << uint(i)
			switch {
			case grant&bit != 0:
				t.Grants++
				if i != prevHolder {
					wait := 0
					if waiting[i] {
						wait = cycle - waitStart[i]
					}
					t.Services++
					t.TotalWait += int64(wait)
					if wait > t.MaxWait {
						t.MaxWait = wait
					}
					m.WaitHist[histBucket(wait)]++
				}
				waiting[i] = false
				episodes[i] = 0
			case req&bit != 0:
				if !waiting[i] {
					waiting[i] = true
					waitStart[i] = cycle
					episodes[i] = 0
				}
				if newEpisode {
					episodes[i]++
					if episodes[i] > t.WorstEpisodes {
						t.WorstEpisodes = episodes[i]
					}
				}
			default:
				waiting[i] = false
				episodes[i] = 0
			}
		}
		prevHolder = holder
	}
	for i := 0; i < n; i++ {
		if waiting[i] {
			if w := cycles - waitStart[i]; w > m.Tasks[i].MaxWait {
				m.Tasks[i].MaxWait = w
			}
		}
	}
	return m
}
