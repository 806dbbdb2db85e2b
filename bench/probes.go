package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"sparcs"
	"sparcs/internal/arbiter"
	"sparcs/internal/core"
	"sparcs/internal/fft"
	"sparcs/internal/rc"
	"sparcs/internal/service"
	"sparcs/internal/workload"
)

// The per-layer probes time each layer's public functions in isolation,
// on fixed seed-derived inputs, after the traced workload has finished.
// Every traced run reports the same set, whichever workload it ran; the
// README maps each to the end-to-end metric it should move.
const (
	streamLen   = 1 << 16 // request words per StepBits/NextBits probe
	driveCycles = 1 << 13 // cycles per Drive cell
	probeReps   = 5
)

// sink keeps probed results live so the compiler cannot drop the calls.
var sink arbiter.BitVec

// scaled shrinks a probe size by the configured scale, keeping it positive.
func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// allocsPer runs f reps times and returns the heap allocations and bytes
// per call. Nothing else runs while probes do, so the process-wide
// counters are f's alone.
func allocsPer(reps int, f func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reps), float64(b.TotalAlloc-a.TotalAlloc) / float64(reps)
}

// shortName is a policy or shape spec without its parameter.
func shortName(spec string) string {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i]
	}
	return spec
}

func ns(d time.Duration) float64   { return float64(d.Nanoseconds()) }
func us(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e3 }
func msec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// perLayer runs every probe and adds the trace's own overhead and
// coverage for the workload's traced window.
func perLayer(cfg config, st *runStats) ([]metric, error) {
	var ms []metric
	seed := cfg.seed
	kernel, err := probeKernel(seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	ms = append(ms, kernel...)
	stage, err := probeStage(cfg.scale)
	if err != nil {
		return nil, err
	}
	ms = append(ms, stage...)
	facade, hashUs, runUs, err := probeFacade(cfg.scale)
	if err != nil {
		return nil, err
	}
	ms = append(ms, facade...)
	scen, err := probeScenario(seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	ms = append(ms, scen...)
	svc, err := probeService(seed, cfg.scale, hashUs+runUs)
	if err != nil {
		return nil, err
	}
	ms = append(ms, svc...)

	cost := spanCost()
	ms = append(ms,
		metric{name: "trace.overhead_frac", value: float64(len(st.spans)) * cost.Seconds() / st.window.Seconds(), unit: "1", n: len(st.spans)},
		metric{name: "layer_cover", value: systemSelf(st.spans).Seconds() / st.coverBase.Seconds(), unit: "1", n: len(st.spans)})
	return ms, nil
}

// spanCost is the time one span takes to record.
func spanCost() time.Duration {
	const n = 1 << 14
	tr := &tracer{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		tr.add(span{name: "bench.cost", start: s, end: time.Now()})
	}
	return time.Since(t0) / n
}

// recordStream drives bernoulli:0.30 traffic against round-robin at width
// n and records the request and grant words, so the kernel probes can
// replay them with no generator or policy in the loop.
func recordStream(n, length int, seed uint64) (reqs, grants []arbiter.BitVec, err error) {
	g, err := workload.NewGenerator("bernoulli:0.30", n, seed)
	if err != nil {
		return nil, nil, err
	}
	p, err := arbiter.NewPolicy("rr", n)
	if err != nil {
		return nil, nil, err
	}
	bg, ok := g.(workload.BitGenerator)
	if !ok {
		return nil, nil, fmt.Errorf("generator %s has no word-level surface", g.Name())
	}
	step := arbiter.AsBitStepper(p)
	reqs, grants = make([]arbiter.BitVec, length), make([]arbiter.BitVec, length)
	var grant arbiter.BitVec
	for i := range reqs {
		reqs[i] = bg.NextBits(grant)
		grant = step.StepBits(reqs[i])
		grants[i] = grant
	}
	return reqs, grants, nil
}

// probeKernel times the arbitration kernel and the traffic generators in
// isolation, then Drive over the whole grid; check_ns is what Drive
// spends beyond one step and one draw per cycle.
func probeKernel(seed uint64, scale float64) ([]metric, error) {
	var ms []metric
	length := scaled(streamLen, scale)
	cycles := scaled(driveCycles, scale)
	reps := scaled(probeReps, scale)
	for _, n := range []int{6, 64} {
		reqs, grants, err := recordStream(n, length, seed)
		if err != nil {
			return nil, err
		}
		var stepSum, nextSum float64
		for _, spec := range gridPolicies {
			steps := make([]arbiter.BitStepper, reps)
			for i := range steps {
				p, err := arbiter.NewPolicy(spec, n)
				if err != nil {
					return nil, err
				}
				steps[i] = arbiter.AsBitStepper(p)
			}
			i := 0
			d := medianTime(reps, func() {
				step := steps[i]
				i++
				for _, r := range reqs {
					sink ^= step.StepBits(r)
				}
			})
			v := ns(d) / float64(length)
			stepSum += v
			ms = append(ms, metric{name: fmt.Sprintf("arbiter.step_ns.%s.n%d", shortName(spec), n), value: v, unit: "ns", n: reps})
		}
		for _, shape := range gridShapes {
			gens := make([]workload.BitGenerator, reps)
			for i := range gens {
				g, err := workload.NewGenerator(shape, n, seed)
				if err != nil {
					return nil, err
				}
				gens[i] = g.(workload.BitGenerator)
			}
			i := 0
			d := medianTime(reps, func() {
				bg := gens[i]
				i++
				for _, g := range grants {
					sink ^= bg.NextBits(g)
				}
			})
			v := ns(d) / float64(length)
			nextSum += v
			ms = append(ms, metric{name: fmt.Sprintf("workload.next_ns.%s.n%d", shortName(shape), n), value: v, unit: "ns", n: reps})
		}
		ds := make([]float64, reps)
		for r := range ds {
			var ps []arbiter.Policy
			var gs []workload.Generator
			for _, spec := range gridPolicies {
				for _, shape := range gridShapes {
					p, err := arbiter.NewPolicy(spec, n)
					if err != nil {
						return nil, err
					}
					g, err := workload.NewGenerator(shape, n, seed)
					if err != nil {
						return nil, err
					}
					ps, gs = append(ps, p), append(gs, g)
				}
			}
			t0 := time.Now()
			for k := range ps {
				if _, err := workload.Drive(ps[k], gs[k], cycles); err != nil {
					return nil, err
				}
			}
			ds[r] = float64(time.Since(t0))
		}
		drive := median(ds) / float64(cycles*len(gridPolicies)*len(gridShapes))
		check := drive - stepSum/float64(len(gridPolicies)) - nextSum/float64(len(gridShapes))
		ms = append(ms,
			metric{name: fmt.Sprintf("workload.drive_ns.n%d", n), value: drive, unit: "ns", n: reps},
			metric{name: fmt.Sprintf("workload.check_ns.n%d", n), value: check, unit: "ns", n: reps})
	}
	return ms, nil
}

// loadedMemories returns reps memory images holding FFT inputs.
func loadedMemories(reps, tiles int) []*sparcs.Memory {
	mems := make([]*sparcs.Memory, reps)
	for i := range mems {
		mems[i] = sparcs.NewMemory()
		sparcs.LoadFFTInput(mems[i], tiles, int64(i))
	}
	return mems
}

// probeStage regresses core.SimulateStage time on simulated cycles over
// the FFT's first stage at 1 and 24 tiles: the slope is the interpreter's
// cost per cycle and the intercept the per-stage setup. It also counts
// one stage's allocations and times one Build.
func probeStage(scale float64) ([]metric, error) {
	reps := scaled(21, scale)
	opts := core.Options{DisableTraces: true}
	var cycles [2]float64
	var times [2]time.Duration
	var allocs, bytes float64
	for k, tiles := range []int{1, simTiles} {
		sys, err := sparcs.FFTSystem(tiles)
		if err != nil {
			return nil, err
		}
		d := sys.Design()
		mems := loadedMemories(reps, tiles)
		var runErr error
		i := 0
		times[k] = medianTime(reps, func() {
			st, err := core.SimulateStage(d, 0, mems[i], opts)
			i++
			if err != nil {
				runErr = err
				return
			}
			cycles[k] = float64(st.Cycles)
		})
		if runErr != nil {
			return nil, runErr
		}
		if k == 0 {
			mems = loadedMemories(reps, tiles)
			allocs, bytes = allocsPer(reps, func(i int) { _, runErr = core.SimulateStage(d, 0, mems[i], opts) })
		}
		if runErr != nil {
			return nil, runErr
		}
	}
	slope := ns(times[1]-times[0]) / (cycles[1] - cycles[0])
	setup := ns(times[0]) - slope*cycles[0]
	var buildErr error
	builds := scaled(probeReps, scale)
	compile := medianTime(builds, func() { _, buildErr = sparcs.FFTSystem(2) })
	if buildErr != nil {
		return nil, buildErr
	}
	return []metric{
		{name: "sim.cycle_ns", value: slope, unit: "ns", n: reps},
		{name: "core.stage_setup_us", value: setup / 1e3, unit: "us", n: reps},
		{name: "core.stage_allocs", value: allocs, unit: "count", n: reps},
		{name: "core.stage_bytes", value: bytes, unit: "bytes", n: reps},
		{name: "core.compile_ms", value: msec(compile), unit: "ms", n: builds},
	}, nil
}

// probeFacade times the root facade on the small design the service's
// hit path runs — hash, then Run — and measures Sweep's parallel
// efficiency on the large one: the serial Run time of a sweep's
// experiments over workers × its wall time. The hash is timed with the
// design inputs built fresh, as the service builds them per request.
func probeFacade(scale float64) (ms []metric, hashUs, runUs float64, err error) {
	reps := scaled(51, scale)
	hash := medianTime(reps, func() {
		_, err = sparcs.DesignHash(fft.Taskgraph(), rc.Wildforce(), fft.Programs(2), sparcs.WithStages(fft.PaperStages()))
	})
	if err != nil {
		return nil, 0, 0, err
	}
	small, err := sparcs.FFTSystem(2)
	if err != nil {
		return nil, 0, 0, err
	}
	run := medianTime(reps, func() { _, err = small.Run() })
	if err != nil {
		return nil, 0, 0, err
	}
	allocs, _ := allocsPer(reps, func(int) { _, err = small.Run() })
	if err != nil {
		return nil, 0, 0, err
	}

	large, err := sparcs.FFTSystem(simTiles)
	if err != nil {
		return nil, 0, 0, err
	}
	sets := make([][]sparcs.RunOption, sweepWidth)
	for k := range sets {
		sets[k] = []sparcs.RunOption{sparcs.WithSeed(uint64(k + 1))}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	workers := min(runtime.NumCPU(), sweepWidth)
	effs := make([]float64, scaled(probeReps, scale))
	for r := range effs {
		var serial time.Duration
		for _, s := range sets {
			t0 := time.Now()
			if _, err := large.Run(s...); err != nil {
				return nil, 0, 0, err
			}
			serial += time.Since(t0)
		}
		t0 := time.Now()
		if _, err := large.Sweep(sets...); err != nil {
			return nil, 0, 0, err
		}
		effs[r] = serial.Seconds() / (float64(workers) * time.Since(t0).Seconds())
	}
	return []metric{
		{name: "sparcs.hash_us", value: us(hash), unit: "us", n: reps},
		{name: "sparcs.run_us.t2", value: us(run), unit: "us", n: reps},
		{name: "sparcs.run_allocs.t2", value: allocs, unit: "count", n: reps},
		{name: "sparcs.sweep_eff", value: median(effs), unit: "1", n: len(effs)},
	}, us(hash), us(run), nil
}

// probeScenario runs the first scenarios of the scenario-churn list and
// splits their time into the jobs' solo System.Run time and the engine's
// own — valid because without cross-contention every stage is
// cycle-identical to a solo run. The simulated counts explain stall_frac
// and makespan_over_oracle.
func probeScenario(seed uint64, scale float64) ([]metric, error) {
	w, err := newChurn(seed)
	if err != nil {
		return nil, err
	}
	cfgs := w.(*churn).cfgs[:4]
	reps := scaled(probeReps, scale)
	var runMs, port, qwait, fails float64
	maxQueue := 0
	for _, c := range cfgs {
		var res *sparcs.ScenarioResult
		d := medianTime(reps, func() { res, err = sparcs.RunScenario(c) })
		if err != nil {
			return nil, err
		}
		runMs += msec(d) / float64(len(cfgs))
		port += res.PortBusyFraction / float64(len(cfgs))
		qwait += float64(res.QueueWaitP99) / float64(len(cfgs))
		fails += float64(res.PlaceFails) / float64(len(cfgs))
		maxQueue = max(maxQueue, res.MaxQueue)
	}
	allocs, _ := allocsPer(len(cfgs), func(i int) { _, err = sparcs.RunScenario(cfgs[i]) })
	if err != nil {
		return nil, err
	}
	var soloMs float64
	entries := cfgs[0].Entries
	for _, e := range entries {
		d := medianTime(scaled(21, scale), func() { _, err = e.System.Run(e.Options...) })
		if err != nil {
			return nil, err
		}
		soloMs += msec(d) * float64(churnJobs/len(entries)) // arrivals alternate classes
	}
	n := len(cfgs)
	return []metric{
		{name: "scenario.run_ms", value: runMs, unit: "ms", n: reps},
		{name: "scenario.engine_self_ms", value: runMs - soloMs, unit: "ms", n: reps},
		{name: "scenario.allocs", value: allocs, unit: "count", n: n},
		{name: "scenario.port_busy_frac", value: port, unit: "1", n: n},
		{name: "scenario.queue_wait_p99_cycles", value: qwait, unit: "cycles", n: n},
		{name: "scenario.place_fails", value: fails, unit: "count", n: n},
		{name: "scenario.max_queue", value: float64(maxQueue), unit: "count", n: n},
	}, nil
}

// probeService times the service's JSON decode and canonical encode, and
// a serial cache hit over loopback HTTP: the hit's median less decode,
// hash, run and encode is the HTTP stack's share. It then drives a short
// window of the serve schedule for the cache and load-generator counters.
func probeService(seed uint64, scale float64, hashRunUs float64) ([]metric, error) {
	reps := scaled(probeReps, scale)
	batch := scaled(1000, scale)
	hot := request{kind: hotKind, path: "/v1/experiments", exp: service.ExperimentRequest{Design: "fft", Tiles: 2, Run: service.RunSpec{Seed: 1}}}
	hot.encode()
	var err error
	dec := medianTime(reps, func() {
		for i := 0; i < batch; i++ {
			var r service.ExperimentRequest
			err = json.Unmarshal(hot.body, &r)
		}
	})
	if err != nil {
		return nil, err
	}
	small, err := sparcs.FFTSystem(2)
	if err != nil {
		return nil, err
	}
	res, err := small.Run()
	if err != nil {
		return nil, err
	}
	enc := medianTime(reps, func() {
		for i := 0; i < batch; i++ {
			_, err = service.EncodeResult(res)
		}
	})
	if err != nil {
		return nil, err
	}
	decUs, encUs := us(dec)/float64(batch), us(enc)/float64(batch)

	hitUs, err := serialHitUs(small.FootprintCLBs(), &hot, scaled(201, scale))
	if err != nil {
		return nil, err
	}

	st, delta, err := serveRun(config{seed: seed, seconds: scale, setups: 1}, nil)
	if err != nil {
		return nil, err
	}
	if st.failed > 0 {
		return nil, fmt.Errorf("serve probe: %d of %d requests failed", st.failed, st.attempted)
	}
	late := map[string]float64{}
	for _, m := range st.host {
		late[m.name] = m.value
	}
	n := len(st.samples)
	return []metric{
		{name: "service.decode_us", value: decUs, unit: "us", n: reps},
		{name: "service.encode_us", value: encUs, unit: "us", n: reps},
		{name: "service.http_us", value: hitUs - decUs - hashRunUs - encUs, unit: "us", n: reps},
		{name: "service.hit_ratio", value: float64(delta.CacheHits) / float64(max(1, delta.CacheHits+delta.CacheMisses)), unit: "1", n: n},
		{name: "service.compiles", value: float64(delta.Compiles), unit: "count", n: n},
		{name: "service.evictions", value: float64(delta.CacheEvictions), unit: "count", n: n},
		{name: "loadgen.late_p50_us", value: late["loadgen.late_p50_us"], unit: "us", n: n},
		{name: "loadgen.late_p99_us", value: late["loadgen.late_p99_us"], unit: "us", n: n},
	}, nil
}

// serialHitUs is the median client-observed time of count serial
// requests for one cached design.
func serialHitUs(footprint int, q *request, count int) (float64, error) {
	srv, err := startServer(footprint, nil)
	if err != nil {
		return 0, err
	}
	defer func() { _ = srv.close() }()
	client := newClient()
	defer client.CloseIdleConnections()
	lat := make([]float64, 0, count)
	for i := 0; i <= count; i++ { // the first request compiles and is not counted
		t0 := time.Now()
		status, _, err := post(client, srv.url, q, nil)
		if err != nil {
			return 0, err
		}
		if status != 200 {
			return 0, fmt.Errorf("hit probe: status %d", status)
		}
		if i > 0 {
			lat = append(lat, us(time.Since(t0)))
		}
	}
	return median(lat), nil
}
