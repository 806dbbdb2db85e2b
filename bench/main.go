// Command sparcsbench is the repository's benchmark: one process runs one
// workload against the sparcs packages, measuring every layer from
// outside by timing calls to their public functions, and prints its
// metrics — one "workload metric value unit n=<samples>" line each, then
// one JSON object as the last line of standard output.
//
//	sparcsbench --workload sim-long --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around the calls, writes them as Chrome trace-event JSON, and reports
// the per-layer metrics. The exit status is non-zero when any
// correctness check fails. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed window
	setups   int     // set-ups per run; setup_s is their median
	trace    bool
	traceOut string
	scale    float64 // multiplies the per-layer probes' sizes; 1 in real runs
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	text  string // printed instead of value when set (digests)
}

// opResult is the outcome of one closed-loop operation.
type opResult struct {
	lat               time.Duration // host time of the system call(s) alone
	cycles            int64         // simulated cycles the operation covered
	attempted, failed int
	digest            digest   // fingerprint of the simulated statistics
	sums              [4]int64 // workload-specific simulated totals
}

// closedLoop is a workload that runs a fixed, seed-derived list of
// operations back to back, one at a time.
type closedLoop interface {
	len() int
	run(i int, tr *tracer) opResult
	// simMetrics derives the simulated quantities from one pass over the
	// list; they depend on the seed only, never on host speed.
	simMetrics(pass []opResult) []metric
}

// runStats is everything one run measured.
type runStats struct {
	setups            []time.Duration
	setupSpeeds       []float64    // host speed during each set-up
	samples           []sample     // one per timed operation
	refs              []refReading // reference readings in the window
	attempted, failed int
	sim               []metric // simulated quantities (exact for a seed)
	host              []metric // workload-specific host metrics
	window            time.Duration
	coverBase         time.Duration // end-to-end time layer_cover divides by
	spans             []span
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, tr *tracer) (*runStats, error){
	"sim-long":       func(cfg config, tr *tracer) (*runStats, error) { return runClosed(cfg, tr, newSimLong) },
	"arb-grid":       func(cfg config, tr *tracer) (*runStats, error) { return runClosed(cfg, tr, newArbGrid) },
	"scenario-churn": func(cfg config, tr *tracer) (*runStats, error) { return runClosed(cfg, tr, newChurn) },
	"serve": func(cfg config, tr *tracer) (*runStats, error) {
		st, _, err := serveRun(cfg, tr)
		return st, err
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs the workload, prints its metrics and returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparcsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: 5, scale: 1}
	fs.StringVar(&cfg.workload, "workload", "", "workload: sim-long, arb-grid, scenario-churn or serve")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is derived from (seed 2 is held out)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "trace file for --trace 1 (default .bench_build/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok || fs.NArg() > 0 || cfg.seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(stderr, "sparcsbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg.trace = *traceFlag == 1
	// One P: on a shared 2-vCPU host the second vCPU's speed swings from
	// run to run, which put the spread of two-P runs near 20% against 5%
	// on one. Parallel fan-out is measured by the sparcs.sweep_eff probe.
	runtime.GOMAXPROCS(1)
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
	}
	ok, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "sparcsbench: %v\n", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stderr, "sparcsbench: correctness check failed")
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench runs one configured workload and prints its report; ok is false
// when any operation failed or any check did not hold.
func bench(cfg config, stdout io.Writer) (ok bool, err error) {
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	st, err := workloads[cfg.workload](cfg, tr)
	if err != nil {
		return false, err
	}
	var ms []metric
	if cfg.trace {
		st.spans = tr.snapshot()
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return false, err
		}
		if err := writeChromeTrace(cfg.traceOut, st.spans); err != nil {
			return false, fmt.Errorf("writing trace: %w", err)
		}
		ms, err = perLayer(cfg, st)
		if err != nil {
			return false, err
		}
	} else {
		ms = endToEnd(st)
	}
	ok = st.failed == 0
	report(stdout, cfg.workload, ms, st, ok, cfg.trace)
	return ok, nil
}

// endToEnd derives the untraced run's metrics — set-up time, latency and
// throughput, each at the quiet host's speed — and adds the unscaled
// values and the run's host speed as host lines.
func endToEnd(st *runStats) []metric {
	setup, rawSetup := make([]float64, len(st.setups)), make([]float64, len(st.setups))
	for i, d := range st.setups {
		rawSetup[i] = d.Seconds()
		setup[i] = d.Seconds() * st.setupSpeeds[i]
	}
	quiet := atQuietHost(st.samples, st.refs)
	lat, rawLat := latenciesMs(quiet), latenciesMs(st.samples)
	n := len(st.samples)
	st.host = append(st.host,
		metric{name: "host_speed", value: hostSpeed(st.refs, 0, st.window), unit: "1", n: len(st.refs)},
		metric{name: "raw.setup_s", value: median(rawSetup), unit: "s", n: len(rawSetup)},
		metric{name: "raw.p50_ms", value: percentile(rawLat, 0.50), unit: "ms", n: n},
		metric{name: "raw.cycles_per_cpu_s", value: rate(st.samples), unit: "cycles/s", n: n})
	if tail := tailPerMille(n); tail > 500 {
		st.host = append(st.host, metric{name: fmt.Sprintf("p%g_ms", float64(tail)/10), value: percentile(lat, float64(tail)/1000), unit: "ms", n: n})
	}
	return []metric{
		{name: "setup_s", value: median(setup), unit: "s", n: len(setup)},
		{name: "p50_ms", value: percentile(lat, 0.50), unit: "ms", n: n},
		{name: "cycles_per_cpu_s", value: rate(quiet), unit: "cycles/s", n: n},
		{name: "max_rss_mb", value: maxRSSMB(), unit: "MB", n: 1},
	}
}

// jsonMetric is one metric in the result object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints one line per metric — the reported metrics, then the
// run's failure share and workload-specific lines — and the JSON result
// last.
func report(w io.Writer, name string, ms []metric, st *runStats, ok, traced bool) {
	res := jsonResult{Correct: ok, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]jsonMetric{}}
	lines := append([]metric(nil), ms...)
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	failFrac := 0.0
	if st.attempted > 0 {
		failFrac = float64(st.failed) / float64(st.attempted)
	}
	lines = append(lines, metric{name: "fail_frac", value: failFrac, unit: "1", n: st.attempted})
	if !traced {
		lines = append(lines, st.host...) // a traced run reports the probes' versions instead
	}
	lines = append(lines, st.sim...)
	lines = append(lines,
		metric{name: "gomaxprocs", value: float64(runtime.GOMAXPROCS(0)), unit: "1", n: 1},
		metric{name: "window_s", value: st.window.Seconds(), unit: "s", n: 1})
	for _, m := range lines {
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", name, m.name, formatValue(m), m.unit, m.n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		b = []byte(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
	}
	fmt.Fprintf(w, "%s\n", b)
}

func formatValue(m metric) string {
	if m.text != "" {
		return m.text
	}
	return fmt.Sprintf("%.6g", m.value)
}

// runClosed sets a closed-loop workload up cfg.setups times — building
// its inputs and running one warm-up pass over its list each time — then
// cycles the list for the timed window. Every repeat of an operation
// must reproduce the warm-up pass's digest of its simulated statistics.
func runClosed(cfg config, tr *tracer, build func(seed uint64) (closedLoop, error)) (*runStats, error) {
	st := &runStats{}
	var w closedLoop
	var ref []digest
	rr := newReference()
	for s := 0; s < cfg.setups; s++ {
		clk := setupClock{rr: rr}
		t0 := time.Now()
		var err error
		if w, err = build(cfg.seed); err != nil {
			return nil, err
		}
		pass := make([]opResult, w.len())
		for i := range pass {
			clk.tick()
			pass[i] = w.run(i, nil)
			st.attempted += pass[i].attempted
			st.failed += pass[i].failed
		}
		st.setups = append(st.setups, time.Since(t0))
		st.setupSpeeds = append(st.setupSpeeds, clk.speed())
		if s == 0 {
			st.sim = w.simMetrics(pass)
			ref = make([]digest, len(pass))
			for i, r := range pass {
				ref[i] = r.digest
			}
		}
	}

	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var lastRef time.Duration
	for next := 0; time.Now().Before(end); next++ {
		if at := time.Since(start); next == 0 || at-lastRef >= refEvery {
			st.refs = append(st.refs, refReading{at, rr.read()})
			lastRef = at
		}
		i := next % w.len()
		opStart := time.Since(start)
		cpu0 := cpuTime()
		res := w.run(i, tr)
		cpu := cpuTime() - cpu0
		if res.digest != ref[i] && res.failed == 0 {
			res.failed = res.attempted // the simulated statistics changed between repeats
		}
		st.attempted += res.attempted
		st.failed += res.failed
		st.samples = append(st.samples, sample{start: opStart, lat: res.lat, cpu: cpu, cycles: res.cycles})
	}
	st.window = time.Since(start)
	st.coverBase = st.window
	return st, nil
}

// timed calls call and returns how long it took, recording it as a span
// when tracing.
func timed(tr *tracer, name string, parent, req int64, call func()) time.Duration {
	t0 := time.Now()
	call()
	t1 := time.Now()
	tr.add(span{name: name, parent: parent, req: req, start: t0, end: t1})
	return t1.Sub(t0)
}
