package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 500}, {10, 500}, {99, 500}, {100, 900}, {999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := percentile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestQuietHostScaling(t *testing.T) {
	const ms = time.Millisecond
	refs := []refReading{{0, refNominal}, {50 * ms, refNominal}, {400 * ms, 2 * refNominal}, {450 * ms, 2 * refNominal}}
	if v := hostSpeed(refs, 10*ms, 20*ms); v != 1 {
		t.Errorf("speed among quiet readings = %g, want 1", v)
	}
	if v := hostSpeed(refs, 420*ms, 430*ms); v != 0.5 {
		t.Errorf("speed among slow readings = %g, want 0.5", v)
	}
	// No reading within refSpan: the median of all of them.
	if v, want := hostSpeed(refs, 5*time.Second, 6*time.Second), 1/1.5; math.Abs(v-want) > 1e-12 {
		t.Errorf("speed with no nearby reading = %g, want %g", v, want)
	}
	got := atQuietHost([]sample{{start: 420 * ms, lat: 10 * ms, cpu: 8 * ms, cycles: 5}}, refs)
	if want := (sample{start: 420 * ms, lat: 5 * ms, cpu: 4 * ms, cycles: 5}); got[0] != want {
		t.Errorf("scaled sample = %+v, want %+v", got[0], want)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	spans := []span{
		{name: "sparcs.Sweep", id: 1, start: at(0), end: at(100)},
		{name: "sparcs.Run", id: 2, parent: 1, start: at(10), end: at(30)},
		{name: "sparcs.Run", id: 3, parent: 1, start: at(20), end: at(50)},  // overlaps 2
		{name: "sparcs.Run", id: 4, parent: 1, start: at(90), end: at(120)}, // runs past its parent
		{name: "core.SimulateStage", id: 5, parent: 2, start: at(12), end: at(15)},
		{name: "bench.check", id: 6, start: at(100), end: at(110)},
		{name: "client.queue", id: 7, start: at(110), end: at(125)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * time.Microsecond, 2: 17 * time.Microsecond, 3: 30 * time.Microsecond,
		4: 30 * time.Microsecond, 5: 3 * time.Microsecond, 6: 10 * time.Microsecond, 7: 15 * time.Microsecond}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	// The harness spans are excluded from the system's self time.
	if got := systemSelf(spans); got != 130*time.Microsecond {
		t.Errorf("systemSelf = %v, want 130µs", got)
	}
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, b := serveSchedule(7, 1), serveSchedule(7, 1)
	if len(a) != serveRate {
		t.Fatalf("one second at %d/s scheduled %d requests", serveRate, len(a))
	}
	for i := range a {
		if a[i].due != b[i].due || !bytes.Equal(a[i].body, b[i].body) || a[i].path != b[i].path {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
		if a[i].due != time.Duration(i)*time.Second/serveRate {
			t.Fatalf("request %d due at %v, want a fixed spacing of 1/%d s", i, a[i].due, serveRate)
		}
	}
	c := serveSchedule(8, 1)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 produced the same schedule")
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	const hold = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(hold)
		_, _ = w.Write([]byte(`{"totalCycles":1}`))
	}))
	defer srv.Close()
	reqs := serveSchedule(1, 4.0/serveRate) // four requests
	for i := range reqs {
		reqs[i].kind, reqs[i].path = hotKind, "/v1/experiments"
	}
	replies, _, _ := drive(srv.URL, reqs, newChecker(), nil, newReference())
	for i, rp := range replies {
		if rp.failed {
			t.Fatalf("request %d failed", i)
		}
	}
	// The third request waits for one of the two connections: its latency
	// includes that wait, not only its own round trip.
	third := replies[2]
	if third.latency() < 2*hold-10*time.Millisecond {
		t.Errorf("third request latency %v: want at least two holds, counted from its due time", third.latency())
	}
	if third.latency() <= third.done.Sub(third.sent)+hold/2 {
		t.Errorf("latency %v does not include the %v it queued before sending", third.latency(), third.sent.Sub(third.due))
	}
}

func TestRefusalIsFailureAndSLOMiss(t *testing.T) {
	q := request{kind: hotKind, body: []byte(`{}`)}
	now := time.Now()
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		rp := reply{due: now, done: now.Add(time.Millisecond), status: status, body: []byte(`{"kind":"queue-full"}`)}
		newChecker().check(&q, &rp)
		if !rp.failed || !rp.sloMiss() {
			t.Errorf("status %d: failed=%v sloMiss=%v, want both", status, rp.failed, rp.sloMiss())
		}
	}
	ok := reply{due: now, done: now.Add(time.Millisecond), status: http.StatusOK, body: []byte(`{"totalCycles":5}`)}
	newChecker().check(&q, &ok)
	if ok.failed || ok.sloMiss() || ok.cycles != 5 {
		t.Errorf("fast OK reply: failed=%v sloMiss=%v cycles=%d", ok.failed, ok.sloMiss(), ok.cycles)
	}
	slow := reply{due: now, done: now.Add(sloLimit + time.Millisecond), status: http.StatusOK, body: []byte(`{"totalCycles":5}`)}
	newChecker().check(&q, &slow)
	if slow.failed || !slow.sloMiss() {
		t.Errorf("slow OK reply: failed=%v sloMiss=%v, want an SLO miss only", slow.failed, slow.sloMiss())
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// lastJSON parses the result object on the last line of a report.
func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.Contains(l, " n=") {
			t.Errorf("metric line without a sample count: %q", l)
		}
	}
	return res
}

// TestBenchSmoke runs every workload of BENCHMARK.json at a small
// fraction of its work, untraced and traced, and checks that each named
// metric is reported with its unit and that the trace parses.
func TestBenchSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := config{workload: w.Name, seed: 1, seconds: 0.2, setups: 1, trace: traced, scale: 0.02,
					traceOut: filepath.Join(t.TempDir(), "trace.json")}
				var out bytes.Buffer
				ok, err := bench(cfg, &out)
				if err != nil || !ok {
					t.Fatalf("trace=%v: ok=%v err=%v\n%s", traced, ok, err, out.String())
				}
				res := lastJSON(t, out.String())
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: reported %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, found := res.Metrics[m.Name]
					if !found || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s: got %+v (found=%v), want unit %s", traced, m.Name, got, found, m.Unit)
					}
				}
				if traced {
					checkTrace(t, cfg.traceOut)
				}
			}
		})
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur float64
			Pid     int
			Tid     int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Name == "" || e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("malformed trace event %+v", e)
		}
	}
}

// TestBenchFailsOnStarvation injects the hog under hier:2 into sim-long:
// the design starves into the stage watchdog, so the run must report
// failed operations and exit non-zero.
func TestBenchFailsOnStarvation(t *testing.T) {
	workloads["sim-long-starved"] = func(cfg config, tr *tracer) (*runStats, error) {
		cfg.setups = 1 // each set-up starves into the 10M-cycle watchdog once
		return runClosed(cfg, tr, func(seed uint64) (closedLoop, error) {
			exps := simLongList(seed)
			exps[0].policy, exps[0].contention = "hier:2", "M1=hog/2"
			return newSimLongFrom(exps)
		})
	}
	defer delete(workloads, "sim-long-starved")
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "sim-long-starved", "--seconds", "0.05"}, &out, &errs); code == 0 {
		t.Fatalf("exit status 0 for a starved design\n%s", out.String())
	}
	res := lastJSON(t, out.String())
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want an incorrect run with failures", res.Correct, res.Failed)
	}
	if !strings.Contains(out.String(), "sim-long-starved fail_frac ") || strings.Contains(out.String(), "fail_frac 0 ") {
		t.Errorf("fail_frac not reported above zero:\n%s", out.String())
	}
}
