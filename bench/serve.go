package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"sparcs"
	"sparcs/internal/service"
)

// serve: open loop against an in-process sparcsd (service.Server behind a
// loopback net/http server). Requests go out at a fixed rate whatever
// happened to earlier ones, over at most serveConns connections, and each
// is timed from the moment it was due, so a stall is charged to every
// request queued behind it. The knee moves with the host's speed: at one
// P, 500 requests per second sat below it on a quiet host and past it on
// a slow one, so the rate leaves room for the slowest host measured
// (README.md has the measurements).
const (
	serveRate    = 250 // requests per second
	serveConns   = 2
	serveWorkers = 2
	cacheDesigns = 6 // cache budget, in design footprints
	sloLimit     = 10 * time.Millisecond
	offlineEvery = 50 // one OK body in this many is diffed against OfflineResult
	warmRequests = 400
	// coarseSlack is how early the generator's time.Sleep aims. Go's
	// timers wake through the network poller at millisecond resolution,
	// up to a millisecond late — several times a cache hit's service
	// time — so the last stretch is a nanosleep system call, which wakes
	// within tens of microseconds and, unlike a spin, burns no CPU.
	coarseSlack = time.Millisecond
)

// Request kinds of the serve mix.
const (
	hotKind   = iota // one of three cached designs
	coldKind         // one of 24 variants the cache budget cannot hold
	sweepKind        // a 4-experiment sweep on a hot design
)

var (
	hotTiles    = []int{2, 3, 4}
	hotPolicies = []string{"", "priority", "wrr:2"}
	coldGrants  = []int{1, 2, 4} // accesses per grant of the cold variants
)

// request is one scheduled call.
type request struct {
	due   time.Duration // since the window start
	kind  int
	path  string
	body  []byte
	exp   service.ExperimentRequest // kind hot or cold
	sweep service.SweepRequest      // kind sweep
}

// drawRequest draws one request of the mix: 92% hot experiments, 3% cold
// experiments that compile on a miss, 5% sweeps.
func drawRequest(r *splitmix) request {
	u := r.float()
	switch {
	case u < 0.92:
		e := service.ExperimentRequest{Design: "fft", Tiles: hotTiles[r.intn(len(hotTiles))],
			Run: service.RunSpec{Policy: hotPolicies[r.intn(len(hotPolicies))], Seed: uint64(1 + r.intn(8))}}
		return request{kind: hotKind, path: "/v1/experiments", exp: e}
	case u < 0.95:
		e := service.ExperimentRequest{Design: "fft", Tiles: 1 + r.intn(8),
			Build: service.BuildSpec{AccessesPerGrant: coldGrants[r.intn(len(coldGrants))]},
			Run:   service.RunSpec{Seed: uint64(1 + r.intn(8))}}
		return request{kind: coldKind, path: "/v1/experiments", exp: e}
	default:
		s := service.SweepRequest{Design: "fft", Tiles: hotTiles[r.intn(len(hotTiles))]}
		for k := 0; k < 4; k++ {
			s.Experiments = append(s.Experiments, service.RunSpec{Policy: hotPolicies[r.intn(len(hotPolicies))], Seed: uint64(1 + r.intn(8))})
		}
		return request{kind: sweepKind, path: "/v1/sweeps", sweep: s}
	}
}

// encode fills the request's wire body.
func (q *request) encode() {
	var v any = q.exp
	if q.kind == sweepKind {
		v = q.sweep
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	q.body = b
}

// serveSchedule is the window's request list, a pure function of the
// seed: one request every 1/serveRate seconds for the given length.
func serveSchedule(seed uint64, seconds float64) []request {
	r := splitmix{seed}
	n := int(seconds * serveRate)
	out := make([]request, n)
	for i := range out {
		out[i] = drawRequest(&r)
		out[i].due = time.Duration(i) * time.Second / serveRate
		out[i].encode()
	}
	return out
}

// warmList is the set-up's closed-loop warm-up: every hot design ×
// policy once, so they are compiled and cached, then a prefix of the mix
// drawn from a stream distinct from the window's.
func warmList(seed uint64) []request {
	var out []request
	for _, t := range hotTiles {
		for _, p := range hotPolicies {
			out = append(out, request{kind: hotKind, path: "/v1/experiments",
				exp: service.ExperimentRequest{Design: "fft", Tiles: t, Run: service.RunSpec{Policy: p}}})
		}
	}
	r := splitmix{^seed}
	for len(out) < warmRequests {
		out = append(out, drawRequest(&r))
	}
	for i := range out {
		out[i].encode()
	}
	return out
}

// server is an in-process sparcsd on a loopback port.
type server struct {
	hs   *http.Server
	url  string
	done chan error // Serve's return value
}

func startServer(footprint int, tr *tracer) (*server, error) {
	svc, err := service.New(service.Config{Workers: serveWorkers, CacheBudgetCLBs: cacheDesigns * footprint})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	s := &server{hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for Serve to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return err
}

// tracedHandler records a span around the service handler, parented on
// the client span named in the request's X-Bench-Span header. Requests
// without one (the set-up's warm-up) are served untraced.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		tid, _ := strconv.Atoi(r.Header.Get("X-Bench-Conn"))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.add(span{name: "service.Handler", parent: parent, req: req, tid: tid, start: t0, end: time.Now()})
	})
}

// newClient returns an HTTP client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// reply is one request's outcome as the client saw it.
type reply struct {
	due, woke, sent, done time.Time
	status                int
	body                  []byte
	cycles                int64
	failed                bool // transport error, non-200, or a check failed
}

func (r *reply) latency() time.Duration { return r.done.Sub(r.due) }

// sloMiss reports whether the request missed the latency limit; a failed
// or refused request always does.
func (r *reply) sloMiss() bool { return r.failed || r.latency() > sloLimit }

// post sends one request on c and reads the reply. hdr carries the trace
// headers when tracing.
func post(c *http.Client, base string, q *request, hdr map[string]string) (status int, body []byte, err error) {
	hr, err := http.NewRequest(http.MethodPost, base+q.path, bytes.NewReader(q.body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checker validates replies: every OK body decodes, equal requests get
// byte-equal bodies, and one OK body in offlineEvery is kept for the
// comparison against service.OfflineResult after the window.
type checker struct {
	mu      sync.Mutex
	seen    map[string]uint64 // request body -> hash of its first OK reply
	ok      int
	sampled []kept
}

// kept is an OK reply held for the offline comparison.
type kept struct {
	q    *request
	body []byte
}

func newChecker() *checker { return &checker{seen: map[string]uint64{}} }

// check fills rp.cycles and rp.failed.
func (ck *checker) check(q *request, rp *reply) {
	if rp.failed || rp.status != http.StatusOK {
		rp.failed = true
		return
	}
	cycles, err := replyCycles(q.kind, rp.body)
	if err != nil {
		rp.failed = true
		return
	}
	rp.cycles = cycles
	h := fnv.New64a()
	h.Write(rp.body)
	sum := h.Sum64()
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if prev, ok := ck.seen[string(q.body)]; ok && prev != sum {
		rp.failed = true
		return
	}
	ck.seen[string(q.body)] = sum
	if ck.ok++; ck.ok%offlineEvery == 0 {
		ck.sampled = append(ck.sampled, kept{q, rp.body})
	}
	rp.body = nil // checked; only the sampled bodies are kept
}

// replyCycles decodes the simulated cycles a reply reports.
func replyCycles(kind int, body []byte) (int64, error) {
	if kind != sweepKind {
		var r service.ResultJSON
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, err
		}
		return int64(r.TotalCycles), nil
	}
	var sr struct {
		Results []*service.ResultJSON `json:"results"`
		Error   *service.SweepErrorJSON
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		return 0, err
	}
	if sr.Error != nil {
		return 0, fmt.Errorf("sweep experiment %d failed: %s", sr.Error.Index, sr.Error.Message)
	}
	var total int64
	for _, r := range sr.Results {
		if r == nil {
			return 0, fmt.Errorf("sweep returned a null result")
		}
		total += int64(r.TotalCycles)
	}
	return total, nil
}

// verifyOffline diffs every sampled body against an offline run of the
// same experiment, returning the number of mismatches.
func (ck *checker) verifyOffline() int {
	bad := 0
	for _, s := range ck.sampled {
		if s.q.kind != sweepKind {
			want, _, err := service.OfflineResult(s.q.exp)
			if err != nil || !bytes.Equal(want, s.body) {
				bad++
			}
			continue
		}
		var resp service.SweepResponse
		if err := json.Unmarshal(s.body, &resp); err != nil || len(resp.Results) != len(s.q.sweep.Experiments) {
			bad++
			continue
		}
		for i, rs := range s.q.sweep.Experiments {
			want, _, err := service.OfflineResult(service.ExperimentRequest{Design: s.q.sweep.Design, Tiles: s.q.sweep.Tiles, Build: s.q.sweep.Build, Run: rs})
			if err != nil || !bytes.Equal(want, append(append([]byte(nil), resp.Results[i]...), '\n')) {
				bad++
				break
			}
		}
	}
	return bad
}

// drive sends reqs open loop against base and returns every reply, the
// process's CPU time as each request was dispatched and once after the
// last reply, and readings of rr taken between dispatches.
func drive(base string, reqs []request, ck *checker, tr *tracer, rr *reference) ([]reply, []time.Duration, []refReading) {
	replies := make([]reply, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := range queue {
				q, rp := &reqs[i], &replies[i]
				var hdr map[string]string
				id := tr.newID()
				if tr != nil {
					hdr = map[string]string{"X-Bench-Span": strconv.FormatInt(id, 10), "X-Bench-Req": strconv.Itoa(i), "X-Bench-Conn": strconv.Itoa(conn + 1)}
				}
				rp.sent = time.Now()
				var err error
				rp.status, rp.body, err = post(client, base, q, hdr)
				rp.done = time.Now()
				rp.failed = err != nil
				tr.add(span{name: "client.queue", req: int64(i), tid: 100 + conn, start: rp.woke, end: rp.sent})
				tr.add(span{name: "http.Do", id: id, req: int64(i), tid: conn + 1, start: rp.sent, end: rp.done})
				ck.check(q, rp)
			}
		}(c)
	}

	cpu := make([]time.Duration, 0, len(reqs)+1)
	var refs []refReading
	start := time.Now()
	for i := range reqs {
		cpu = append(cpu, cpuTime())
		due := start.Add(reqs[i].due)
		waitUntil(due)
		replies[i].due, replies[i].woke = due, time.Now()
		tr.add(span{name: "loadgen.late", req: int64(i), start: due, end: replies[i].woke})
		queue <- i
		if at := time.Since(start); len(refs) == 0 || at-refs[len(refs)-1].at >= refEvery {
			refs = append(refs, refReading{at, rr.read()})
		}
	}
	close(queue)
	wg.Wait()
	cpu = append(cpu, cpuTime())
	return replies, cpu, refs
}

// serveSamples turns replies into samples, charging request i the
// process CPU time of its dispatch interval.
func serveSamples(reqs []request, replies []reply, cpu []time.Duration) []sample {
	out := make([]sample, len(replies))
	for i, rp := range replies {
		out[i] = sample{start: reqs[i].due, lat: rp.latency(), cpu: cpu[i+1] - cpu[i], cycles: rp.cycles}
	}
	return out
}

// waitUntil returns at t, or as soon after it as the host allows.
func waitUntil(t time.Time) {
	if d := time.Until(t) - coarseSlack; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the span records the real send time
	}
}

// fetchStats reads the server's /v1/stats counters.
func fetchStats(base string) (service.Stats, error) {
	var st service.Stats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// serveSetup starts a server and runs the warm-up list through it
// serially, taking reference readings on clk between requests.
func serveSetup(seed uint64, footprint int, tr *tracer, st *runStats, clk *setupClock) (*server, digest, error) {
	srv, err := startServer(footprint, tr)
	if err != nil {
		return nil, 0, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	ck := newChecker()
	d := newDigest()
	for _, q := range warmList(seed) {
		clk.tick()
		rp := reply{}
		var err error
		rp.status, rp.body, err = post(client, srv.url, &q, nil)
		rp.failed = err != nil
		ck.check(&q, &rp)
		st.attempted++
		if rp.failed {
			st.failed++
		}
		d.add(int64(rp.status), rp.cycles)
	}
	return srv, d, nil
}

// serveRun sets the service up cfg.setups times, then drives one window
// of the open-loop schedule against the last server. It also returns the
// server's stats delta over the window, which the per-layer probes report.
func serveRun(cfg config, tr *tracer) (*runStats, service.Stats, error) {
	st := &runStats{}
	var delta service.Stats
	fft, err := sparcs.FFTSystem(1)
	if err != nil {
		return nil, delta, err
	}
	footprint := fft.FootprintCLBs()
	var srv *server
	rr := newReference()
	for s := 0; s < cfg.setups; s++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, delta, err
			}
		}
		t0 := time.Now()
		var d digest
		clk := setupClock{rr: rr}
		if srv, d, err = serveSetup(cfg.seed, footprint, tr, st, &clk); err != nil {
			return nil, delta, err
		}
		st.setups = append(st.setups, time.Since(t0))
		st.setupSpeeds = append(st.setupSpeeds, clk.speed())
		if s == 0 {
			st.sim = []metric{d.metric(warmRequests)}
		}
	}
	defer func() { _ = srv.close() }()

	reqs := serveSchedule(cfg.seed, cfg.seconds)
	was, err := fetchStats(srv.url)
	if err != nil {
		return nil, delta, err
	}
	ck := newChecker()
	start := time.Now()
	replies, cpu, refs := drive(srv.url, reqs, ck, tr, rr)
	st.window = time.Since(start)
	now, err := fetchStats(srv.url)
	if err != nil {
		return nil, delta, err
	}
	delta = service.Stats{
		CacheHits:      now.CacheHits - was.CacheHits,
		CacheMisses:    now.CacheMisses - was.CacheMisses,
		Compiles:       now.Compiles - was.Compiles,
		CacheEvictions: now.CacheEvictions - was.CacheEvictions,
	}

	misses := 0
	late := make([]float64, len(replies))
	for i := range replies {
		rp := &replies[i]
		st.attempted++
		if rp.failed {
			st.failed++
		}
		if rp.sloMiss() {
			misses++
		}
		st.coverBase += rp.latency()
		late[i] = float64(rp.woke.Sub(rp.due).Nanoseconds()) / 1e3
	}
	bad := ck.verifyOffline()
	st.failed += bad
	st.attempted += len(ck.sampled)
	st.samples = serveSamples(reqs, replies, cpu)
	st.refs = refs
	sort.Float64s(late)
	n := len(replies)
	st.host = []metric{
		{name: "slo_miss_frac", value: float64(misses) / float64(max(n, 1)), unit: "1", n: n},
		{name: "loadgen.late_p50_us", value: percentile(late, 0.50), unit: "us", n: n},
		{name: "loadgen.late_p99_us", value: percentile(late, 0.99), unit: "us", n: n},
		{name: "offline_checked", value: float64(len(ck.sampled)), unit: "count", n: len(ck.sampled)},
	}
	return st, delta, nil
}
