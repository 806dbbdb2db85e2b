// Package service is arbitration-as-a-service: a long-running HTTP/JSON
// server over the sparcs compile-once/experiment-many API. Designs are
// compiled at most once per content hash (sparcs.DesignHash) into a
// shared System cache; a request whose design reference (design, tiles,
// BuildSpec) was seen before finds that hash in a memo with one map
// lookup, and builds the design's inputs only if the cache has to
// compile them (the first request, or the first after an eviction). The
// memo holds at most 1024 references, is cleared when full, and never
// stores one whose expected contention is over 256 bytes. It rests on
// one assumption: a design's Build inputs are a pure function of its
// reference (see designInputs). Experiments fan out concurrently through
// System.Run/System.Sweep; and admission control is itself an arbiter —
// the repo's weighted-round-robin kernel steps over per-class bounded
// queues, so the same policy machinery the paper puts in front of
// memory banks sits in front of the server's compute.
//
// Endpoints:
//
//	POST /v1/experiments  one experiment        -> canonical ResultJSON
//	POST /v1/sweeps       experiment fan-out    -> SweepResponse
//	GET  /v1/stats        live counters         -> Stats
//	GET  /healthz         liveness              -> "ok"
//
// Experiment responses are byte-identical to EncodeResult applied to an
// offline System.Run with the same options: cache and hash metadata
// travel in X-Sparcsd-* headers, never in the body, so the body can be
// diffed directly against an offline run (cmd/sparcsd -mode once).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"sparcs"
	"sparcs/internal/fft"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// Config parameterizes New. The zero value serves: GOMAXPROCS execution
// slots, 64-deep queues, and the default interactive(4)/batch(1)
// classes.
type Config struct {
	// Workers bounds concurrently executing experiments (compile + run);
	// <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds each class's admission queue; <= 0 means 64.
	QueueDepth int
	// Classes are the admission classes; nil means
	// {interactive: weight 4, batch: weight 1}. The first class is the
	// default for requests that name none.
	Classes []Class
	// CacheBudgetCLBs bounds the compiled-System cache by total CLB
	// footprint (LRU eviction; a later request for an evicted design
	// recompiles once). <= 0 means unbounded — the historical behavior.
	CacheBudgetCLBs int
}

// Server is one service instance. Create with New, mount Handler, and
// Drain before shutdown.
type Server struct {
	cfg    Config
	cache  *systemCache
	memo   *hashMemo
	adm    *admission
	slo    *sloTracker
	mux    *http.ServeMux
	served atomic.Int64
}

// New validates the config and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Classes == nil {
		cfg.Classes = []Class{{Name: "interactive", Weight: 4}, {Name: "batch", Weight: 1}}
	}
	adm, err := newAdmission(cfg.Classes, cfg.Workers, cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, cache: newSystemCache(cfg.CacheBudgetCLBs), memo: newHashMemo(), adm: adm, slo: newSLOTracker(cfg.Classes)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiment)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// Handler returns the HTTP handler serving the endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting new experiments (they get 503) and blocks until
// every queued and in-flight experiment completes or ctx expires —
// call before http.Server.Shutdown for a graceful SIGTERM.
func (s *Server) Drain(ctx context.Context) error { return s.adm.drain(ctx) }

// BuildSpec is the declarative subset of BuildOptions a request may
// set. An empty ExpectedContention means "unset" on the wire (the
// in-process API's explicit empty-string opt-out is not reachable
// remotely; it is also the default).
type BuildSpec struct {
	AccessesPerGrant   int    `json:"accessesPerGrant,omitempty"`
	Conservative       bool   `json:"conservative,omitempty"`
	ExpectedContention string `json:"expectedContention,omitempty"`
}

// RunSpec is one experiment's per-run options — the WithPolicy /
// WithContention / WithSeed / WithMaxCycles surface of System.Run.
type RunSpec struct {
	Policy     string `json:"policy,omitempty"`
	Contention string `json:"contention,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	MaxCycles  int    `json:"maxCycles,omitempty"`
}

// ExperimentRequest is the POST /v1/experiments body.
type ExperimentRequest struct {
	// Design names a registered design; currently "fft" (the Section 5
	// case study).
	Design string `json:"design"`
	// Tiles parameterizes the fft design; <= 0 means 6.
	Tiles int       `json:"tiles,omitempty"`
	Build BuildSpec `json:"build,omitempty"`
	Run   RunSpec   `json:"run,omitempty"`
	// Class picks the admission class; empty means the first configured
	// class.
	Class string `json:"class,omitempty"`
}

// SweepRequest is the POST /v1/sweeps body: one design, many
// experiments, fanned through System.Sweep under ONE admission slot
// (the sweep parallelizes internally over GOMAXPROCS).
type SweepRequest struct {
	Design      string    `json:"design"`
	Tiles       int       `json:"tiles,omitempty"`
	Build       BuildSpec `json:"build,omitempty"`
	Experiments []RunSpec `json:"experiments"`
	Class       string    `json:"class,omitempty"`
}

// SweepResponse carries every completed experiment's canonical
// encoding in input order (null for failed slots) plus the typed
// partial-failure report, mirroring System.Sweep's contract.
type SweepResponse struct {
	Results []json.RawMessage `json:"results"`
	Error   *SweepErrorJSON   `json:"error,omitempty"`
}

// SweepErrorJSON is the wire form of *sparcs.SweepError.
type SweepErrorJSON struct {
	Index   int    `json:"index"`
	Message string `json:"message"`
}

// Stats is the GET /v1/stats body.
type Stats struct {
	Served            int64               `json:"served"`
	CacheHits         int64               `json:"cacheHits"`
	CacheMisses       int64               `json:"cacheMisses"`
	Compiles          int64               `json:"compiles"`
	CacheEvictions    int64               `json:"cacheEvictions"`
	CacheResidentCLBs int                 `json:"cacheResidentCLBs"`
	CacheEntries      int                 `json:"cacheEntries"`
	RejectedFull      int64               `json:"rejectedFull"`
	RejectedDraining  int64               `json:"rejectedDraining"`
	Inflight          int                 `json:"inflight"`
	Queued            map[string]int      `json:"queued"`
	Draining          bool                `json:"draining"`
	Classes           map[string]ClassSLO `json:"classes"`
}

// ErrorJSON is the body of every non-2xx response.
type ErrorJSON struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
}

// UnknownDesignError rejects requests naming an unregistered design.
type UnknownDesignError struct {
	Design string
}

func (e *UnknownDesignError) Error() string {
	return fmt.Sprintf("service: unknown design %q (registered: fft)", e.Design)
}

// designInputs resolves a request's design reference to the Build
// inputs. Every call returns fresh values; equality across calls is
// exactly what DesignHash certifies.
//
// The server memoizes the hash of its result per (design, tiles, b), so
// it must stay a pure function of them. A design whose inputs depend on
// anything else (a file, the clock, server state) must not go through
// the memo.
func designInputs(design string, tiles int, b BuildSpec) (*taskgraph.Graph, *rc.Board, map[string]sparcs.Program, []sparcs.BuildOption, error) {
	switch design {
	case "fft":
		if tiles <= 0 {
			tiles = 6
		}
		opts := []sparcs.BuildOption{sparcs.WithStages(fft.PaperStages())}
		if b.AccessesPerGrant > 0 {
			opts = append(opts, sparcs.WithAccessesPerGrant(b.AccessesPerGrant))
		}
		if b.Conservative {
			opts = append(opts, sparcs.WithConservativeArbitration())
		}
		if b.ExpectedContention != "" {
			opts = append(opts, sparcs.WithExpectedContention(b.ExpectedContention))
		}
		return fft.Taskgraph(), rc.Wildforce(), fft.Programs(tiles), opts, nil
	default:
		return nil, nil, nil, nil, &UnknownDesignError{Design: design}
	}
}

// runOptions converts a RunSpec to System.Run options. Option parsing
// errors surface from Run itself.
func runOptions(r RunSpec) []sparcs.RunOption {
	var opts []sparcs.RunOption
	if r.Policy != "" {
		opts = append(opts, sparcs.WithPolicy(r.Policy))
	}
	if r.Contention != "" {
		opts = append(opts, sparcs.WithContention(r.Contention))
	}
	if r.Seed != 0 {
		opts = append(opts, sparcs.WithSeed(r.Seed))
	}
	if r.MaxCycles != 0 {
		opts = append(opts, sparcs.WithMaxCycles(r.MaxCycles))
	}
	return opts
}

// system resolves the design to its hash and returns the cached
// compiled System — compiling at most once per hash across every
// concurrent request. A design reference already in the memo is not
// hashed again, and its inputs are built only if the cache compiles.
// References that fail to resolve or hash are never memoized.
func (s *Server) system(design string, tiles int, b BuildSpec) (sys *sparcs.System, hash string, hit bool, err error) {
	key := designKey{design: design, tiles: tiles, build: b}
	hash, ok := s.memo.get(key)
	if !ok {
		g, board, programs, bopts, err := designInputs(design, tiles, b)
		if err != nil {
			return nil, "", false, err
		}
		if hash, err = sparcs.DesignHash(g, board, programs, bopts...); err != nil {
			return nil, "", false, err
		}
		s.memo.put(key, hash)
	}
	sys, hit, err = s.cache.get(hash, func() (*sparcs.System, error) {
		g, board, programs, bopts, err := designInputs(design, tiles, b)
		if err != nil {
			return nil, err
		}
		return sparcs.Build(g, board, programs, bopts...)
	})
	return sys, hash, hit, err
}

// OfflineResult runs one experiment request in-process with no server,
// cache, or admission in the path — fresh Build, one Run — and returns
// the canonical response body plus the design hash. A server's
// /v1/experiments response for the same request is byte-identical to
// the body (the differential tests and the CI smoke diff the two),
// which is the service's correctness contract: serving adds routing and
// caching, never different results.
func OfflineResult(req ExperimentRequest) (body []byte, hash string, err error) {
	g, board, programs, bopts, err := designInputs(req.Design, req.Tiles, req.Build)
	if err != nil {
		return nil, "", err
	}
	hash, err = sparcs.DesignHash(g, board, programs, bopts...)
	if err != nil {
		return nil, "", err
	}
	sys, err := sparcs.Build(g, board, programs, bopts...)
	if err != nil {
		return nil, "", err
	}
	res, err := sys.Run(runOptions(req.Run)...)
	if err != nil {
		return nil, "", err
	}
	body, err = EncodeResult(res)
	if err != nil {
		return nil, "", err
	}
	return body, hash, nil
}

func (s *Server) class(name string) string {
	if name == "" {
		return s.cfg.Classes[0].Name
	}
	return name
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err)
		return
	}
	class := s.class(req.Class)
	t0 := time.Now()
	if err := s.adm.acquire(r.Context(), class); err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	waitMs := int(time.Since(t0).Milliseconds())
	start := time.Now()
	defer s.adm.release()
	defer func() {
		s.slo.observe(class, waitMs, int(time.Since(start).Milliseconds()))
	}()
	sys, hash, hit, err := s.system(req.Design, req.Tiles, req.Build)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-design", err)
		return
	}
	res, err := sys.Run(runOptions(req.Run)...)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "bad-experiment", err)
		return
	}
	body, err := EncodeResult(res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode", err)
		return
	}
	s.served.Add(1)
	writeResult(w, hash, hit, body)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err)
		return
	}
	if len(req.Experiments) == 0 {
		writeError(w, http.StatusBadRequest, "bad-request", errors.New("service: sweep needs at least one experiment"))
		return
	}
	class := s.class(req.Class)
	t0 := time.Now()
	if err := s.adm.acquire(r.Context(), class); err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	waitMs := int(time.Since(t0).Milliseconds())
	start := time.Now()
	defer s.adm.release()
	defer func() {
		s.slo.observe(class, waitMs, int(time.Since(start).Milliseconds()))
	}()
	sys, hash, hit, err := s.system(req.Design, req.Tiles, req.Build)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-design", err)
		return
	}
	experiments := make([][]sparcs.RunOption, len(req.Experiments))
	for i, rs := range req.Experiments {
		experiments[i] = runOptions(rs)
	}
	results, err := sys.Sweep(experiments...)
	resp := SweepResponse{Results: make([]json.RawMessage, len(results))}
	for i, res := range results {
		if res == nil {
			resp.Results[i] = json.RawMessage("null")
			continue
		}
		body, encErr := EncodeResult(res)
		if encErr != nil {
			writeError(w, http.StatusInternalServerError, "encode", encErr)
			return
		}
		resp.Results[i] = json.RawMessage(body[:len(body)-1]) // body is newline-terminated
	}
	if err != nil {
		var sw *sparcs.SweepError
		if !errors.As(err, &sw) {
			writeError(w, http.StatusUnprocessableEntity, "bad-experiment", err)
			return
		}
		resp.Error = &SweepErrorJSON{Index: sw.Index, Message: sw.Error()}
	}
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sparcsd-Design-Hash", hash)
	w.Header().Set("X-Sparcsd-Cache", cacheHeader(hit))
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		return // headers already sent; nothing more to do
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	inflight, queued, draining := s.adm.snapshot()
	residentCLBs, entries := s.cache.snapshot()
	st := Stats{
		Served:            s.served.Load(),
		CacheHits:         s.cache.hits.Load(),
		CacheMisses:       s.cache.misses.Load(),
		Compiles:          s.cache.compiles.Load(),
		CacheEvictions:    s.cache.evictions.Load(),
		CacheResidentCLBs: residentCLBs,
		CacheEntries:      entries,
		RejectedFull:      s.adm.rejectedFull.Load(),
		RejectedDraining:  s.adm.rejectedDraining.Load(),
		Inflight:          inflight,
		Queued:            queued,
		Draining:          draining,
		Classes:           s.slo.snapshot(),
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		return
	}
}

// writeAdmissionError maps the admission controller's typed failures to
// status codes: bounded-queue backpressure is 429, draining is 503, an
// unknown class is the client's fault (400), and a gone client gets the
// nominal 503 nobody will read.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	var full *QueueFullError
	var unknown *UnknownClassError
	switch {
	case errors.As(err, &full):
		writeErrorJSON(w, http.StatusTooManyRequests, ErrorJSON{Kind: "queue-full", Error: err.Error(), Class: full.Class})
	case errors.Is(err, ErrDraining):
		writeErrorJSON(w, http.StatusServiceUnavailable, ErrorJSON{Kind: "draining", Error: err.Error()})
	case errors.As(err, &unknown):
		writeErrorJSON(w, http.StatusBadRequest, ErrorJSON{Kind: "unknown-class", Error: err.Error(), Class: unknown.Class})
	default:
		writeErrorJSON(w, http.StatusServiceUnavailable, ErrorJSON{Kind: "cancelled", Error: err.Error()})
	}
}

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeErrorJSON(w, status, ErrorJSON{Kind: kind, Error: err.Error()})
}

func writeErrorJSON(w http.ResponseWriter, status int, body ErrorJSON) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		return
	}
}

func writeResult(w http.ResponseWriter, hash string, hit bool, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sparcsd-Design-Hash", hash)
	w.Header().Set("X-Sparcsd-Cache", cacheHeader(hit))
	if _, err := w.Write(body); err != nil {
		return
	}
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
