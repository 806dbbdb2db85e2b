package service

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sparcs"
)

// freshHash hashes freshly built inputs for req's design, bypassing the
// server and its memo.
func freshHash(t *testing.T, req ExperimentRequest) string {
	t.Helper()
	g, board, programs, bopts, err := designInputs(req.Design, req.Tiles, req.Build)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sparcs.DesignHash(g, board, programs, bopts...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// serveChecked serves req and checks the response against a fresh hash
// and the offline run: the hash header equals sparcs.DesignHash of
// freshly built inputs and the body equals OfflineResult. It returns
// the X-Sparcsd-Cache header.
func serveChecked(t *testing.T, s *Server, req ExperimentRequest) string {
	t.Helper()
	offline, _, err := OfflineResult(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s.Handler(), "/v1/experiments", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got, want := rec.Header().Get("X-Sparcsd-Design-Hash"), freshHash(t, req); got != want {
		t.Fatalf("hash header %q, want %q", got, want)
	}
	if !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Fatalf("served body differs from offline run:\nserved:  %s\noffline: %s", rec.Body.String(), offline)
	}
	return rec.Header().Get("X-Sparcsd-Cache")
}

func memoLen(s *Server) int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return len(s.memo.hashes)
}

// TestServerMemoHotRequests repeats one request: the first hashes and
// compiles, every later one is a memo and cache hit serving the same
// hash and body.
func TestServerMemoHotRequests(t *testing.T) {
	s := newServer(t, Config{})
	req := ExperimentRequest{Design: "fft", Tiles: 2, Run: RunSpec{Policy: "wrr:2", Contention: "M1=hog/1", Seed: 7}}
	for i := 0; i < 4; i++ {
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if got := serveChecked(t, s, req); got != want {
			t.Fatalf("request %d: cache header %q, want %q", i, got, want)
		}
	}
	if st := statsOf(t, s); st.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1", st.Compiles)
	}
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d keys, want 1", n)
	}
}

// TestServerMemoAfterEviction evicts a design whose key stays memoized:
// the next request for it finds its hash in the memo, misses the cache,
// and compiles from freshly built inputs.
func TestServerMemoAfterEviction(t *testing.T) {
	s := newServer(t, Config{CacheBudgetCLBs: fftFootprint(t)}) // holds one design
	a := ExperimentRequest{Design: "fft", Tiles: 2}
	b := ExperimentRequest{Design: "fft", Tiles: 3}
	for i, step := range []struct {
		req  ExperimentRequest
		want string
	}{
		{a, "miss"},
		{b, "miss"}, // evicts a
		{a, "miss"}, // memo hit, cache miss: recompiles
		{a, "hit"},
	} {
		if got := serveChecked(t, s, step.req); got != step.want {
			t.Fatalf("step %d (tiles %d): cache header %q, want %q", i, step.req.Tiles, got, step.want)
		}
	}
	st := statsOf(t, s)
	if st.Compiles != 3 || st.CacheEvictions != 2 {
		t.Fatalf("compiles = %d, evictions = %d; want 3 and 2", st.Compiles, st.CacheEvictions)
	}
	if n := memoLen(s); n != 2 {
		t.Fatalf("memo holds %d keys, want 2", n)
	}
}

// TestServerMemoTwoSpellings requests one design as tiles 0 and as
// tiles 6: two memo keys, one hash, one compile.
func TestServerMemoTwoSpellings(t *testing.T) {
	s := newServer(t, Config{})
	if got := serveChecked(t, s, ExperimentRequest{Design: "fft", Tiles: 0}); got != "miss" {
		t.Fatalf("tiles 0: cache header %q, want miss", got)
	}
	if got := serveChecked(t, s, ExperimentRequest{Design: "fft", Tiles: 6}); got != "hit" {
		t.Fatalf("tiles 6: cache header %q, want hit (same design as tiles 0)", got)
	}
	if st := statsOf(t, s); st.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1", st.Compiles)
	}
	if n := memoLen(s); n != 2 {
		t.Fatalf("memo holds %d keys, want 2", n)
	}
}

// TestMemoBound puts more distinct keys than the bound: the memo never
// holds more than memoKeys, and the key just put is always present.
func TestMemoBound(t *testing.T) {
	m := newHashMemo()
	for i := 0; i < 2*memoKeys+10; i++ {
		k := designKey{design: "fft", tiles: i}
		m.put(k, "h")
		if len(m.hashes) > memoKeys {
			t.Fatalf("after %d puts the memo holds %d keys, bound %d", i+1, len(m.hashes), memoKeys)
		}
		if _, ok := m.get(k); !ok {
			t.Fatalf("key %d missing right after its put", i)
		}
	}
}

// TestServerMemoSkipsLongContention pads an expected-contention spec
// past the memo's cap: the request is served like any other, but its
// key is never stored. A spec exactly at the cap is stored.
func TestServerMemoSkipsLongContention(t *testing.T) {
	s := newServer(t, Config{})
	const spec = "M1=hog/1"
	long := ExperimentRequest{Design: "fft", Tiles: 2,
		Build: BuildSpec{ExpectedContention: spec + strings.Repeat(" ", memoContentionBytes)}}
	for i, want := range []string{"miss", "hit"} {
		if got := serveChecked(t, s, long); got != want {
			t.Fatalf("request %d: cache header %q, want %q", i, got, want)
		}
	}
	if n := memoLen(s); n != 0 {
		t.Fatalf("memo holds %d keys, want 0 (spec is %d bytes)", n, len(long.Build.ExpectedContention))
	}
	atCap := long
	atCap.Build.ExpectedContention = spec + strings.Repeat(" ", memoContentionBytes-len(spec))
	if got := serveChecked(t, s, atCap); got != "hit" {
		t.Fatalf("padded to the cap: cache header %q, want hit (same design)", got)
	}
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d keys, want 1 (spec is %d bytes)", n, len(atCap.Build.ExpectedContention))
	}
}

// TestConcurrentMemoKeys drives a few design keys from several
// goroutines through Handler() on a cache that holds one design, so
// memo hits, memo misses, evictions and recompiles interleave. Every
// response must carry its key's fresh hash and offline body. Run it
// with -race -count=10.
func TestConcurrentMemoKeys(t *testing.T) {
	s := newServer(t, Config{Workers: 3, CacheBudgetCLBs: fftFootprint(t)})
	reqs := []ExperimentRequest{
		{Design: "fft", Tiles: 0},
		{Design: "fft", Tiles: 6, Run: RunSpec{Policy: "priority"}},
		{Design: "fft", Tiles: 2, Run: RunSpec{Seed: 3}},
		{Design: "fft", Tiles: 2, Build: BuildSpec{AccessesPerGrant: 2}},
	}
	hashes := make([]string, len(reqs))
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		hashes[i] = freshHash(t, req)
		body, _, err := OfflineResult(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	const goroutines, rounds = 6, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(reqs)
				rec := post(t, s.Handler(), "/v1/experiments", reqs[i])
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d round %d: status %d: %s", g, r, rec.Code, rec.Body.String())
					return
				}
				if got := rec.Header().Get("X-Sparcsd-Design-Hash"); got != hashes[i] {
					t.Errorf("goroutine %d round %d: hash header %q, want %q", g, r, got, hashes[i])
				}
				if !bytes.Equal(rec.Body.Bytes(), bodies[i]) {
					t.Errorf("goroutine %d round %d: served body differs from offline run", g, r)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memoLen(s); n != len(reqs) {
		t.Fatalf("memo holds %d keys, want %d", n, len(reqs))
	}
}
