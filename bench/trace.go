package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: the benchmark records spans
// around the public functions it calls, never inside the program.
type span struct {
	name       string // "<layer>.<call>", e.g. "sparcs.Sweep"
	id, parent int64  // parent 0 = root
	req        int64  // operation or request the span belongs to
	tid        int    // trace track: worker or connection index
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// layer is the span name's prefix: the module the call belongs to.
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// harnessLayers are the benchmark's own work (input preparation, output
// checks, the load generator's lateness, a request's wait for one of the
// generator's connections); every other layer is on the system's blocking
// path and counts toward layer_cover.
var harnessLayers = map[string]bool{"bench": true, "loadgen": true, "client": true}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only the branch.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newID reserves a span id, so children recorded before their parent
// ends can name it.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span; id 0 reserves a fresh one.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children may nest or overlap one another (a sweep's
// parallel runs); their intervals are clipped to the parent and merged
// so no instant is subtracted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// systemSelf sums the self time of every span outside the harness layers.
func systemSelf(spans []span) time.Duration {
	self := selfTimes(spans)
	var total time.Duration
	for _, s := range spans {
		if !harnessLayers[s.layer()] {
			total += self[s.id]
		}
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" event, the format
// Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as trace-event JSON to path.
func writeChromeTrace(path string, spans []span) error {
	var epoch time.Time
	for i, s := range spans {
		if i == 0 || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		_ = f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
