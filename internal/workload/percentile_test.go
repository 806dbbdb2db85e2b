package workload

import (
	"strings"
	"testing"

	"sparcs/internal/arbiter"
)

// TestPercentileWaitBucketMath pins the bucket→percentile mapping:
// quantile ranks are ceil(q·services); the reported value is the
// containing bucket's inclusive upper edge (0 for the zero-wait bucket,
// 2^k−1 for bucket k), and the open-ended last bucket reports its lower
// edge 2^(WaitBuckets−2).
func TestPercentileWaitBucketMath(t *testing.T) {
	mk := func(counts map[int]int64) *Metrics {
		m := &Metrics{}
		for b, c := range counts {
			m.WaitHist[b] = c
		}
		return m
	}
	cases := []struct {
		name string
		hist map[int]int64
		q    float64
		want int
	}{
		{"no-services", nil, 0.5, 0},
		{"all-zero-wait-p50", map[int]int64{0: 10}, 0.50, 0},
		{"all-zero-wait-p99", map[int]int64{0: 10}, 0.99, 0},
		{"even-split-p50-lands-low", map[int]int64{0: 50, 1: 50}, 0.50, 0},
		{"even-split-p51-crosses", map[int]int64{0: 50, 1: 50}, 0.51, 1},
		{"even-split-p99", map[int]int64{0: 50, 1: 50}, 0.99, 1},
		{"bucket2-upper-edge", map[int]int64{2: 1}, 1.0, 3},
		{"bucket5-upper-edge", map[int]int64{0: 90, 5: 9, 16: 1}, 0.99, 31},
		{"tail-bucket-lower-edge", map[int]int64{0: 90, 5: 9, 16: 1}, 1.0, 1 << (WaitBuckets - 2)},
		{"q-out-of-range-low", map[int]int64{3: 5}, 0, 0},
		{"q-out-of-range-high", map[int]int64{3: 5}, 1.5, 0},
		{"single-service-any-q", map[int]int64{7: 1}, 0.01, 127},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := mk(tc.hist).PercentileWait(tc.q); got != tc.want {
				t.Fatalf("PercentileWait(%g) = %d, want %d", tc.q, got, tc.want)
			}
		})
	}
}

// TestPercentileMatchesHistBucket ties the percentile edges to the
// recording side: a single measured wait w lands in histBucket(w), and
// the q=1 percentile of that one-service histogram must be an upper
// bound on w (except in the open last bucket, where it is the lower
// edge by construction).
func TestPercentileMatchesHistBucket(t *testing.T) {
	for _, w := range []int{0, 1, 2, 3, 4, 7, 8, 100, 1023, 32767, 32768, 65535} {
		m := &Metrics{}
		b := histBucket(w)
		m.WaitHist[b]++
		got := m.PercentileWait(1.0)
		if b < WaitBuckets-1 {
			if got < w {
				t.Errorf("wait %d (bucket %d): percentile %d is below the measured wait", w, b, got)
			}
			if got >= 2*w+2 {
				t.Errorf("wait %d (bucket %d): percentile %d overshoots its bucket edge", w, b, got)
			}
		} else if got != 1<<(WaitBuckets-2) {
			t.Errorf("wait %d in the tail bucket: got %d, want the lower edge %d", w, got, 1<<(WaitBuckets-2))
		}
		// The standalone Hist records and reports the same way.
		var h Hist
		h.Observe(w)
		if hp := h.Percentile(1.0); hp != got || h.Count != 1 {
			t.Errorf("wait %d: Hist percentile %d (count %d), Metrics percentile %d", w, hp, h.Count, got)
		}
	}
	var h Hist
	h.Observe(-5)
	if h.Buckets[0] != 1 {
		t.Errorf("a negative sample should clamp into bucket 0, got %v", h.Buckets)
	}
}

// TestPercentilesInGrid: on a live grid, percentiles are ordered
// (p50 ≤ p99) and the table renders them.
func TestPercentilesInGrid(t *testing.T) {
	cells, err := RunGrid([]string{"rr", "priority"}, []string{"bernoulli:0.30", "hotspot:0.90"}, GridOptions{N: 6, Cycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cells {
		p50, p99 := m.PercentileWait(0.50), m.PercentileWait(0.99)
		if p50 > p99 {
			t.Errorf("%s × %s: p50 %d > p99 %d", m.Policy, m.Workload, p50, p99)
		}
	}
	table := FormatTable(cells)
	for _, col := range []string{"p50", "p99"} {
		if !strings.Contains(table, col) {
			t.Fatalf("table missing %s column:\n%s", col, table)
		}
	}
}

// TestTraceColumnPercentiles closes the loop at the metrics level: a
// captured trace replayed as a column produces a well-formed histogram
// (bucket counts sum to total services).
func TestTraceColumnPercentiles(t *testing.T) {
	tr := &arbiter.Trace{N: 2, Steps: []arbiter.TraceStep{
		{Req: 0b01, Grant: 0b01},
		{Req: 0b11, Grant: 0b01},
		{Req: 0b10, Grant: 0b10},
		{Req: 0b00, Grant: 0b00},
	}}
	col, err := FromArbiterTrace("captured", tr)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := RunGridColumns([]string{"rr"}, []Column{col}, GridOptions{N: 2, Cycles: 4000})
	if err != nil {
		t.Fatal(err)
	}
	m := cells[0]
	var services, hist int64
	for _, tm := range m.Tasks {
		services += tm.Services
	}
	for _, c := range m.WaitHist {
		hist += c
	}
	if services == 0 || services != hist {
		t.Fatalf("histogram holds %d entries for %d services", hist, services)
	}
	if m.Workload != "captured" {
		t.Fatalf("column name %q, want captured", m.Workload)
	}
}
