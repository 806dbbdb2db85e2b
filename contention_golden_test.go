package sparcs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"sparcs"
	"sparcs/internal/sim"
)

// contentionGolden pins the background-source layer end to end: per
// policy and contention spec, the sha256 (first 16 hex digits) over the
// JSON of every stage's Stats of one FFTSystem(2) run, taken through
// goldenStats. The hash covers what sim_digest and the served body leave
// out: per-line phantom statistics (Stats.Contention), correlated-source
// statistics (Stats.Shared) and the widened M1/M3 traces.
var contentionGolden = []struct {
	policy, spec, digest string
}{
	{"rr", "M1=bursty/2", "a7d1a5fc6741e565"},
	{"rr", "M1+M3=corr:0.25/2", "8c180dea93029988"},
	{"rr", "M3=bernoulli:0.30/2,M1+M3=corr:0.25/2", "61bf2e45b2fac10a"},
	{"rr", "M1+M3=corr:0.25/2,M3=bernoulli:0.30/2", "61bf2e45b2fac10a"},
	{"rr", "M1=hotspot:0.90/1,M1+M3=corr:0.50:3/1,M3=bursty/1", "1941631565d2cf0c"},
	{"hier:2", "M1=bursty/2", "8de619ba28f52101"},
	{"hier:2", "M1+M3=corr:0.25/2", "42ffa7aaa9b28df1"},
	{"hier:2", "M3=bernoulli:0.30/2,M1+M3=corr:0.25/2", "fbac57a611b33e73"},
	{"hier:2", "M1+M3=corr:0.25/2,M3=bernoulli:0.30/2", "fbac57a611b33e73"},
	{"hier:2", "M1=hotspot:0.90/1,M1+M3=corr:0.50:3/1,M3=bursty/1", "4386e892f0339890"},
	{"wrr:2", "M1=bursty/2", "82196e788f4a3faa"},
	{"wrr:2", "M1+M3=corr:0.25/2", "351f9f83a1b5bf46"},
	{"wrr:2", "M3=bernoulli:0.30/2,M1+M3=corr:0.25/2", "58ad907be50e73f9"},
	{"wrr:2", "M1+M3=corr:0.25/2,M3=bernoulli:0.30/2", "58ad907be50e73f9"},
	{"wrr:2", "M1=hotspot:0.90/1,M1+M3=corr:0.50:3/1,M3=bursty/1", "1cfb56c1b8df82d7"},
}

// TestContentionGoldenStats replays the grid and compares each run's
// Stats digest with the recorded constant, so a change to how background
// sources are wired, refreshed or counted that moves a single simulated
// bit fails here by name.
func TestContentionGoldenStats(t *testing.T) {
	stats, mirror := reflect.TypeOf(sim.Stats{}), reflect.TypeOf(goldenStats{})
	for i := 0; i < max(stats.NumField(), mirror.NumField()); i++ {
		var s, m string
		if i < stats.NumField() {
			s = stats.Field(i).Name
		}
		if i < mirror.NumField() {
			m = mirror.Field(i).Name
		}
		if s != m {
			t.Fatalf("sim.Stats field %d is %q, goldenStats mirrors %q: update goldenStats and its digests", i, s, m)
		}
	}
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range contentionGolden {
		res, err := sys.Run(
			sparcs.WithPolicy(g.policy),
			sparcs.WithContention(g.spec),
			sparcs.WithSeed(7),
			sparcs.WithMaxCycles(200_000),
			sparcs.WithCapture("M1", "M3"),
		)
		if err != nil {
			t.Fatalf("%s %s: %v", g.policy, g.spec, err)
		}
		h := sha256.New()
		for _, st := range res.Stages {
			b, err := json.Marshal(newGoldenStats(st.Stats))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != g.digest {
			t.Errorf("%s %q: stats digest %s, want %s", g.policy, g.spec, got, g.digest)
		}
	}
}

// goldenStats mirrors sim.Stats field for field, in the same order, with
// each arbiter trace expanded to the per-line layout the digests were
// recorded over: one {Req, Grant []bool} pair per cycle, each as wide as
// the trace. A nil trace, or one with no steps, expands to nil.
type goldenStats struct {
	Cycles          int
	Done            bool
	TaskFinish      map[string]int
	WaitCycles      map[string]int
	GrantsByRes     map[string]int
	MemReads        int
	MemWrites       int
	ChannelSends    int
	Violations      []sim.Violation
	ArbiterTraces   map[string][]goldenStep
	PerTaskOverhead map[string]int
	Contention      map[string]*sim.ContentionStats
	Shared          []*sim.SharedStats
}

type goldenStep struct{ Req, Grant []bool }

func newGoldenStats(st *sim.Stats) goldenStats {
	g := goldenStats{
		Cycles:          st.Cycles,
		Done:            st.Done,
		TaskFinish:      st.TaskFinish,
		WaitCycles:      st.WaitCycles,
		GrantsByRes:     st.GrantsByRes,
		MemReads:        st.MemReads,
		MemWrites:       st.MemWrites,
		ChannelSends:    st.ChannelSends,
		Violations:      st.Violations,
		PerTaskOverhead: st.PerTaskOverhead,
		Contention:      st.Contention,
		Shared:          st.Shared,
	}
	if st.ArbiterTraces != nil {
		g.ArbiterTraces = map[string][]goldenStep{}
	}
	for res, tr := range st.ArbiterTraces {
		var steps []goldenStep
		if tr != nil {
			for _, s := range tr.Steps {
				step := goldenStep{Req: make([]bool, tr.N), Grant: make([]bool, tr.N)}
				s.Req.WriteBools(step.Req)
				s.Grant.WriteBools(step.Grant)
				steps = append(steps, step)
			}
		}
		g.ArbiterTraces[res] = steps
	}
	return g
}
