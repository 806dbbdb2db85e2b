package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"testing"
)

// scenarioGolden pins the engine's reports end to end: per
// cross-contention spec, arrival spec and KeepStats, the sha256 (first
// 16 hex digits) over the four placement × prefetch runs of
// churnConfig. Each run contributes the JSON of its Result and, under
// KeepStats, every job's per-stage Stats JSON and the snapshot of every
// segment of its final memory image. The rows without cross-contention
// pin the class-result reuse; the others pin per-job simulation.
var scenarioGolden = []struct {
	cross, arrivals string
	keepStats       bool
	digest          string
}{
	{"", "", false, "3b422cf7ac4613f2"},
	{"", "", true, "743246d14408b7f1"},
	{"", "bursty/256", false, "ed4fbdc1110eed07"},
	{"", "bursty/256", true, "31b78e2485554c5d"},
	{"", "bernoulli:0.02", false, "d9baac75c24f7b6f"},
	{"", "bernoulli:0.02", true, "bdc22bb0009b3585"},
	{"bernoulli:0.30", "", false, "d25026f40cedb59a"},
	{"bernoulli:0.30", "", true, "e9774e405b763e9f"},
	{"bernoulli:0.30", "bursty/256", false, "eb8e9a335172f198"},
	{"bernoulli:0.30", "bursty/256", true, "83ce27a2c2222c97"},
	{"bernoulli:0.30", "bernoulli:0.02", false, "8a72d281a8451384"},
	{"bernoulli:0.30", "bernoulli:0.02", true, "7789114b4ae2f1f6"},
}

// TestScenarioGoldenDigest replays the grid and compares each row's
// digest with the recorded constant, so a change to the engine that
// moves a single reported cycle, statistic or memory word fails here by
// name.
func TestScenarioGoldenDigest(t *testing.T) {
	base := churnConfig(t)
	for _, g := range scenarioGolden {
		h := sha256.New()
		for _, placement := range []string{PlaceFirstFit, PlaceBestFit} {
			for _, prefetch := range []string{PrefetchNone, PrefetchHybrid} {
				cfg := base
				cfg.Placement, cfg.Prefetch = placement, prefetch
				cfg.CrossContention, cfg.Arrivals, cfg.KeepStats = g.cross, g.arrivals, g.keepStats
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%q %q %s/%s: %v", g.cross, g.arrivals, placement, prefetch, err)
				}
				hashJSON(t, h, res)
				if !g.keepStats {
					continue
				}
				for _, j := range res.Jobs {
					hashJSON(t, h, j.Stages)
					for _, seg := range cfg.Classes[j.ID%len(cfg.Classes)].Design.Graph.Segments {
						hashJSON(t, h, j.Memory.Snapshot(seg.Name))
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != g.digest {
			t.Errorf("cross %q arrivals %q keepStats %v: digest %s, want %s",
				g.cross, g.arrivals, g.keepStats, got, g.digest)
		}
	}
}

func hashJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
}
