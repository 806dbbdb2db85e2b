package main

import (
	"strings"
	"testing"
)

// TestTilesBelowOneRejected: every mode that builds the FFT case study
// rejects a tile count below one with an error naming -tiles, instead of
// simulating FFTSystem's default of 6 tiles while checking and reporting
// the flag's value, or panicking while sizing a negative input image.
func TestTilesBelowOneRejected(t *testing.T) {
	for _, tiles := range []int{0, -3} {
		for _, tc := range []struct {
			mode string
			run  func() error
		}{
			{"flow", func() error {
				return runFlow(flowOptions{design: "fft", tiles: tiles, policy: "round-robin", m: 2})
			}},
			{"arbbench -fft-column", func() error {
				return runArbbench(arbbenchOptions{
					n: 6, cycles: 1000, seed: 1, policies: []string{"rr"}, workloads: []string{"hog"},
					fftColumn: true, fftTiles: tiles, fftPolicy: "round-robin",
				})
			}},
			{"scenario", func() error {
				return runScenario(scenarioOptions{tiles: tiles, jobs: 2, seed: 1, policy: "round-robin", perCLB: 1})
			}},
		} {
			err := tc.run()
			if err == nil {
				t.Errorf("%s -tiles %d: want an error", tc.mode, tiles)
			} else if !strings.Contains(err.Error(), "-tiles") {
				t.Errorf("%s -tiles %d: error %q does not name -tiles", tc.mode, tiles, err)
			}
		}
	}
}
