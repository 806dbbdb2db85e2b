package core

import (
	"strings"
	"testing"

	"sparcs/internal/behav"
	"sparcs/internal/fft"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// fingerprintInputs is one full set of Fingerprint arguments, rebuilt
// from scratch for every call so no case can see another's mutation.
type fingerprintInputs struct {
	g        *taskgraph.Graph
	board    *rc.Board
	programs map[string]behav.Program
	opts     Options
}

func fftFingerprintInputs() fingerprintInputs {
	return fingerprintInputs{fft.Taskgraph(), rc.Wildforce(), fft.Programs(2), paperOpts()}
}

// TestFingerprint: equal inputs hash alike; changing any input Compile
// consumes — the graph, the board, a program, the fixed stages, M, the
// expected contention — changes the hash.
func TestFingerprint(t *testing.T) {
	hash := func(in fingerprintInputs) string {
		return Fingerprint(in.g, in.board, in.programs, in.opts)
	}
	base := hash(fftFingerprintInputs())
	if !strings.HasPrefix(base, "sha256:") {
		t.Fatalf("fingerprint %q lacks the sha256: prefix", base)
	}
	if again := hash(fftFingerprintInputs()); again != base {
		t.Fatalf("equal inputs hash differently: %s vs %s", base, again)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*fingerprintInputs)
	}{
		{"graph", func(in *fingerprintInputs) { in.g.Tasks[0].AreaCLBs++ }},
		{"board", func(in *fingerprintInputs) { in.board.Banks[0].SizeBytes *= 2 }},
		{"program", func(in *fingerprintInputs) {
			p := in.programs["F1"]
			p.Repeat++
			in.programs["F1"] = p
		}},
		{"fixed stages", func(in *fingerprintInputs) {
			st := in.opts.Partition.FixedStages
			st[1], st[2] = append(st[1], st[2][0]), st[2][1:] // move g4r one stage earlier
		}},
		{"accesses per grant", func(in *fingerprintInputs) { in.opts.Insert.M = 3 }},
		{"expected contention", func(in *fingerprintInputs) {
			in.opts.Partition.ExpectedContention = map[string]int{"M1": 2}
		}},
	} {
		in := fftFingerprintInputs()
		tc.mutate(&in)
		if got := hash(in); got == base {
			t.Errorf("changing the %s left the fingerprint at %s", tc.name, base)
		}
	}
}
