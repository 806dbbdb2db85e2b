// Quickstart: build a 4-input round-robin arbiter, watch it arbitrate a
// burst of conflicting requests, generate its VHDL, and characterize its
// cost on the XC4000E — the core loop of the paper in ~60 lines.
package main

import (
	"fmt"
	"log"
	"strings"

	"sparcs"
	"sparcs/internal/arbiter"
)

func main() {
	const n = 4
	arb, err := sparcs.NewArbiter(n)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== cycle-by-cycle arbitration (R = request, G = grant) ==")
	// Tasks 1..4 all request; each holds for two accesses then releases
	// (the paper's M=2 protocol), then re-requests. Request and grant
	// lines travel as one word: bit i is task i+1's line.
	req := arbiter.Mask(n)
	held := make([]int, n)
	for cycle := 0; cycle < 12; cycle++ {
		grant := arb.StepBits(req)
		fmt.Printf("cycle %2d  R=%s  G=%s  state=%s\n",
			cycle, lines(req, n), lines(grant, n), arb.State())
		for i := 0; i < n; i++ {
			if grant.Bit(i) {
				held[i]++
			}
			line := arbiter.BitVec(1) << i
			if held[i] >= 2 {
				req &^= line
				held[i] = 0
			} else {
				req |= line
			}
		}
	}

	fmt.Println("\n== generated VHDL (first lines) ==")
	vhdl, err := sparcs.ArbiterVHDL(n, "one-hot")
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.SplitN(vhdl, "\n", 12)
	fmt.Println(strings.Join(lines[:11], "\n"))
	fmt.Println("  ...")

	fmt.Println("\n== XC4000E characterization ==")
	for _, tool := range []string{"synplify", "fpga-express"} {
		r, err := sparcs.CharacterizeArbiter(n, tool, "one-hot")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %3d CLBs  %5.1f MHz\n", r.Label(), r.CLBs, r.MaxMHz)
	}

	// Compile-once / experiment-many: build the Section 5 FFT system one
	// time, then run independent experiments against the same compiled
	// design. A never-releasing background hog starves the non-preemptive
	// round-robin forever (the watchdog cuts it off); the preemptive
	// variant revokes the hog and the design completes.
	fmt.Println("\n== system experiments (compile once, run many) ==")
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		log.Fatal(err)
	}
	for _, run := range []struct {
		label string
		opts  []sparcs.RunOption
	}{
		{"round-robin,  quiet", nil},
		{"round-robin,  M1 hog", []sparcs.RunOption{
			sparcs.WithContention("M1=hog/1"), sparcs.WithMaxCycles(100_000)}},
		{"preemptive:4, M1 hog", []sparcs.RunOption{
			sparcs.WithPolicy("preemptive:4"),
			sparcs.WithContention("M1=hog/1"), sparcs.WithMaxCycles(100_000)}},
	} {
		res, err := sys.Run(run.opts...)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "completed"
		if len(res.Violations()) > 0 {
			verdict = "STARVED (watchdog)"
		}
		fmt.Printf("%-22s %6d cycles, %s\n", run.label, res.TotalCycles, verdict)
	}
}

// lines renders the low n lines of a request or grant word, task 1 first.
func lines(v arbiter.BitVec, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if v.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
