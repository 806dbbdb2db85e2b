// Memory mapping with L > P (paper Section 1.1): six logical segments
// packed onto a two-bank board. The arbitration-aware mapper groups
// segments so that ordered producer/consumer pairs share banks for free
// (dependency elision) while parallel accessors get an automatically
// inserted arbiter — and an ablation shows what goes wrong without one.
package main

import (
	"fmt"
	"log"

	"sparcs"
	"sparcs/internal/behav"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
	"sparcs/internal/xc4000"
)

func buildGraph() *taskgraph.Graph {
	// Stage pipeline: two parallel producers write IN1/IN2; two parallel
	// workers read them and write their own scratch + result segments.
	g := &taskgraph.Graph{
		Name: "lgtp",
		Segments: []*taskgraph.Segment{
			{Name: "IN1", SizeBytes: 4 * 1024, WidthBits: 32},
			{Name: "IN2", SizeBytes: 4 * 1024, WidthBits: 32},
			{Name: "SCR1", SizeBytes: 4 * 1024, WidthBits: 32},
			{Name: "SCR2", SizeBytes: 4 * 1024, WidthBits: 32},
			{Name: "RES1", SizeBytes: 4 * 1024, WidthBits: 32},
			{Name: "RES2", SizeBytes: 4 * 1024, WidthBits: 32},
			// Shared coefficient table read by both parallel workers —
			// the contended resource that needs an arbiter.
			{Name: "TBL", SizeBytes: 4 * 1024, WidthBits: 32},
		},
		Tasks: []*taskgraph.Task{
			{Name: "Prod1", AreaCLBs: 150, Accesses: []taskgraph.Access{{Segment: "IN1", Kind: taskgraph.Write}}},
			{Name: "Prod2", AreaCLBs: 150, Accesses: []taskgraph.Access{{Segment: "IN2", Kind: taskgraph.Write}}},
			{Name: "Work1", AreaCLBs: 150, Deps: []string{"Prod1"}, Accesses: []taskgraph.Access{
				{Segment: "IN1", Kind: taskgraph.Read},
				{Segment: "TBL", Kind: taskgraph.Read},
				{Segment: "SCR1", Kind: taskgraph.Write},
				{Segment: "RES1", Kind: taskgraph.Write},
			}},
			{Name: "Work2", AreaCLBs: 150, Deps: []string{"Prod2"}, Accesses: []taskgraph.Access{
				{Segment: "IN2", Kind: taskgraph.Read},
				{Segment: "TBL", Kind: taskgraph.Read},
				{Segment: "SCR2", Kind: taskgraph.Write},
				{Segment: "RES2", Kind: taskgraph.Write},
			}},
		},
	}
	return g
}

func programs() map[string]behav.Program {
	prod := func(seg string) behav.Program {
		return behav.Program{Body: []behav.Instr{
			behav.WriteImm(seg, 0, 100), behav.WriteImm(seg, 1, 200),
		}, Repeat: 8}
	}
	work := func(in, scr, res string) behav.Program {
		return behav.Program{Body: []behav.Instr{
			behav.Read(in, 0),
			behav.Read("TBL", 0), behav.Read("TBL", 1),
			behav.Write(scr, 0),
			behav.Read(scr, 0),
			behav.Write(res, 0),
		}, Repeat: 8}
	}
	return map[string]behav.Program{
		"Prod1": prod("IN1"),
		"Prod2": prod("IN2"),
		"Work1": work("IN1", "SCR1", "RES1"),
		"Work2": work("IN2", "SCR2", "RES2"),
	}
}

func main() {
	// Two PEs, one 16KB bank each: 6 logical segments > 2 physical banks.
	board := rc.Generic(2, xc4000.XC4013E, 16*1024, 36, 36)
	g := buildGraph()

	sys, err := sparcs.Build(g, board, programs())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sys.Report())

	res, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith automatic arbitration: %d cycles, %d violations\n",
		res.TotalCycles, len(res.Violations()))
	if v := res.Violations(); len(v) != 0 {
		log.Fatalf("the arbitrated design must run clean, got %d violations (first: %v)", len(v), v[0])
	}

	// Ablation: strip the arbiters by building conservatively, then
	// deleting the inserted protocol from the compiled design — the
	// simulator flags every simultaneous bank access.
	sys2, err := sparcs.Build(g, board, programs(), sparcs.WithConservativeArbitration())
	if err != nil {
		log.Fatal(err)
	}
	for _, sp := range sys2.Design().Stages {
		for name := range sp.Inserted.Programs {
			sp.Inserted.Programs[name] = stripProtocol(sp.Inserted.Programs[name])
		}
		sp.Inserted.Arbiters = nil
	}
	res2, err := sys2.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("without arbitration (ablation): %d cycles, %d violations (bank port conflicts!)\n",
		res2.TotalCycles, len(res2.Violations()))
	conflicts := 0
	for _, v := range res2.Violations() {
		if v.Kind == "port-conflict" {
			conflicts++
		}
	}
	if conflicts == 0 {
		log.Fatal("the ablation must show bank port conflicts, got none: were the arbiters really stripped?")
	}
}

func stripProtocol(p behav.Program) behav.Program {
	var body []behav.Instr
	for _, in := range p.Body {
		switch in.Op {
		case behav.OpReq, behav.OpWaitGrant, behav.OpRelease:
		default:
			body = append(body, in)
		}
	}
	return behav.Program{Body: body, Repeat: p.Repeat}
}
