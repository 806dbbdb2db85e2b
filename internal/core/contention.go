package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sparcs/internal/sim"
	"sparcs/internal/workload"
)

// ContentionSpec asks Simulate to inject one background source: a
// workload generator claiming Lines request lines on the arbiter of each
// resource in Resources. One resource makes an independent phantom
// requester, attached in every stage that arbitrates the resource. Two
// or more make one correlated source with hold-A-while-waiting-on-B
// acquisition in Resources order, attached only in the stages that
// arbitrate all of them. A correlated source packs all its lines into
// one request word, so k resources × Lines lanes must stay ≤ 64
// (arbiter.MaxN). The textual grammar (ParseContention) is
//
//	res[+res...]=workload[/lines]
//
// comma-separated, e.g. "M1=hog/2,M1+M3=corr:0.25". The workload half of
// a one-resource entry is any workload.NewGenerator spec; that of a
// correlated entry is a workload.NewSharedGenerator spec
// ("corr[:p[:hold]]"). A blank string means no contention, but an empty
// entry is an error. A resource takes at most one independent spec per
// list (a run's list composed from several options included), and a
// correlated spec names each resource once; either duplicate is
// rejected with a *DuplicateResourceError instead of silently merging
// sources (scale a source with /lines instead). A resource may still
// carry an independent source and any number of correlated ones: those
// are distinct background processes.
type ContentionSpec struct {
	// Resources names the arbitrated banks or physical channels ("M1"),
	// in acquisition order for a correlated source.
	Resources []string
	// Workload is the generator spec ("bursty", "corr:0.25", ...).
	Workload string
	// Lines is the number of request lines on each resource; 0 means 1.
	Lines int
}

// String renders the canonical textual form of the spec.
func (c ContentionSpec) String() string {
	return fmt.Sprintf("%s=%s/%d", strings.Join(c.Resources, "+"), c.Workload, c.lines())
}

func (c ContentionSpec) lines() int {
	if c.Lines == 0 {
		return 1
	}
	return c.Lines
}

// correlated reports whether the spec is one source spanning several
// arbiters rather than an independent phantom requester.
func (c ContentionSpec) correlated() bool { return len(c.Resources) != 1 }

// DuplicateResourceError reports a contention spec list naming one
// resource more than once: in two independent specs, or twice in one
// correlated spec. Before this guard a repeated resource silently
// combined into one widened arbiter, so a typo'd list ("M1=hog,M1=bursty"
// for "M1=hog,M3=bursty") mis-reported which background load a run
// faced.
type DuplicateResourceError struct {
	// Resource is the resource named more than once.
	Resource string
}

func (e *DuplicateResourceError) Error() string {
	return fmt.Sprintf("core: contention resource %s appears more than once (each resource takes at most one spec; scale a source with /lines or /lanes)", e.Resource)
}

// checkDuplicateResources rejects a resource named by two independent
// specs, or twice by one correlated spec.
func checkDuplicateResources(specs []ContentionSpec) error {
	independent := make(map[string]bool, len(specs))
	for _, cs := range specs {
		if !cs.correlated() {
			if independent[cs.Resources[0]] {
				return &DuplicateResourceError{Resource: cs.Resources[0]}
			}
			independent[cs.Resources[0]] = true
			continue
		}
		spanned := make(map[string]bool, len(cs.Resources))
		for _, r := range cs.Resources {
			if spanned[r] {
				return &DuplicateResourceError{Resource: r}
			}
			spanned[r] = true
		}
	}
	return nil
}

// ParseContention parses a comma-separated list of contention specs of
// the grammar documented on ContentionSpec. Workloads are validated
// immediately (against a placeholder seed) and duplicate resources
// rejected (*DuplicateResourceError); resource names can only be
// checked against a compiled design, which Simulate does.
func ParseContention(s string) ([]ContentionSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []ContentionSpec
	for _, entry := range strings.Split(s, ",") {
		cs, err := parseEntry(strings.TrimSpace(entry))
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	if err := checkDuplicateResources(out); err != nil {
		return nil, err
	}
	return out, nil
}

// parseEntry parses one res[+res...]=workload[/lines] entry, rejecting
// a resource repeated inside it before validating the workload half.
func parseEntry(entry string) (ContentionSpec, error) {
	eq := strings.IndexByte(entry, '=')
	if eq <= 0 || eq == len(entry)-1 {
		return ContentionSpec{}, fmt.Errorf("core: contention entry %q is not res[+res...]=workload[/lines]", entry)
	}
	cs := ContentionSpec{Resources: strings.Split(entry[:eq], "+"), Workload: entry[eq+1:], Lines: 1}
	if err := checkDuplicateResources([]ContentionSpec{cs}); err != nil {
		return ContentionSpec{}, fmt.Errorf("core: contention entry %q: %w", entry, err)
	}
	if sl := strings.LastIndexByte(cs.Workload, '/'); sl >= 0 {
		v, err := strconv.Atoi(cs.Workload[sl+1:])
		if err != nil || v < 1 {
			return ContentionSpec{}, fmt.Errorf("core: contention entry %q: line count %q must be a positive integer", entry, cs.Workload[sl+1:])
		}
		cs.Lines = v
		cs.Workload = cs.Workload[:sl]
	}
	var err error
	if cs.correlated() {
		_, err = workload.NewSharedGenerator(cs.Workload, cs.Resources, cs.Lines, 1)
	} else {
		_, err = workload.NewGenerator(cs.Workload, cs.Lines, 1)
	}
	if err != nil {
		return ContentionSpec{}, fmt.Errorf("core: contention entry %q: %w", entry, err)
	}
	return cs, nil
}

// ExtraLines sums the request lines the specs add to each resource's
// arbiter on top of its members: the width the partitioner prices
// arbiters at under WithExpectedContention. (A run's policies are sized
// by the simulator, which widens each arbiter as it wires the stage's
// sources.) An independent spec whose workload is statically silent
// ("silent") adds none, mirroring the simulator's elision; a correlated
// spec adds its lines to every resource it spans.
func ExtraLines(specs []ContentionSpec) map[string]int {
	extra := map[string]int{}
	for _, cs := range specs {
		if !cs.correlated() {
			gen, err := workload.NewGenerator(cs.Workload, cs.lines(), 1)
			if err != nil {
				continue // validation surfaces the error with context
			}
			if s, ok := gen.(sim.StaticallySilent); ok && s.Silent() {
				continue
			}
		}
		for _, r := range cs.Resources {
			extra[r] += cs.lines()
		}
	}
	return extra
}

// stageArbitrated returns the set of resources the stage arbitrates —
// the predicate every contention/wiring/width decision keys on.
func stageArbitrated(sp *StagePlan) map[string]bool {
	arbitrated := map[string]bool{}
	for _, a := range sp.Inserted.Arbiters {
		arbitrated[a.Resource] = true
	}
	return arbitrated
}

// hostsAll reports whether the set covers every listed resource: a
// stage hosts a spec exactly when it arbitrates all the spec's
// resources.
func hostsAll(arbitrated map[string]bool, resources []string) bool {
	for _, r := range resources {
		if !arbitrated[r] {
			return false
		}
	}
	return true
}

// stageSources builds one stage's sim sources: a fresh generator for
// every spec the stage hosts. Seeds derive from the options seed and the
// spec's number, not the stage, so a resource arbitrated in several
// stages faces the same background process in each (each stage
// constructs fresh generator state). One pass per kind numbers the
// independent specs first and the correlated ones after them, each in
// list order, and emits the sources in that order: adding a correlated
// source never reseeds an independent one, and the order the two kinds
// are listed in does not matter.
func stageSources(sp *StagePlan, specs []ContentionSpec, seed uint64) ([]sim.Source, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if seed == 0 {
		seed = 1
	}
	arbitrated := stageArbitrated(sp)
	var sources []sim.Source
	k := 0
	for _, correlated := range []bool{false, true} {
		for _, cs := range specs {
			if cs.correlated() != correlated {
				continue
			}
			k++
			if !hostsAll(arbitrated, cs.Resources) {
				continue
			}
			s := seed + uint64(k)*0x9e3779b97f4a7c15
			var gen sim.Requester
			var err error
			if correlated {
				gen, err = workload.NewSharedGenerator(cs.Workload, cs.Resources, cs.lines(), s)
			} else {
				gen, err = workload.NewGenerator(cs.Workload, cs.lines(), s)
			}
			if err != nil {
				return nil, fmt.Errorf("core: contention %s: %w", cs, err)
			}
			sources = append(sources, sim.Source{Resources: cs.Resources, Gen: gen})
		}
	}
	return sources, nil
}

// validateContention rejects a run's composed spec list when it names a
// resource twice (*DuplicateResourceError), or when a spec's resources
// are never arbitrated together in one stage. The latter is a typo
// guard: silently ignoring "M9=hog" would report a contention-free run
// as if the background load had been applied.
func validateContention(d *Design, specs []ContentionSpec) error {
	if err := checkDuplicateResources(specs); err != nil {
		return err
	}
	for _, cs := range specs {
		hosted := false
		for _, sp := range d.Stages {
			hosted = hosted || hostsAll(stageArbitrated(sp), cs.Resources)
		}
		if hosted {
			continue
		}
		var stages []string
		for si, sp := range d.Stages {
			var res []string
			for _, a := range sp.Inserted.Arbiters {
				res = append(res, a.Resource)
			}
			sort.Strings(res)
			stages = append(stages, fmt.Sprintf("#%d:{%s}", si, strings.Join(res, ",")))
		}
		if !cs.correlated() {
			return fmt.Errorf("core: contention resource %s is not arbitrated in any stage (stages: %s)",
				cs.Resources[0], strings.Join(stages, " "))
		}
		return fmt.Errorf("core: contention %s spans resources no single stage arbitrates together (stages: %s)",
			cs, strings.Join(stages, " "))
	}
	return nil
}
