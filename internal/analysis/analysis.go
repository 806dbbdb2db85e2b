// Package analysis is sparcsvet's static-analysis framework: the
// Analyzer/Pass/Diagnostic surface of golang.org/x/tools/go/analysis,
// re-implemented on the standard library alone because this module
// deliberately carries no external dependencies. The analyzers in this
// package mechanically enforce the invariants every differential proof
// in the repo rests on:
//
//	hotpath      — //sparcs:hotpath code (and every module-local function
//	               it can reach through the call graph, devirtualized
//	               interface calls included) must not allocate
//	determinism  — cycle-rate packages must not read wall clocks, the
//	               environment, CPU counts, global rand, unordered map
//	               iteration, or spawn goroutines outside sim.ParallelFor
//	bitwidth     — BitVec shifts must stay below the 64-bit word, []bool
//	               request vectors must not be built on the cycle path,
//	               and the 16/64 size bounds must be spelled
//	               MaxSynthN/MaxN
//	errsentinel  — sentinel errors are wrapped with %w and tested with
//	               errors.Is/errors.As, never string-matched
//	lockorder    — the module-wide lock acquisition graph must be
//	               acyclic, and no code may block while holding a lock
//	goroleak     — service goroutines must select on ctx.Done() or block
//	               only on buffered channel sends; slot acquires pair
//	               with deferred releases
//
// The analyzers share a module-wide call graph (see callgraph.go) that
// resolves static calls exactly and devirtualizes interface calls over
// the module's type index, so interprocedural walks survive dynamic
// dispatch.
//
// Findings are suppressed per site with
//
//	//sparcs:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line above it; the suite itself parses
// these and reports malformed or unused ones. cmd/sparcsvet is the
// multichecker driver (standalone or via go vet -vettool).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass and how to run it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore comments.
	Name string
	// Doc is the one-paragraph description printed by sparcsvet -list.
	Doc string
	// Run performs the analysis over one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one package to analyze and a sink
// for its diagnostics, mirroring golang.org/x/tools/go/analysis.Pass.
// Module gives cross-package context (the hotpath analyzer follows
// static calls into other module packages); it holds at least the
// current package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Package   *Package
	Module    *Module

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, attributed to the analyzer that produced
// it (or to "sparcsvet" itself for malformed/unused ignore comments).
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Package is one source-loaded, type-checked package.
type Package struct {
	Path string
	Dir  string
	// Root marks packages named by the load patterns; analyzers run on
	// roots, while dependency packages provide cross-package context.
	Root bool
	// Broken marks a package whose load failed (parse or type-check
	// errors, or a broken local dependency). Its failure is recorded in
	// Module.Errors; analyzers skip it, but whatever parsed survives for
	// comment-level processing. Pkg/Info may be nil or partial.
	Broken bool
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	// Src maps each file name (as registered in the FileSet) to its
	// source bytes, for line-level comment classification.
	Src map[string][]byte
	// Funcs indexes every function and method declaration by its
	// types object, the hotpath analyzer's call-following table.
	Funcs map[*types.Func]*ast.FuncDecl

	fset  *token.FileSet
	marks []ast.Node // lazily computed //sparcs:hotpath roots
}

// A Module is the full source-loaded view one sparcsvet run analyzes:
// every module-local package, sharing one FileSet.
type Module struct {
	// Path is the module path ("sparcs"); empty in GOPATH-style testdata
	// loads, where any loaded package counts as module-local.
	Path string
	Fset *token.FileSet
	Pkgs map[string]*Package
	// Errors are load-time failures — parse errors, type-check errors,
	// packages skipped because a dependency is broken — surfaced as
	// driver diagnostics so a broken package fails the run loudly
	// instead of silently dropping out of analysis. They are not
	// ignorable.
	Errors []Diagnostic

	cg        *CallGraph            // lazily built by CallGraph()
	named     []types.Type          // lazily collected by namedTypes()
	implCache map[any][]*types.Func // devirtualization cache
	locks     *lockReport           // lazily computed by lockorder
}

// Local returns the source-loaded package for pkg, if any — the
// module-locality test the hotpath analyzer keys on.
func (m *Module) Local(pkg *types.Package) (*Package, bool) {
	if pkg == nil {
		return nil, false
	}
	p, ok := m.Pkgs[pkg.Path()]
	return p, ok
}

// Decl returns the declaration of fn and its owning package when fn's
// package was loaded from source; (nil, nil) otherwise.
func (m *Module) Decl(fn *types.Func) (*Package, *ast.FuncDecl) {
	p, ok := m.Local(fn.Pkg())
	if !ok {
		return nil, nil
	}
	return p, p.Funcs[fn]
}

// Roots returns the packages analyzers run on, sorted by import path.
// Broken packages are excluded: their failure is already reported
// through Module.Errors, and analyzers need sound type information.
func (m *Module) Roots() []*Package {
	var roots []*Package
	for _, p := range m.Pkgs {
		if p.Root && !p.Broken {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Path < roots[j].Path })
	return roots
}

// The annotation markers the suite parses. hotpathMarker marks a
// function declaration (in its doc comment or on the line above) or a
// for/range statement (on the line above) as cycle-rate code;
// ignoreMarker suppresses named analyzers on one line.
const (
	hotpathMarker = "sparcs:hotpath"
	ignoreMarker  = "sparcs:ignore"
)

// HotMarks returns the package's //sparcs:hotpath roots: marked
// function declarations and marked for/range statements.
func (p *Package) HotMarks() []ast.Node {
	if p.marks != nil {
		return p.marks
	}
	p.marks = []ast.Node{}
	for _, f := range p.Files {
		// Lines carrying a standalone marker comment: a decl or statement
		// starting on the following line is marked.
		markerLines := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if text := strings.TrimPrefix(c.Text, "//"); strings.HasPrefix(strings.TrimSpace(text), hotpathMarker) {
					markerLines[p.fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if len(markerLines) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				start := n.Pos() // excludes Doc
				if markerLines[p.fset.Position(start).Line-1] || docHasMarker(n.Doc) {
					p.marks = append(p.marks, n)
				}
			case *ast.ForStmt, *ast.RangeStmt:
				if markerLines[p.fset.Position(n.Pos()).Line-1] {
					p.marks = append(p.marks, n)
				}
			}
			return true
		})
	}
	return p.marks
}

func docHasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotpathMarker) {
			return true
		}
	}
	return false
}

// An ignore is one parsed //sparcs:ignore comment.
type ignore struct {
	pos       token.Pos
	file      string
	line      int // the line it suppresses
	analyzers []string
	reason    string
	malformed string // non-empty: why the comment does not parse
	used      bool
}

// parseIgnores extracts every //sparcs:ignore comment in the package.
// A trailing comment suppresses its own line; a standalone comment
// suppresses the line below it. known is the set of valid analyzer
// names.
func parseIgnores(p *Package, known map[string]bool) []*ignore {
	var out []*ignore
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignoreMarker) {
					continue
				}
				pos := p.fset.Position(c.Pos())
				ig := &ignore{pos: c.Pos(), file: pos.Filename, line: pos.Line}
				if standalone(p.Src[pos.Filename], pos) {
					ig.line++
				}
				rest := strings.TrimPrefix(text, ignoreMarker)
				// A nested "//" starts a new comment (testdata pairs ignores
				// with "// want" expectations this way); the reason ends there.
				if j := strings.Index(rest, "//"); j >= 0 {
					rest = strings.TrimRight(rest[:j], " \t")
				}
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					ig.malformed = fmt.Sprintf("malformed %q comment: want //%s <analyzer>[,<analyzer>] <reason>", ignoreMarker, ignoreMarker)
					out = append(out, ig)
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					ig.malformed = fmt.Sprintf("%q needs an analyzer name and a reason: //%s <analyzer>[,<analyzer>] <reason>", ignoreMarker, ignoreMarker)
					out = append(out, ig)
					continue
				}
				ig.analyzers = strings.Split(fields[0], ",")
				ig.reason = strings.Join(fields[1:], " ")
				for _, name := range ig.analyzers {
					if !known[name] {
						ig.malformed = fmt.Sprintf("%q names unknown analyzer %q", ignoreMarker, name)
						break
					}
				}
				out = append(out, ig)
			}
		}
	}
	return out
}

// standalone reports whether only whitespace precedes the comment on
// its line, i.e. the comment is not trailing code.
func standalone(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	// Walk back from the comment's byte offset to the preceding newline.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true // first line of the file
}

// RunAnalyzers runs the analyzers over every root package of m and
// returns the deduplicated raw findings (before ignore suppression),
// sorted by position.
func RunAnalyzers(m *Module, analyzers []*Analyzer) []Diagnostic {
	seen := map[string]bool{}
	var out []Diagnostic
	for _, p := range m.Roots() {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      m.Fset,
				Files:     nonTestFiles(m.Fset, p.Files),
				Pkg:       p.Pkg,
				TypesInfo: p.Info,
				Package:   p,
				Module:    m,
				report: func(d Diagnostic) {
					// A cross-package hotpath walk can reach one site from
					// several roots; keep one copy.
					key := fmt.Sprintf("%v|%s|%s", d.Pos, d.Analyzer, d.Message)
					if !seen[key] {
						seen[key] = true
						out = append(out, d)
					}
				},
			}
			a.Run(pass)
		}
	}
	sortDiagnostics(m.Fset, out)
	return out
}

// nonTestFiles drops _test.go files from an analysis pass. The
// analyzers enforce invariants on the simulator surface; go vet's
// test-package units would otherwise drag test internals under the
// same rules.
func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := files[:0:0]
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// ApplyIgnores filters diags through the module's //sparcs:ignore
// comments and appends the suite's own findings about those comments:
// malformed ones always, unused ones when reportUnused is set (the
// standalone driver sets it; single-unit vet mode cannot see every
// root, so it does not) and every loaded package is a root. An ignore in
// a dependency may serve a walk rooted in a package this load did not
// analyze, so a subset load cannot call it unused. Only ignores naming
// an active analyzer participate; an ignore is unused when every
// analyzer it names is active yet it suppressed nothing.
func ApplyIgnores(m *Module, active []*Analyzer, diags []Diagnostic, reportUnused bool) []Diagnostic {
	for _, p := range m.Pkgs {
		reportUnused = reportUnused && p.Root
	}
	activeNames := map[string]bool{}
	for _, a := range active {
		activeNames[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	known[Driver] = true

	type lineKey struct {
		file string
		line int
	}
	byLine := map[lineKey][]*ignore{}
	var all []*ignore
	for _, p := range m.Pkgs {
		for _, ig := range parseIgnores(p, known) {
			all = append(all, ig)
			if ig.malformed == "" {
				byLine[lineKey{ig.file, ig.line}] = append(byLine[lineKey{ig.file, ig.line}], ig)
			}
		}
	}

	var kept []Diagnostic
	for _, d := range diags {
		pos := m.Fset.Position(d.Pos)
		suppressed := false
		for _, ig := range byLine[lineKey{pos.Filename, pos.Line}] {
			for _, name := range ig.analyzers {
				if name == d.Analyzer {
					ig.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	// Load failures pass through unsuppressed: a broken package must
	// fail the run, not hide behind an ignore comment.
	kept = append(kept, m.Errors...)
	for _, ig := range all {
		switch {
		case ig.malformed != "":
			kept = append(kept, Diagnostic{Pos: ig.pos, Analyzer: Driver, Message: ig.malformed})
		case reportUnused && !ig.used && allActive(ig.analyzers, activeNames):
			kept = append(kept, Diagnostic{Pos: ig.pos, Analyzer: Driver,
				Message: fmt.Sprintf("unused //%s for %s (nothing to suppress on this line; delete it)", ignoreMarker, strings.Join(ig.analyzers, ","))})
		}
	}
	sortDiagnostics(m.Fset, kept)
	return kept
}

// Driver is the pseudo-analyzer name under which the suite reports
// problems with the annotation comments themselves.
const Driver = "sparcsvet"

func allActive(names []string, active map[string]bool) bool {
	for _, n := range names {
		if !active[n] {
			return false
		}
	}
	return true
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// All returns the sparcsvet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Hotpath, Determinism, Bitwidth, ErrSentinel, Lockorder, Goroleak}
}

// typesInfo returns a fully populated types.Info for one package check.
func typesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
