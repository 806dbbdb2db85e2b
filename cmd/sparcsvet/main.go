// Command sparcsvet runs the repo's static-analysis suite
// (internal/analysis): hotpath, determinism, bitwidth, errsentinel,
// lockorder, goroleak.
//
// Standalone over the module (package patterns as for go build):
//
//	go run ./cmd/sparcsvet ./...
//
// Or as a vet tool, one compilation unit at a time:
//
//	go build -o /tmp/sparcsvet ./cmd/sparcsvet
//	go vet -vettool=/tmp/sparcsvet ./...
//
// Standalone mode loads the named packages with their module-local
// dependencies, so the call graph spans package boundaries
// (interprocedural hotpath, lockorder cycle detection); when every
// loaded package is named (./...), unused //sparcs:ignore comments are
// reported too. Vet mode analyzes one package per invocation and skips
// both. CI runs the standalone form as the gate and the vet form as a
// protocol smoke.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sparcs/internal/analysis"
)

func main() {
	vFlag := flag.String("V", "", "print version and exit (go vet protocol)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	onlyFlag := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sparcsvet [-only a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	switch {
	case *vFlag != "":
		printVersion(*vFlag)
		return
	case *flagsFlag:
		fmt.Println("[]")
		return
	case *listFlag:
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	active, err := selectAnalyzers(*onlyFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sparcsvet: %v\n", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0], active))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, active))
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if only == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var active []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		active = append(active, a)
	}
	return active, nil
}

// runStandalone loads the named packages and their module-local
// dependencies and runs the suite with full cross-package context.
func runStandalone(patterns []string, active []*analysis.Analyzer) int {
	m, err := analysis.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sparcsvet: %v\n", err)
		return 2
	}
	diags := analysis.ApplyIgnores(m, active, analysis.RunAnalyzers(m, active), true)
	for _, d := range diags {
		fmt.Printf("%s: %s [%s]\n", m.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// printVersion implements the `-V=full` handshake go vet uses to
// fingerprint the tool for its action cache.
func printVersion(mode string) {
	progname := filepath.Base(os.Args[0])
	if mode != "full" {
		fmt.Printf("%s version devel\n", progname)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sparcsvet: %v\n", err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sparcsvet: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "sparcsvet: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

// vetConfig is the per-unit configuration go vet hands the tool (the
// x/tools unitchecker wire format; unused fields omitted).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes one compilation unit under `go vet -vettool`.
func runUnit(cfgFile string, active []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sparcsvet: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "sparcsvet: parsing %s: %v\n", cfgFile, err)
		return 2
	}
	// The tool exports no facts, but vet expects the output file to exist.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "sparcsvet: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	m, err := loadUnit(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "sparcsvet: %v\n", err)
		return 2
	}
	// One package per invocation: no cross-package hotpath context, so
	// unused-ignore reporting is off (an ignore may serve a walk rooted
	// in another unit).
	diags := analysis.ApplyIgnores(m, active, analysis.RunAnalyzers(m, active), false)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", m.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// loadUnit parses and type-checks the unit's files against the export
// data go vet supplies, and wraps them as a one-package Module.
func loadUnit(cfg *vetConfig) (*analysis.Module, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	src := map[string][]byte{}
	for _, name := range cfg.GoFiles {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, name, data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		src[name] = data
	}
	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	resolve := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(path)
	})
	info := analysis.NewTypesInfo()
	var typeErr error
	conf := types.Config{
		Importer: resolve,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if typeErr != nil {
		return nil, typeErr
	}
	if err != nil {
		return nil, err
	}
	return analysis.NewUnitModule(fset, cfg.ImportPath, files, tpkg, info, src), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
