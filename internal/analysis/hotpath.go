package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath enforces that //sparcs:hotpath code is allocation-free. A
// marked function declaration (or for/range statement), plus every
// module-local function it can reach through the call graph, must not
// contain: growing append, make, new, escaping composite literals, fmt
// calls, map writes, allocating string conversions, string
// concatenation, or interface boxing. The walk is interprocedural and
// devirtualizing: a call through a module-local interface
// (arbiter.BitStepper, workload.BitGenerator, ...) fans out to every
// implementation's method body, so allocation hiding behind dynamic
// dispatch is caught instead of silently skipped. Calls through plain
// function values cannot be resolved and are reported as unprovable —
// keep cycle-rate dispatch static, or behind a module-local interface
// method as the simulator's arbiter.Policy.StepBits and
// sim.Requester.NextBits calls are.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "report allocating constructs in //sparcs:hotpath code and everything it can reach through the module call graph, interface dispatch included",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	marks := pass.Package.HotMarks()
	if len(marks) == 0 {
		return nil
	}
	w := &hotWalker{pass: pass, visited: map[*types.Func]bool{}}
	for _, mark := range marks {
		switch n := mark.(type) {
		case *ast.FuncDecl:
			if fn, ok := pass.Package.Info.Defs[n.Name].(*types.Func); ok {
				w.walkFunc(pass.Package, fn, n)
			}
		default: // a marked for/range statement
			w.walk(pass.Package, n)
		}
	}
	return nil
}

type hotWalker struct {
	pass    *Pass
	visited map[*types.Func]bool
}

func (w *hotWalker) walkFunc(pkg *Package, fn *types.Func, decl *ast.FuncDecl) {
	if w.visited[fn] {
		return
	}
	w.visited[fn] = true
	if decl == nil || decl.Body == nil {
		return
	}
	w.walk(pkg, decl.Body)
}

// walk inspects one hot region, reporting allocating constructs and
// recursing into statically called module-local functions. All type
// lookups go through the owning package's Info, so cross-package walks
// stay sound.
func (w *hotWalker) walk(pkg *Package, region ast.Node) {
	info := pkg.Info
	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure built in a hot region is itself an allocation;
			// its body runs only if called, which would be a dynamic call.
			w.pass.Reportf(n.Pos(), "function literal allocates a closure in a hot path")
			return false
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				w.pass.Reportf(n.Pos(), "slice literal allocates in a hot path")
			case *types.Map:
				w.pass.Reportf(n.Pos(), "map literal allocates in a hot path")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					switch info.TypeOf(cl).Underlying().(type) {
					case *types.Slice, *types.Map:
						// already reported as the literal itself
					default:
						w.pass.Reportf(n.Pos(), "&composite literal escapes to the heap in a hot path")
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) && info.Types[n].Value == nil {
				w.pass.Reportf(n.Pos(), "string concatenation allocates in a hot path")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				w.checkMapWrite(pkg, lhs)
			}
		case *ast.IncDecStmt:
			w.checkMapWrite(pkg, n.X)
		case *ast.GoStmt:
			w.pass.Reportf(n.Pos(), "goroutine spawn allocates in a hot path")
		case *ast.DeferStmt:
			w.pass.Reportf(n.Pos(), "defer allocates in a hot path")
		case *ast.CallExpr:
			w.checkCall(pkg, n)
		}
		return true
	})
}

func (w *hotWalker) checkMapWrite(pkg *Package, lhs ast.Expr) {
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if _, isMap := pkg.Info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
			w.pass.Reportf(lhs.Pos(), "map write may allocate in a hot path")
		}
	}
}

func (w *hotWalker) checkCall(pkg *Package, call *ast.CallExpr) {
	info := pkg.Info

	// Conversions: string<->[]byte/[]rune allocate; conversion to an
	// interface type boxes.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := info.TypeOf(call.Args[0])
		switch {
		case isString(to) && isByteOrRuneSlice(from):
			w.pass.Reportf(call.Pos(), "string(%s) conversion allocates in a hot path", sliceName(from))
		case isByteOrRuneSlice(to) && isString(from):
			w.pass.Reportf(call.Pos(), "%s(string) conversion allocates in a hot path", sliceName(to))
		case types.IsInterface(to) && from != nil && !types.IsInterface(from) && !isUntypedNil(from):
			w.pass.Reportf(call.Pos(), "conversion to interface boxes the value in a hot path")
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				w.pass.Reportf(call.Pos(), "append may grow its backing array in a hot path")
			case "make":
				w.pass.Reportf(call.Pos(), "make allocates in a hot path")
			case "new":
				w.pass.Reportf(call.Pos(), "new allocates in a hot path")
			case "delete":
				w.pass.Reportf(call.Pos(), "map delete touches a map in a hot path")
			}
			return
		}
	}

	site := w.pass.Module.resolveCall(pkg, call)
	switch site.Kind {
	case CallDynamic:
		// A function value could run anything; without a callee set the
		// region cannot be proven allocation-free.
		w.pass.Reportf(call.Pos(), "dynamic call through a function value cannot be proven allocation-free in a hot path")
		w.checkArgBoxing(pkg, call)
		return
	case CallStatic:
		fn := site.Callees[0]
		if p := fn.Pkg(); p != nil {
			switch p.Path() {
			case "fmt":
				w.pass.Reportf(call.Pos(), "fmt.%s allocates in a hot path", fn.Name())
				return
			case "log":
				w.pass.Reportf(call.Pos(), "log.%s allocates in a hot path", fn.Name())
				return
			}
		}
	}
	w.checkArgBoxing(pkg, call)

	// Follow every possible callee into module-local code: the one
	// static target, or all devirtualized implementations of an
	// interface method.
	for _, fn := range site.Callees {
		if calleePkg, decl := w.pass.Module.Decl(fn); decl != nil {
			w.walkFunc(calleePkg, fn, decl)
		}
	}
}

// checkArgBoxing flags non-interface arguments passed to interface
// parameters — each such pass boxes the value.
func (w *hotWalker) checkArgBoxing(pkg *Package, call *ast.CallExpr) {
	info := pkg.Info
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(at) {
			continue
		}
		w.pass.Reportf(arg.Pos(), "passing %s to interface parameter boxes the value in a hot path", at)
	}
}

// staticCallee resolves call to a statically known function or method,
// or nil for dynamic dispatch (interface methods, function values).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
		}
		return fn
	}
	return nil
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func sliceName(t types.Type) string {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return t.String()
	}
	b, _ := sl.Elem().Underlying().(*types.Basic)
	if b != nil && b.Kind() == types.Rune {
		return "[]rune"
	}
	return "[]byte"
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
