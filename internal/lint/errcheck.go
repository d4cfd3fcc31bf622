package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrCheck enforces error discipline: no error result silently
// discarded — neither by a bare call statement nor a blank assignment —
// and no fmt.Errorf, or nwerr printf constructor (Invalidf, Internalf,
// Overloadf, NotFoundf: they hand their format to fmt.Errorf), that
// carries an error argument without wrapping it with %w (unwrapped causes
// break errors.Is chains like the ErrCountExceedsSpace checks).
//
// Calls whose failure is meaningless or impossible are exempt: fmt
// printing to the console (printbound owns where that is legal, and a
// failed console write has no recovery) and writes whose sink is a
// strings.Builder, bytes.Buffer or hash, which never return an error.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "no discarded error results; fmt.Errorf and the nwerr printf constructors wrap their error cause with %w",
	Run:  runErrCheck,
}

func runErrCheck(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscardedCall(p, call, "")
				}
			case *ast.DeferStmt:
				checkDiscardedCall(p, n.Call, "deferred ")
			case *ast.AssignStmt:
				checkBlankAssign(p, n)
			case *ast.CallExpr:
				checkErrorfWrap(p, n)
			}
			return true
		})
	}
}

// checkDiscardedCall reports a statement-position call whose error
// result vanishes.
func checkDiscardedCall(p *Pass, call *ast.CallExpr, kind string) {
	if !returnsError(p, call) || infallible(p, call) {
		return
	}
	p.Reportf(call.Pos(), "error result of %scall to %s is discarded; handle it or return it", kind, calleeName(p, call))
}

// checkBlankAssign reports error results assigned to the blank
// identifier.
func checkBlankAssign(p *Pass, as *ast.AssignStmt) {
	// Tuple form: a, _ := call().
	if len(as.Rhs) == 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || infallible(p, call) {
			return
		}
		tuple, ok := p.Info.TypeOf(call).(*types.Tuple)
		if !ok {
			if len(as.Lhs) == 1 && isBlank(as.Lhs[0]) && isErrorType(p.Info.TypeOf(call)) {
				p.Reportf(as.Pos(), "error result of %s is assigned to _; handle it or return it", calleeName(p, call))
			}
			return
		}
		for i := 0; i < tuple.Len() && i < len(as.Lhs); i++ {
			if isBlank(as.Lhs[i]) && isErrorType(tuple.At(i).Type()) {
				p.Reportf(as.Pos(), "error result of %s is assigned to _; handle it or return it", calleeName(p, call))
				return
			}
		}
		return
	}
	// Parallel form: a, b = f(), g().
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || infallible(p, call) {
			continue
		}
		if isErrorType(p.Info.TypeOf(call)) {
			p.Reportf(as.Pos(), "error result of %s is assigned to _; handle it or return it", calleeName(p, call))
		}
	}
}

// checkErrorfWrap reports calls of a printf-style error constructor
// that format an error cause without the %w wrapping verb.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p, call)
	if fn == nil || !isErrorf(p, fn) {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	if strings.Contains(constant.StringVal(tv.Value), "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErrorType(p.Info.TypeOf(arg)) {
			p.Reportf(call.Pos(), "%s.%s formats an error cause without %%w; wrap it so errors.Is/As keep working", fn.Pkg().Name(), fn.Name())
			return
		}
	}
}

// isErrorf reports whether fn builds an error from a printf format:
// fmt.Errorf, or one of the nwerr constructors that pass their format
// to it.
func isErrorf(p *Pass, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		return fn.Name() == "Errorf"
	}
	switch fn.Name() {
	case "Invalidf", "Internalf", "Overloadf", "NotFoundf":
		return p.Cfg.rel(fn.Pkg().Path()) == "internal/nwerr"
	}
	return false
}

// isBlank reports whether expr is the blank identifier.
func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}

// returnsError reports whether the call's result set contains an error.
func returnsError(p *Pass, call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// infallible exempts calls documented never to return a non-nil error:
// fmt console printing, and writes into in-memory sinks
// (strings.Builder, bytes.Buffer, hash.Hash).
func infallible(p *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		name := fn.Name()
		if strings.HasPrefix(name, "Print") {
			return true // console writes; printbound polices the location
		}
		if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			return inMemorySink(p.Info.TypeOf(call.Args[0])) || isConsole(p, call.Args[0])
		}
	}
	if recv := recvOf(fn); recv != nil {
		return inMemorySink(recv.Type())
	}
	return false
}

// isConsole reports whether expr is os.Stdout or os.Stderr: there is
// nothing a caller can do about a failed console write, so discarding
// the error is the convention (printbound polices where stdout writes
// may live at all).
func isConsole(p *Pass, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "os"
}

// inMemorySink reports whether t is a writer that cannot fail:
// *strings.Builder, *bytes.Buffer or a hash.Hash implementation.
func inMemorySink(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "strings":
		return obj.Name() == "Builder"
	case "bytes":
		return obj.Name() == "Buffer"
	case "hash":
		return true
	}
	return false
}

// isErrorType reports whether t is the built-in error interface (or a
// named alias of it).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Identical(iface, types.Universe.Lookup("error").Type().Underlying())
}

// calleeName renders the called function for diagnostics.
func calleeName(p *Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "function"
}
