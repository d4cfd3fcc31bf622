package lint

import (
	"go/ast"
	"go/types"
)

// ScratchConfine mechanizes the scratch-arena ownership rule of the
// chunked hot path (DESIGN §11): a buffer allocated inside a
// par.ForEachChunks block closure or a par.Map callback is chunk-local
// scratch, owned by exactly one callback invocation — it may be reused
// across the items of its block precisely because it never leaves the
// block. The rule flags every way such a buffer can escape the chunk:
// a store into a global or any variable captured from outside the
// closure (including fields and elements reached through one), a channel
// send, a return (in the ForEachChunks block form, whose closure yields
// only an error — the Map per-item return is the sanctioned hand-off of
// a freshly allocated result), and capture by a goroutine launched
// inside the block.
//
// Views of shared arenas are deliberately exempt: a variable initialized
// by slicing a captured arena (caveOut := wiresAll[lo:hi]) is a window
// into memory the caller owns positionally, not chunk-local scratch —
// writing through it is the whole point of the arena pattern. Only
// freshly allocated buffers (make, new, composite literals, append to
// nil) are treated as scratch. Reading an element of a scratch buffer
// (rows[i]) also passes: the element value is copied out, the buffer
// itself stays confined.
var ScratchConfine = &Analyzer{
	Name: "scratchconfine",
	Doc:  "scratch buffers allocated in par chunk closures must not escape the chunk",
	Run:  runScratchConfine,
}

// chunkedEntryPoints are the internal/par APIs whose final func-literal
// argument is a block (or per-item) callback with scratch-ownership
// semantics.
var chunkedEntryPoints = map[string]bool{
	"ForEachChunks": true,
	"Map":           true,
}

func runScratchConfine(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || !chunkedEntryPoints[fn.Name()] {
				return true
			}
			if p.Cfg.rel(fn.Pkg().Path()) != "internal/par" {
				return true
			}
			lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			checkChunkClosure(p, lit, fn.Name() == "ForEachChunks")
			return true
		})
	}
}

// checkChunkClosure flags chunk-local scratch escaping the block
// closure lit. Returns are an escape only in the ForEachChunks block form
// (blockForm), where the closure yields nothing but an error and an
// aliasing return smuggles the buffer out through the error path; in
// Map the per-item return is the sanctioned hand-off of a buffer the
// invocation just allocated.
func checkChunkClosure(p *Pass, lit *ast.FuncLit, blockForm bool) {
	scratch := scratchVars(p, lit)
	if len(scratch) == 0 {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) && len(n.Rhs) != 1 {
					break
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				obj := aliasedScratch(p, rhs, scratch)
				if obj == nil {
					continue
				}
				root := rootObject(p, lhs)
				if root == nil || within(lit, root.Pos()) {
					continue
				}
				p.Reportf(n.Pos(), "chunk-local scratch %s escapes the par block through a store to %s, which outlives the chunk; copy the data or allocate per item", obj.Name(), root.Name())
			}
		case *ast.SendStmt:
			if obj := aliasedScratch(p, n.Value, scratch); obj != nil {
				p.Reportf(n.Pos(), "chunk-local scratch %s escapes the par block through a channel send; copy the data first", obj.Name())
			}
		case *ast.ReturnStmt:
			if !blockForm {
				break
			}
			for _, res := range n.Results {
				if obj := aliasedScratch(p, res, scratch); obj != nil {
					p.Reportf(n.Pos(), "chunk-local scratch %s escapes the par block through a return; allocate the result per item instead of reusing block scratch", obj.Name())
				}
			}
		case *ast.GoStmt:
			// Launching a goroutine here is already a nogoroutine
			// violation; the scratch angle is that the spawned closure may
			// outlive the block that owns the buffers it captures.
			for obj := range scratch {
				if capturesObject(p, n.Call, obj) {
					p.Reportf(n.Pos(), "chunk-local scratch %s is captured by a goroutine spawned inside the par block and may outlive the chunk", obj.Name())
				}
			}
		}
		return true
	})
}

// scratchVars collects the chunk-local scratch of a block closure: every
// variable declared directly in the closure body (any nesting depth)
// whose initializer allocates fresh memory — make, new, a composite
// literal, append to nil — and whose type can alias that memory (slice,
// map, pointer, channel). Views of outer arenas (slicing expressions,
// call results) are excluded by construction.
func scratchVars(p *Pass, lit *ast.FuncLit) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id] // `=` re-assignment of a closure-local
					if obj == nil || !within(lit, obj.Pos()) {
						continue
					}
				}
				if allocatesFresh(p, n.Rhs[i]) && aliasable(obj.Type()) {
					out[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i >= len(n.Values) {
					break
				}
				obj := p.Info.Defs[id]
				if obj != nil && allocatesFresh(p, n.Values[i]) && aliasable(obj.Type()) {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// allocatesFresh reports whether expr builds new memory: make, new, a
// composite literal (possibly address-taken), or append with an untyped
// nil base.
func allocatesFresh(p *Pass, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
			return true
		}
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := p.Info.Uses[id].(*types.Builtin)
		if !ok {
			return false
		}
		switch b.Name() {
		case "make", "new":
			return true
		case "append":
			if len(e.Args) > 0 {
				if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
					return true
				}
			}
		}
	}
	return false
}

// aliasable reports whether a value of type t shares memory when copied
// (slice, map, pointer, channel) — the types for which handing the value
// out also hands out the scratch buffer.
func aliasable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// aliasedScratch returns the scratch object whose memory expr aliases:
// the bare identifier, its address, a reslicing of it, an append over
// it, or a composite literal carrying any of those — and nil when expr
// only copies element values out (indexing) or mentions no scratch at
// all. Results of ordinary calls are assumed alias-free: a synchronous
// callee cannot retain its arguments beyond the block without a store
// the analysis of that callee's own package would flag.
func aliasedScratch(p *Pass, expr ast.Expr, scratch map[types.Object]bool) types.Object {
	var found types.Object
	var scan func(ast.Node)
	scan = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.IndexExpr:
				// Element reads copy values out of the buffer; the buffer
				// itself stays put. Skip the base, keep scanning the index.
				scan(n.Index)
				return false
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						return true // append's result aliases its base
					}
				}
				for _, arg := range n.Args {
					if _, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						scan(arg) // a literal callback may smuggle the buffer out
					}
				}
				return false
			case *ast.Ident:
				if obj := p.Info.Uses[n]; obj != nil && scratch[obj] {
					found = obj
				}
			}
			return true
		})
	}
	scan(expr)
	return found
}

// rootObject resolves the storage root of an lvalue: the identifier at
// the base of any chain of selectors, indexes, stars and slices. The
// root decides ownership — if it was declared outside the closure, the
// store publishes beyond the chunk.
func rootObject(p *Pass, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return p.Info.ObjectOf(e)
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// capturesObject reports whether the call (of a go statement) references
// obj anywhere — as an argument or captured by a function-literal callee.
func capturesObject(p *Pass, call *ast.CallExpr, obj types.Object) bool {
	captured := false
	ast.Inspect(call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			captured = true
		}
		return !captured
	})
	return captured
}
