package lint

import (
	"go/ast"
	"go/types"

	"iddqsyn/internal/lint/analysis"
)

// SpanEnd flags trace spans that are started and provably never ended.
// A *obs.TraceSpan is recorded only when End runs: a dropped span is a
// hole in the causal trace at exactly the point someone bothered to
// instrument, and it still counts against the trace's span cap — enough
// leaks and the trace silently truncates (DroppedSpans) while looking
// armed. The failure is invisible in tests (nothing panics, nothing
// errors); only the /tracez output quietly loses the stretch of latency
// the span was supposed to explain.
//
// The analysis is function-local and syntactic over type-checked code.
// A "span producer" is a call whose name starts with Start and whose
// result (or one result of its tuple) is a *TraceSpan named type from a
// package named "obs" — StartRoot, StartChild, StartTraceSpan and the
// phase-span constructor (*Obs).StartSpan.
// Retrieval helpers (SpanFromContext) are not producers: the retriever
// does not own the span's End.
//
// Flagged:
//   - a producer call as a bare statement — the span is unreachable and
//     can never be ended;
//   - a producer result bound to the blank identifier;
//   - a producer result bound to a local variable that is never used
//     again — started, then forgotten.
//
// Not flagged: spans that escape the function (passed to a call, stored
// in a field, returned, sent, appended) — ownership legitimately moves,
// as with the queue-wait span ended by the worker that claims the job —
// and any span with a visible .End use, including inside a deferred
// closure or as a method value. Calling another method on the span
// (StartChild, Trace) is a use but neither ends it nor hands it off, so
// a parent that only ever spawns children is still flagged.
// Cross-goroutine End is safe by design (End is idempotent), so escape
// analysis stays deliberately generous; the analyzer only reports spans
// that provably cannot be ended by anyone.
var SpanEnd = &analysis.Analyzer{
	Name: "spanend",
	Doc: "flag trace spans that are started but provably never ended; an " +
		"unended span is a silent hole in the causal trace and leaks " +
		"against the per-trace span cap (end it, defer End, or hand it off)",
	Run: runSpanEnd,
}

func runSpanEnd(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSpanEnds(pass, fn.Body)
		}
	}
	return nil, nil
}

// checkSpanEnds runs the per-function analysis: find span producers,
// classify each binding, then audit every locally bound span's uses.
// The whole FuncDecl body is one scope — uses inside nested function
// literals (a deferred closure calling End) count.
func checkSpanEnds(pass *analysis.Pass, body *ast.BlockStmt) {
	// owned maps a locally bound span variable to the position of the
	// producer call that created it.
	owned := map[types.Object]*ast.CallExpr{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok && isSpanProducer(pass, call) {
				pass.Reportf(call.Pos(),
					"span from %s is dropped; it can never be ended — assign it and call End (or defer End)",
					exprString(call.Fun))
			}
		case *ast.AssignStmt:
			for obj, call := range spanBindings(pass, stmt) {
				if obj == nil {
					pass.Reportf(call.Pos(),
						"span from %s is bound to _; it can never be ended — assign it and call End (or defer End)",
						exprString(call.Fun))
					continue
				}
				owned[obj] = call
			}
		}
		return true
	})
	if len(owned) == 0 {
		return
	}

	// Audit uses with their parent node: a .End selector ends the span;
	// a use that can alias or export the value (call argument, return,
	// RHS of a real assignment, composite literal, &, send) hands it
	// off; everything else (other span methods, comparisons, blank
	// assigns, being an assignment target) is neutral.
	ended := map[types.Object]bool{}
	escaped := map[types.Object]bool{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := owned[obj]; !tracked {
			return true
		}
		var parent ast.Node
		if len(stack) >= 2 {
			parent = stack[len(stack)-2]
		}
		switch classifyUse(id, parent) {
		case useEnd:
			ended[obj] = true
		case useEscape:
			escaped[obj] = true
		}
		return true
	})
	for obj, call := range owned {
		if ended[obj] || escaped[obj] {
			continue
		}
		pass.Reportf(call.Pos(),
			"span %s is started but never ended; call %s.End() (or defer it), or hand the span off",
			obj.Name(), obj.Name())
	}
}

// spanBindings maps each span-producing result of stmt's RHS to the
// local variable object it is bound to, or to nil for a blank binding.
// Non-ident LHS (a struct field, an index expression) means the span
// escapes at birth and is not tracked.
func spanBindings(pass *analysis.Pass, stmt *ast.AssignStmt) map[types.Object]*ast.CallExpr {
	out := map[types.Object]*ast.CallExpr{}
	bind := func(lhs ast.Expr, call *ast.CallExpr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return // field/index store: escapes at birth
		}
		if id.Name == "_" {
			out[nil] = call
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id] // plain `=` to an existing var
		}
		if obj != nil {
			out[obj] = call
		}
	}
	if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
		// ctx, sp := obs.StartTraceSpan(ctx, "x") — one call, a tuple.
		call, ok := stmt.Rhs[0].(*ast.CallExpr)
		if !ok || !isStartCall(call) {
			return out
		}
		tup, ok := pass.TypesInfo.TypeOf(call).(*types.Tuple)
		if !ok || tup.Len() != len(stmt.Lhs) {
			return out
		}
		for i := 0; i < tup.Len(); i++ {
			if isSpanType(tup.At(i).Type()) {
				bind(stmt.Lhs[i], call)
			}
		}
		return out
	}
	for i, rhs := range stmt.Rhs {
		if i >= len(stmt.Lhs) {
			break
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isSpanProducer(pass, call) {
			bind(stmt.Lhs[i], call)
		}
	}
	return out
}

// useKind is the effect one use of a span identifier has on ownership.
type useKind int

const (
	useNeutral useKind = iota // seen, but neither ends nor hands off
	useEnd                    // receiver of an End selector
	useEscape                 // the value may leave the function's hands
)

// classifyUse decides what one occurrence of the span identifier does,
// from its immediate parent node.
func classifyUse(id *ast.Ident, parent ast.Node) useKind {
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X == id && p.Sel.Name == "End" {
			return useEnd
		}
		if p.X == id {
			// Another method or field on the span: a use, not a handoff.
			return useNeutral
		}
		return useEscape
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == id {
				// Being the assignment target is not a handoff.
				return useNeutral
			}
		}
		// On the RHS: `other = sp` aliases the span away — unless every
		// target is blank (`_ = sp`), which goes nowhere.
		for _, lhs := range p.Lhs {
			if bid, ok := lhs.(*ast.Ident); !ok || bid.Name != "_" {
				return useEscape
			}
		}
		return useNeutral
	case *ast.BinaryExpr:
		// Comparisons (sp != nil) read the pointer, nothing more.
		return useNeutral
	default:
		// Call argument, return operand, composite literal, &sp, channel
		// send, index — all can carry the span out of the function.
		return useEscape
	}
}

// isSpanProducer reports whether call starts a span the caller owns: a
// Start* call producing a span value (directly or in a tuple).
func isSpanProducer(pass *analysis.Pass, call *ast.CallExpr) bool {
	if !isStartCall(call) {
		return false
	}
	switch t := pass.TypesInfo.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isSpanType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isSpanType(t)
	}
}

// isStartCall reports whether the callee's name starts with "Start" —
// the producer naming convention that separates span creation
// (StartRoot, StartChild, StartTraceSpan) from span retrieval
// (SpanFromContext), whose result the caller does not own.
func isStartCall(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return false
	}
	return len(name) >= 5 && name[:5] == "Start"
}

// isSpanType reports whether t is (a pointer to) the named span type
// TraceSpan declared in a package whose name is "obs".
func isSpanType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "obs" {
		return false
	}
	return obj.Name() == "TraceSpan"
}
