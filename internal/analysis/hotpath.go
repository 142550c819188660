package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// hotpathPrefix marks a function as allocation-disciplined: the PR 6
// §10 contract (0 B/op at steady state on the fault/allocation cycle)
// extended from benchmark-time to vet-time. Grammar:
//
//	//detsim:hotpath
//
// as its own line in the function's doc comment.
const hotpathPrefix = "//detsim:hotpath"

// HotpathAnalyzer checks functions annotated //detsim:hotpath for
// structurally-allocating constructs — the ones that took the
// simulator from 1.33 to 5.6 cells/sec to eliminate (DESIGN.md §10)
// and that creep back silently in review:
//
//   - defer (deferred-call record per invocation)
//   - fmt.* calls and string concatenation
//   - map literals, make(map), and range-over-map
//   - function literals in escaping positions (closure allocation)
//   - interface boxing in assignments/returns (non-error types)
//   - append to an escaping slice (field or package variable) unless
//     the same slice is length-truncated (s = s[:0]) in the function —
//     the §10/§11 capacity-reuse discipline
//   - make of a slice stored into an escaping destination (a new
//     backing array per call)
//
// Error paths are exempt: anything inside a return statement that
// returns a non-nil error, or inside panic(...)/invariant.Fail*(...)
// arguments, may allocate — failure is off the hot path by
// definition. Genuine pooled-growth appends (a pool growing its own
// backing array) carry //detsim:allow with the reuse discipline.
var HotpathAnalyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "forbid allocating constructs in //detsim:hotpath functions\n\n" +
		"Annotated hot-path functions (DESIGN.md §10 inventory) must stay\n" +
		"free of defer, fmt, string concatenation, map literals and\n" +
		"iteration, escaping closures, interface boxing, appends to\n" +
		"escaping slices without the s = s[:0] reuse discipline, and\n" +
		"slices made into escaping destinations. Error paths (error\n" +
		"returns, panic/invariant.Fail arguments) are exempt; see\n" +
		"ANALYSIS.md.",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: directiveIndexResult,
	Run:        runHotpath,
}

// hotFunc is one annotated function: its body extent, the source
// ranges where allocation is forgiven (error paths), and the slices
// whose capacity is provably reused via s = s[:0] truncation.
type hotFunc struct {
	name      string
	body      *ast.BlockStmt
	exempt    []posRange
	truncated map[string]bool // ExprString of length-truncated slice targets
}

type posRange struct{ lo, hi token.Pos }

func runHotpath(pass *analysis.Pass) (interface{}, error) {
	if !strings.HasPrefix(normalizePkgPath(pass.Pkg.Path()), modulePath) {
		return directiveIndex(nil), nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allow := buildDirectiveIndex(pass)

	var hot []*hotFunc
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpathAnnotated(fd) || isTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			hot = append(hot, prepareHotFunc(pass, fd))
		}
	}
	if len(hot) == 0 {
		return allow, nil
	}

	findHot := func(pos token.Pos) *hotFunc {
		for _, h := range hot {
			if pos >= h.body.Pos() && pos < h.body.End() {
				return h
			}
		}
		return nil
	}

	nodeTypes := []ast.Node{
		(*ast.DeferStmt)(nil),
		(*ast.CallExpr)(nil),
		(*ast.BinaryExpr)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.CompositeLit)(nil),
		(*ast.RangeStmt)(nil),
		(*ast.FuncLit)(nil),
	}
	ins.WithStack(nodeTypes, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		h := findHot(n.Pos())
		if h == nil || h.exemptAt(n.Pos()) {
			return true
		}
		if msg := hotpathFinding(pass, n, stack, h); msg != "" {
			if !allow.allowed(pass, n.Pos()) {
				pass.Reportf(n.Pos(),
					"hotpath: %s in //detsim:hotpath function %s — the §10 allocation discipline (0 B/op steady state) forbids it on the hot path; restructure, move it off the annotated path, or annotate //detsim:allow <reason> with the reuse discipline",
					msg, h.name)
			}
		}
		return true
	})
	return allow, nil
}

// isHotpathAnnotated reports whether the function's doc comment
// carries a //detsim:hotpath line.
func isHotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathPrefix {
			return true
		}
		if rest, ok := strings.CutPrefix(c.Text, hotpathPrefix); ok &&
			(strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\t")) {
			return true
		}
	}
	return false
}

// prepareHotFunc precomputes the error-path exemption ranges and the
// truncated-slice set for one annotated function.
func prepareHotFunc(pass *analysis.Pass, fd *ast.FuncDecl) *hotFunc {
	h := &hotFunc{name: fd.Name.Name, body: fd.Body, truncated: make(map[string]bool)}
	if fd.Recv != nil {
		h.name = funcDisplayName([]ast.Node{fd})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			// A return producing an error value is the failure path.
			for _, res := range n.Results {
				if t := pass.TypesInfo.TypeOf(res); t != nil && isErrorType(t) && !isNilIdent(res) {
					h.exempt = append(h.exempt, posRange{n.Pos(), n.End()})
					break
				}
			}
		case *ast.CallExpr:
			if isPanicOrInvariantCall(pass, n) {
				h.exempt = append(h.exempt, posRange{n.Pos(), n.End()})
			}
		case *ast.AssignStmt:
			// s = s[:0] (or s = s[:0:...]): the capacity-reuse idiom —
			// appends to s in this function refill reused backing.
			if n.Tok != token.ASSIGN || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			sl, ok := n.Rhs[0].(*ast.SliceExpr)
			if !ok || sl.Low != nil {
				return true
			}
			if lit, ok := sl.High.(*ast.BasicLit); ok && lit.Value == "0" &&
				types.ExprString(sl.X) == types.ExprString(n.Lhs[0]) {
				h.truncated[types.ExprString(n.Lhs[0])] = true
			}
		}
		return true
	})
	return h
}

func (h *hotFunc) exemptAt(pos token.Pos) bool {
	for _, r := range h.exempt {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// hotpathFinding classifies one node inside a hot function, returning
// a description of the allocating construct or "".
func hotpathFinding(pass *analysis.Pass, n ast.Node, stack []ast.Node, h *hotFunc) string {
	switch n := n.(type) {
	case *ast.DeferStmt:
		return "defer (allocates a deferred-call record per invocation)"
	case *ast.CallExpr:
		if pkg, name, ok := callPkgFunc(pass, n); ok && pkg == "fmt" {
			return fmt.Sprintf("fmt.%s call (formats and allocates)", name)
		}
		if isBuiltinMake(pass, n) {
			if t := pass.TypesInfo.TypeOf(n); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return "make(map) (allocates a hash table)"
				}
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t := pass.TypesInfo.TypeOf(n); t != nil && isString(t) {
				return "string concatenation (allocates the result)"
			}
		}
	case *ast.CompositeLit:
		if t := pass.TypesInfo.TypeOf(n); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return "map literal (allocates a hash table)"
			}
		}
	case *ast.RangeStmt:
		if tv, ok := pass.TypesInfo.Types[n.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return "map iteration (randomised order, per-iteration bucket walking)"
			}
		}
	case *ast.FuncLit:
		if funcLitEscapes(stack) {
			return "function literal in an escaping position (allocates a closure)"
		}
	case *ast.AssignStmt:
		return hotpathAssignFinding(pass, n, h)
	}
	return ""
}

// hotpathAssignFinding covers the assignment-shaped constructs: string
// +=, interface boxing, append to an escaping slice without the
// truncation discipline, and a slice made into an escaping destination.
func hotpathAssignFinding(pass *analysis.Pass, as *ast.AssignStmt, h *hotFunc) string {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if t := pass.TypesInfo.TypeOf(as.Lhs[0]); t != nil && isString(t) {
			return "string concatenation with += (allocates the result)"
		}
	}
	if as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			// Interface boxing: storing a concrete value into a
			// non-error interface destination heap-allocates the box.
			lt := pass.TypesInfo.TypeOf(lhs)
			rt := pass.TypesInfo.TypeOf(as.Rhs[i])
			if lt != nil && rt != nil && types.IsInterface(lt) && !isErrorType(lt) &&
				!types.IsInterface(rt) && !isNilIdent(as.Rhs[i]) && !isUntypedNil(rt) {
				return fmt.Sprintf("interface boxing: storing %s into interface %q", rt, types.ExprString(lhs))
			}
			// x = append(x, ...) with x rooted in a field or package
			// variable: the slice escapes the call, so growth is a real
			// allocation unless its capacity is provably reused.
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			if isBuiltinMake(pass, call) && escapingSliceTarget(pass, lhs) {
				if _, isSlice := pass.TypesInfo.TypeOf(call).Underlying().(*types.Slice); isSlice {
					return fmt.Sprintf("make into escaping slice %q (allocates a backing array per call)", types.ExprString(lhs))
				}
			}
			if !isBuiltinAppend(pass, call) || len(call.Args) == 0 {
				continue
			}
			target := types.ExprString(lhs)
			if types.ExprString(call.Args[0]) != target || !escapingSliceTarget(pass, lhs) {
				continue
			}
			if !h.truncated[target] {
				return fmt.Sprintf("append to escaping slice %q without the s = s[:0] reuse discipline", target)
			}
		}
	}
	return ""
}

// escapingSliceTarget reports whether the append destination outlives
// the call: a struct field (selector), an element of one
// (r.stack[order]), or a package-level variable.
func escapingSliceTarget(pass *analysis.Pass, lhs ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return escapingSliceTarget(pass, l.X)
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[l].(*types.Var); ok {
			return v.Parent() == v.Pkg().Scope()
		}
	}
	return false
}

// funcLitEscapes reports whether the FuncLit at the top of the stack
// sits in an escaping position: call argument, return value, struct
// field / composite literal element, channel send, or assignment to a
// non-local destination. A literal bound to a local variable and only
// invoked is stack-allocatable and not reported.
func funcLitEscapes(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	lit := stack[len(stack)-1]
	switch p := stack[len(stack)-2].(type) {
	case *ast.CallExpr:
		// Argument position escapes; an immediately-invoked literal
		// (the call's Fun) is a direct call, not a stored closure.
		return p.Fun != lit
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if _, isSel := lhs.(*ast.SelectorExpr); isSel {
				return true
			}
			if _, isIdx := lhs.(*ast.IndexExpr); isIdx {
				return true
			}
		}
		return false
	}
	return false
}

func isBuiltinMake(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "make"
}

// isPanicOrInvariantCall reports whether call raises: builtin panic or
// internal/invariant's Fail/Failf/Errorf family.
func isPanicOrInvariantCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[f].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[f.Sel].(*types.Func); ok && fn.Pkg() != nil &&
			normalizePkgPath(fn.Pkg().Path()) == modulePath+"/internal/invariant" {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
