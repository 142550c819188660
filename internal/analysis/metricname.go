package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// metricRegistrationMethods are the metrics.Registry registration entry
// points whose name argument is contract-bound.
var metricRegistrationMethods = map[string]bool{
	"Counter":     true,
	"Histogram":   true,
	"CounterFunc": true,
	"GaugeFunc":   true,
}

// MetricnameAnalyzer enforces the weakest leg of the three-legged
// observability contract (OBSERVABILITY.md table row <-> names.go
// constant <-> source-tree use) at vet time: every metric registration
// call on a metrics.Registry must pass a constant declared in
// internal/metrics (names.go), never a raw string literal and never a
// constant defined elsewhere. Dynamic names (variables, indexed name
// tables) are left to internal/metrics/contract_test.go, which checks
// the registered set at runtime.
var MetricnameAnalyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "require metric registrations to use internal/metrics name constants\n\n" +
		"Registry.Counter/Histogram/CounterFunc/GaugeFunc must be\n" +
		"passed a constant from internal/metrics/names.go so the\n" +
		"OBSERVABILITY.md contract stays closed; string literals and\n" +
		"foreign constants are reported.",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: directiveIndexResult,
	Run:        runMetricname,
}

const metricsPkgPath = modulePath + "/internal/metrics"

func runMetricname(pass *analysis.Pass) (interface{}, error) {
	if !strings.HasPrefix(normalizePkgPath(pass.Pkg.Path()), modulePath) {
		return directiveIndex(nil), nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allow := buildDirectiveIndex(pass)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !metricRegistrationMethods[sel.Sel.Name] || len(call.Args) == 0 {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !isRegistryMethod(fn) {
			return
		}
		if isTestFile(pass.Fset, call.Pos()) {
			return
		}
		if bad, what := offendingNameExpr(pass, call.Args[0]); bad != nil {
			if allow.allowed(pass, call.Pos()) {
				return
			}
			pass.Reportf(bad.Pos(),
				"metricname: %s in %s(...) — metric names must be constants from internal/metrics/names.go (add the constant, the OBSERVABILITY.md row, and the instrumentation together; see OBSERVABILITY.md \"How to add a metric\")",
				what, sel.Sel.Name)
		}
	})
	return allow, nil
}

// isRegistryMethod reports whether fn is a method on
// (*metrics.Registry) from this module's metrics package.
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" || named.Obj().Pkg() == nil {
		return false
	}
	return normalizePkgPath(named.Obj().Pkg().Path()) == metricsPkgPath
}

// offendingNameExpr walks the name-argument expression and returns the
// first sub-expression violating the contract, with a description:
// string literals anywhere, or named constants declared outside
// internal/metrics. Identifiers resolving to metrics-package constants
// and plain variables pass.
func offendingNameExpr(pass *analysis.Pass, e ast.Expr) (ast.Expr, string) {
	var bad ast.Expr
	var what string
	ast.Inspect(e, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.BasicLit:
			if strings.HasPrefix(n.Value, `"`) || strings.HasPrefix(n.Value, "`") {
				bad, what = n, "string literal "+n.Value
			}
			return false
		case *ast.Ident:
			if c, ok := pass.TypesInfo.Uses[n].(*types.Const); ok {
				if c.Pkg() != nil && normalizePkgPath(c.Pkg().Path()) != metricsPkgPath {
					bad, what = n, "constant "+n.Name+" declared outside internal/metrics"
				}
			}
			return false
		case *ast.SelectorExpr:
			if c, ok := pass.TypesInfo.Uses[n.Sel].(*types.Const); ok {
				if c.Pkg() != nil && normalizePkgPath(c.Pkg().Path()) != metricsPkgPath {
					bad, what = n, "constant "+types.ExprString(n)+" declared outside internal/metrics"
				}
				return false
			}
			return true
		}
		return true
	})
	return bad, what
}
