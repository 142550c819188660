// Package analysis is the detsim suite: go/analysis analyzers that
// turn this repository's determinism and invariant conventions into
// machine-checked law. The discrete-event simulation must be
// bit-reproducible — every figure, metrics snapshot, and chaos-study
// table byte-identical across worker counts, cache states, and machines
// — and the analyzers reject the constructs that silently break that
// contract:
//
//   - wallclock:   no time.Now/Since/Sleep/Tick/... in simulation packages
//   - randsource:  all randomness flows through internal/sim's tagged
//     SplitMix64 streams, never math/rand or crypto/rand
//   - maporder:    no order-sensitive work inside `for range map`
//   - panicsite:   simulated-state packages raise invariant.Fail*, not
//     raw panic (the sanctioned programmer-error sites are allowlisted)
//   - metricname:  metric registration uses internal/metrics/names.go
//     constants, never string literals
//   - streamcarve: rand.Split() carve sites follow the committed
//     append-only substream registry (streamcarve_registry.go)
//   - poolescape:  pooled simulation objects (DESIGN.md §11) are held
//     only by the sanctioned, reap-disciplined holders
//   - hotpath:     //detsim:hotpath functions stay free of allocating
//     constructs (DESIGN.md §10)
//   - allowaudit:  no stale //detsim:allow directive: each one still
//     suppresses a finding
//
// The suite runs as `cmd/hpmmap-vet` (a go/analysis unitchecker driven
// by `go vet -vettool=`) and as the `lint` leg of `make verify`. Every
// analyzer honours a shared escape hatch: a `//detsim:allow <reason>`
// comment on the flagged line (or the line directly above it) silences
// the finding; an allow directive with no reason is itself a finding.
// See ANALYSIS.md for the full contract and maintenance recipes.
package analysis

import (
	"go/ast"
	"go/token"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// modulePath is the import-path prefix of this module. Package
// classification is exact-path based so the analyzers behave
// identically under `go vet -vettool` (real packages) and under the
// golden-testdata harness (which type-checks testdata packages under
// these same import paths).
const modulePath = "hpmmap"

// simPackages are the simulated-state packages: everything that runs
// under the discrete-event engine and contributes to figure/metrics
// artifacts. Wall-clock reads, foreign randomness, and raw panics are
// forbidden here.
var simPackages = map[string]bool{
	modulePath + "/internal/sim":         true,
	modulePath + "/internal/mem":         true,
	modulePath + "/internal/buddy":       true,
	modulePath + "/internal/kernel":      true,
	modulePath + "/internal/linuxmm":     true,
	modulePath + "/internal/thp":         true,
	modulePath + "/internal/hugetlb":     true,
	modulePath + "/internal/core":        true,
	modulePath + "/internal/pgtable":     true,
	modulePath + "/internal/tlb":         true,
	modulePath + "/internal/vma":         true,
	modulePath + "/internal/fault":       true,
	modulePath + "/internal/cluster":     true,
	modulePath + "/internal/workload":    true,
	modulePath + "/internal/experiments": true,
	modulePath + "/internal/chaos":       true,
	modulePath + "/internal/invariant":   true,
	modulePath + "/internal/datacenter":  true,
	modulePath + "/internal/ledger":      true,
}

// isSimPackage reports whether path is a simulated-state package.
// Test binaries type-check as "pkg.test"/"pkg_test" variants; strip
// the suffixes go/packages and unitchecker synthesise.
func isSimPackage(path string) bool {
	return simPackages[normalizePkgPath(path)]
}

// isSimPackageNonTest is isSimPackage restricted to the non-test
// compilation: external test packages ("pkg_test") and synthesized
// test-main packages ("pkg.test") are exempt, but in-package test files
// are indistinguishable at the package level and are handled per-file
// by callers via isTestFile.
func normalizePkgPath(path string) string {
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

// isTestFile reports whether the file at pos is a _test.go file.
// Determinism law binds the simulator, not its tests: tests may use
// wall-clock timeouts, ad-hoc names, and raw panics freely.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// --- //detsim:allow directive -------------------------------------------

// allowDirective is the shared escape hatch. Grammar:
//
//	//detsim:allow <reason>
//
// placed either at the end of the flagged line or alone on the line
// immediately above it. The reason is mandatory; an empty reason is
// reported by every analyzer (the directive is itself linted).
const allowPrefix = "//detsim:allow"

// directiveEntry is one //detsim:allow occurrence. used is set when any
// analyzer consults the entry and suppresses a finding because of it —
// the allowaudit analyzer reads the flag back through each analyzer's
// directiveIndex result to flag stale directives.
type directiveEntry struct {
	reason string
	used   bool
}

// directiveIndex maps file -> line -> directive. Every detsim analyzer
// returns its index as its go/analysis result (directiveIndexResult) so
// allowaudit can aggregate consumption across the suite.
type directiveIndex map[*token.File]map[int]*directiveEntry

// directiveIndexResult is the shared ResultType of the detsim
// analyzers.
var directiveIndexResult = reflect.TypeOf(directiveIndex(nil))

// buildDirectiveIndex scans every comment in the pass's files once.
func buildDirectiveIndex(pass *analysis.Pass) directiveIndex {
	idx := make(directiveIndex)
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := c.Text[len(allowPrefix):]
				reason := strings.TrimSpace(rest)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					// "//detsim:allowother" is not the directive.
					continue
				}
				m := idx[tf]
				if m == nil {
					m = make(map[int]*directiveEntry)
					idx[tf] = m
				}
				m[tf.Line(c.Pos())] = &directiveEntry{reason: reason}
			}
		}
	}
	return idx
}

// allowed reports whether the node at pos carries (or is directly
// preceded by) a //detsim:allow directive, marking the directive as
// consumed. If the directive exists but has no reason, it reports the
// malformed directive through pass and still suppresses the original
// finding (one actionable message per site, not two).
func (idx directiveIndex) allowed(pass *analysis.Pass, pos token.Pos) bool {
	tf := pass.Fset.File(pos)
	if tf == nil {
		return false
	}
	m := idx[tf]
	if m == nil {
		return false
	}
	line := tf.Line(pos)
	for _, l := range [2]int{line, line - 1} {
		if e, ok := m[l]; ok {
			e.used = true
			if e.reason == "" {
				pass.Reportf(pos, "detsim:allow directive requires a reason: //detsim:allow <why this site is exempt>")
			}
			return true
		}
	}
	return false
}

// funcDisplayName renders the enclosing function of a node as the
// allowlist key used by panicsite: "Func" for plain functions,
// "Type.Method" for methods (pointer receivers included, without the
// star). Returns "" when the node is not inside a function declaration
// (package-level var initialisers).
func funcDisplayName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			return fd.Name.Name
		}
		t := fd.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
	return ""
}

// Analyzers returns the full detsim suite in stable order. allowaudit
// runs last: it depends on every other analyzer's directiveIndex
// result.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		WallclockAnalyzer,
		RandsourceAnalyzer,
		MaporderAnalyzer,
		PanicsiteAnalyzer,
		MetricnameAnalyzer,
		StreamcarveAnalyzer,
		PoolescapeAnalyzer,
		HotpathAnalyzer,
		AllowauditAnalyzer,
	}
}
