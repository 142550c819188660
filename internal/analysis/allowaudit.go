package analysis

import (
	"go/token"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// AllowauditAnalyzer is the stale-directive sweep. Every
// //detsim:allow directive exists to suppress a specific finding; when
// the annotated line stops triggering any analyzer (the code moved,
// the rule changed, the construct was fixed), the directive becomes a
// silent hole that would mask the next real finding on that line. This
// analyzer runs the full suite (via Requires), reads back each
// analyzer's directiveIndex result — in which allowed() marks every
// directive it consumed — and reports directives nothing consumed. It
// runs in every `make lint`, so a stale directive fails the build like
// any other finding.
var AllowauditAnalyzer = &analysis.Analyzer{
	Name: "allowaudit",
	Doc: "report stale //detsim:allow directives\n\n" +
		"A //detsim:allow whose line no longer triggers any detsim\n" +
		"analyzer is a silent suppression hole; this analyzer flags it\n" +
		"for deletion.",
	Requires: allowauditDeps,
	Run:      runAllowaudit,
}

// allowauditDeps is every directive-honouring analyzer in the suite;
// a separate variable so runAllowaudit can iterate it without an
// initialisation cycle through AllowauditAnalyzer.
var allowauditDeps = []*analysis.Analyzer{
	WallclockAnalyzer,
	RandsourceAnalyzer,
	MaporderAnalyzer,
	PanicsiteAnalyzer,
	MetricnameAnalyzer,
	StreamcarveAnalyzer,
	PoolescapeAnalyzer,
	HotpathAnalyzer,
}

func runAllowaudit(pass *analysis.Pass) (interface{}, error) {
	if !strings.HasPrefix(normalizePkgPath(pass.Pkg.Path()), modulePath) {
		return nil, nil
	}

	// Union of directives the suite consumed in this package unit. The
	// indexes key the same *token.File values (one shared FileSet per
	// unit), so (file, line) identity lines up across analyzers.
	used := make(map[*token.File]map[int]bool)
	for _, dep := range allowauditDeps {
		idx, ok := pass.ResultOf[dep].(directiveIndex)
		if !ok {
			continue
		}
		for tf, lines := range idx {
			for line, e := range lines {
				if !e.used {
					continue
				}
				m := used[tf]
				if m == nil {
					m = make(map[int]bool)
					used[tf] = m
				}
				m[line] = true
			}
		}
	}

	type staleDirective struct {
		tf     *token.File
		line   int
		reason string
	}
	var stale []staleDirective
	for tf, lines := range buildDirectiveIndex(pass) {
		if strings.HasSuffix(tf.Name(), "_test.go") {
			// Test files are exempt from every analyzer, so a directive
			// there is decorative, not a suppression hole.
			continue
		}
		for line, e := range lines {
			if used[tf][line] {
				continue
			}
			stale = append(stale, staleDirective{tf: tf, line: line, reason: e.reason})
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		if stale[i].tf.Name() != stale[j].tf.Name() {
			return stale[i].tf.Name() < stale[j].tf.Name()
		}
		return stale[i].line < stale[j].line
	})
	for _, s := range stale {
		pass.Reportf(s.tf.LineStart(s.line),
			"allowaudit: stale //detsim:allow directive (reason: %q) — no detsim analyzer suppressed a finding at this line in this run; the annotated construct is gone, so delete the directive (it would silently mask the next real finding here)",
			s.reason)
	}
	return nil, nil
}
