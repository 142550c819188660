package analysis

import (
	"path/filepath"
	"strings"
	"testing"

	"hpmmap/internal/analysis/atest"
)

// Golden-testdata coverage: every analyzer is run over packages
// containing both positive (// want) and allowlisted/exempt-negative
// cases. The testdata packages are type-checked under real
// hpmmap/internal/... import paths, so the package-classification
// logic is exercised exactly as it is under `go vet -vettool`.

func TestWallclockSimPackage(t *testing.T) {
	atest.Run(t, "testdata", WallclockAnalyzer, "hpmmap/internal/kernel")
}

func TestWallclockAllowlistedPackage(t *testing.T) {
	atest.Run(t, "testdata", WallclockAnalyzer, "hpmmap/internal/runner")
}

// TestWallclockLedgerHostAnnexExempt: internal/ledger is a sim package
// whose host.go (the host-annex writer) is the one file-scoped clock
// exemption; the seeded violations in ledger.go prove the exemption
// does not leak to the canonical side.
func TestWallclockLedgerHostAnnexExempt(t *testing.T) {
	atest.Run(t, "testdata", WallclockAnalyzer, "hpmmap/internal/ledger")
}

func TestRandsource(t *testing.T) {
	atest.Run(t, "testdata", RandsourceAnalyzer, "hpmmap/internal/workload")
}

func TestRandsourceSimExempt(t *testing.T) {
	atest.Run(t, "testdata", RandsourceAnalyzer, "hpmmap/internal/sim")
}

func TestMaporder(t *testing.T) {
	atest.Run(t, "testdata", MaporderAnalyzer, "hpmmap/internal/experiments")
}

func TestPanicsite(t *testing.T) {
	atest.Run(t, "testdata", PanicsiteAnalyzer, "hpmmap/internal/mem")
}

func TestPanicsiteInvariantExempt(t *testing.T) {
	atest.Run(t, "testdata", PanicsiteAnalyzer, "hpmmap/internal/invariant")
}

func TestMetricname(t *testing.T) {
	atest.Run(t, "testdata", MetricnameAnalyzer, "hpmmap/internal/tlb")
}

// streamcarve: one golden package per failure mode of the carve-order
// contract, plus the clean committed form and the escape hatch.

func TestStreamcarveParentDrawBetweenCarves(t *testing.T) {
	atest.Run(t, "testdata", StreamcarveAnalyzer, "hpmmap/internal/chaos")
}

func TestStreamcarveOrderMismatch(t *testing.T) {
	atest.Run(t, "testdata", StreamcarveAnalyzer, "hpmmap/internal/linuxmm")
}

func TestStreamcarveLostSequence(t *testing.T) {
	atest.Run(t, "testdata", StreamcarveAnalyzer, "hpmmap/internal/core")
}

func TestStreamcarveCleanCommittedForm(t *testing.T) {
	atest.Run(t, "testdata", StreamcarveAnalyzer, "hpmmap/internal/thp")
}

func TestStreamcarveUnregisteredSite(t *testing.T) {
	atest.Run(t, "testdata", StreamcarveAnalyzer, "hpmmap/internal/cluster")
}

func TestStreamcarveExtraTail(t *testing.T) {
	atest.Run(t, "testdata", StreamcarveAnalyzer, "hpmmap/internal/datacenter")
}

func TestPoolescape(t *testing.T) {
	atest.Run(t, "testdata", PoolescapeAnalyzer, "hpmmap/internal/hugetlb")
}

func TestPoolescapeOwnerPackageExempt(t *testing.T) {
	// The sealed type's own package holds pooled pointers freely: its
	// pool mechanics are the ownership the seal protects.
	atest.Run(t, "testdata", PoolescapeAnalyzer, "hpmmap/internal/vma")
}

func TestHotpath(t *testing.T) {
	atest.Run(t, "testdata", HotpathAnalyzer, "hpmmap/internal/buddy")
}

// allowaudit reports on the //detsim:allow line itself, where a
// // want comment cannot coexist with the directive — so this test
// asserts on raw diagnostics instead of golden comments.
func TestAllowaudit(t *testing.T) {
	diags := atest.Diagnostics(t, "testdata", AllowauditAnalyzer, "hpmmap/internal/pgtable")
	if len(diags) != 1 {
		t.Fatalf("allowaudit returned %d diagnostics, want exactly 1 (the stale directive): %+v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "stale //detsim:allow directive") ||
		!strings.Contains(d.Message, "doc example: nothing here needs suppressing") {
		t.Errorf("unexpected stale-directive message: %s", d.Message)
	}
	if filepath.Base(d.File) != "allowaudit.go" || d.Line != 21 {
		t.Errorf("stale directive reported at %s:%d, want allowaudit.go:21", d.File, d.Line)
	}
}

// The suite must stay stable in name and order: hpmmap-vet's findings
// (and CI baselines) key off analyzer names.
func TestSuiteComposition(t *testing.T) {
	want := []string{
		"wallclock", "randsource", "maporder", "panicsite", "metricname",
		"streamcarve", "poolescape", "hotpath", "allowaudit",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
}
