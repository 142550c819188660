package analysis

import (
	"bufio"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPanicAllowlistMatchesDesignTable cross-checks the panicsite
// allowlist against the audit table in DESIGN.md §8: for every
// subsystem row, the "programmer errors (plain panic)" count must equal
// the number of sanctioned sites the allowlist carries for that
// package, and the totals must both be 18. Whoever sanctions a new
// programmer-error panic updates both together (see ANALYSIS.md).
func TestPanicAllowlistMatchesDesignTable(t *testing.T) {
	fromDoc := parseDesignPanicTable(t, "../../DESIGN.md")
	fromList := panicAllowlistBySubsystem()

	totalDoc, totalList := 0, 0
	for pkg, n := range fromDoc {
		totalDoc += n
		if fromList[pkg] != n {
			t.Errorf("DESIGN.md §8 sanctions %d plain-panic site(s) in %s, allowlist has %d", n, pkg, fromList[pkg])
		}
	}
	for pkg, n := range fromList {
		totalList += n
		if _, ok := fromDoc[pkg]; !ok {
			t.Errorf("allowlist sanctions %d site(s) in %s but DESIGN.md §8 has no such row", n, pkg)
		}
	}
	if totalDoc != 18 || totalList != 18 {
		t.Errorf("sanctioned programmer-error sites: DESIGN.md=%d allowlist=%d, want 18 (the §8 audit total)", totalDoc, totalList)
	}
}

// designRowRE matches §8 audit-table rows such as
//
//	| `internal/mem` (zone, node, freelist) | 5 — ... | 6 — ... |
//
// capturing the package path and the programmer-error cell.
var designRowRE = regexp.MustCompile("^\\|\\s*`(internal/[a-z]+)`[^|]*\\|[^|]*\\|\\s*([^|]+)\\|")

func parseDesignPanicTable(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening DESIGN.md: %v", err)
	}
	defer f.Close()

	out := make(map[string]int)
	in8 := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in8 = strings.HasPrefix(line, "## 8.")
			continue
		}
		if !in8 {
			continue
		}
		m := designRowRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cell := strings.TrimSpace(m[2])
		n := 0
		if cell != "—" && cell != "" {
			lead := cell
			if i := strings.IndexAny(cell, " —"); i > 0 {
				lead = cell[:i]
			}
			n, err = strconv.Atoi(strings.TrimSpace(lead))
			if err != nil {
				t.Fatalf("DESIGN.md §8 row for %s: cannot parse programmer-error count from %q", m[1], cell)
			}
		}
		if n > 0 {
			out[modulePath+"/"+m[1]] = n
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("found no §8 audit-table rows in DESIGN.md — did the table move out of section 8?")
	}
	return out
}

// panicAllowlistBySubsystem mirrors the DESIGN.md §8 "programmer
// errors" column for the regression test: package path -> sanctioned
// site count.
func panicAllowlistBySubsystem() map[string]int {
	out := make(map[string]int)
	for key, n := range panicAllowlist {
		// key is "path/to/pkg.Func[...]" — the package path is
		// everything before the first '.' after the last '/'.
		slash := -1
		for i := len(key) - 1; i >= 0; i-- {
			if key[i] == '/' {
				slash = i
				break
			}
		}
		dot := slash
		for i := slash + 1; i < len(key); i++ {
			if key[i] == '.' {
				dot = i
				break
			}
		}
		out[key[:dot]] += n
	}
	return out
}
