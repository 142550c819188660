package cli_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
	"hpmmap/internal/timeline"
)

// The CLIs built by tools: the five experiment CLIs that share the
// artifact layer, plus hpmmap-ledger to diff their snapshots.
var toolNames = []string{
	"hpmmap-bench", "hpmmap-faulttrace", "hpmmap-probe", "hpmmap-sweep", "hpmmap-report",
	"hpmmap-ledger",
}

var (
	buildOnce sync.Once
	binDir    string
	errBuild  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// tool returns the path of a freshly built CLI, building all of them
// on first use.
func tool(t *testing.T, name string) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found; cannot build the CLIs")
	}
	buildOnce.Do(func() {
		if binDir, errBuild = os.MkdirTemp("", "hpmmap-cli-test"); errBuild != nil {
			return
		}
		args := []string{"build", "-o", binDir + string(filepath.Separator)}
		for _, n := range toolNames {
			args = append(args, "hpmmap/cmd/"+n)
		}
		out, err := exec.Command(gobin, args...).CombinedOutput()
		if err != nil {
			errBuild = errors.New(string(out))
		}
	})
	if errBuild != nil {
		t.Fatalf("building the CLIs: %v", errBuild)
	}
	return filepath.Join(binDir, name)
}

// run executes a CLI and returns its stdout, stderr and exit code.
func run(t *testing.T, name string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(tool(t, name), args...)
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("%s: %v", name, err)
	}
	return o.String(), e.String(), code
}

// artifactFlags points all six artifact flags into dir.
func artifactFlags(dir string) []string {
	return []string{
		"-metrics", filepath.Join(dir, "metrics.prom"),
		"-ledger", filepath.Join(dir, "run.jsonl"),
		"-trace-out", filepath.Join(dir, "trace.json"),
		"-series", filepath.Join(dir, "series.csv"),
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof"),
	}
}

// TestEveryCLIWritesEveryArtifact runs each experiment CLI with all six
// artifact flags and checks that each writes the same set of files:
// one metrics, trace and series file per experiment (the experiment
// name spliced in when there are several), one ledger and two
// profiles. A rejected invocation writes none of them.
func TestEveryCLIWritesEveryArtifact(t *testing.T) {
	cases := []struct {
		name, tool string
		args       []string
		// experiments is the per-experiment file suffixes the run must
		// write ("" = the unspliced paths).
		experiments []string
		wantCode    int
		wantStderr  []string
	}{
		{"bench", "hpmmap-bench", []string{"-exp", "fig2", "-scale", "0.1"}, []string{""}, 0, nil},
		{"faulttrace", "hpmmap-faulttrace", []string{"-scale", "0.1", "-no-plot"}, []string{""}, 0, nil},
		{"probe", "hpmmap-probe", []string{"-ranks", "2"}, []string{""}, 0, nil},
		{"sweep", "hpmmap-sweep", []string{"-knob", "thp-frag", "-runs", "1", "-scale", "0.25"}, []string{""}, 0, nil},
		{"report", "hpmmap-report", []string{"-scale", "0.25", "-skip-fig7", "-skip-fig8"},
			[]string{"-fig2", "-fig3", "-attribution"}, 0, nil},
		{"bench unknown -exp", "hpmmap-bench", []string{"-exp", "fig9", "-scale", "0.1"}, nil, 2,
			[]string{`unknown -exp "fig9"`, "fig2, fig3, fig4, fig5, fig7, noise, attribution, fig8, all"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			stdout, stderr, code := run(t, c.tool, append(c.args, artifactFlags(dir)...)...)
			if code != c.wantCode {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.wantCode, stderr)
			}
			for _, want := range c.wantStderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr)
				}
			}
			files, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil {
				t.Fatal(err)
			}
			if c.wantCode != 0 {
				if len(files) != 0 {
					t.Fatalf("a rejected invocation wrote %v", files)
				}
				return
			}
			if stdout == "" {
				t.Error("no stdout")
			}
			want := []string{"run.jsonl", "cpu.pprof", "mem.pprof"}
			for _, e := range c.experiments {
				want = append(want, "metrics"+e+".prom", "trace"+e+".json", "series"+e+".csv")
			}
			var got []string
			for _, f := range files {
				got = append(got, filepath.Base(f))
			}
			if !sameSet(got, want) {
				t.Fatalf("wrote %v, want %v", got, want)
			}
			for _, e := range c.experiments {
				checkMetrics(t, filepath.Join(dir, "metrics"+e+".prom"))
				checkTrace(t, filepath.Join(dir, "trace"+e+".json"))
				checkSeries(t, filepath.Join(dir, "series"+e+".csv"), true)
			}
			checkLedger(t, filepath.Join(dir, "run.jsonl"))
			checkNonEmpty(t, filepath.Join(dir, "cpu.pprof"))
			checkNonEmpty(t, filepath.Join(dir, "mem.pprof"))
		})
	}
}

// TestCutShortRunKeepsPartialArtifacts: a run ended by -timeout or by
// SIGINT exits non-zero and still leaves a parseable partial metrics
// snapshot, its ledger and a CPU profile behind.
func TestCutShortRunKeepsPartialArtifacts(t *testing.T) {
	fig7 := []string{"-exp", "fig7", "-scale", "0.25"}
	t.Run("timeout", func(t *testing.T) {
		dir := t.TempDir()
		args := append(fig7, "-timeout", "300ms",
			"-metrics", filepath.Join(dir, "metrics.prom"), "-cpuprofile", filepath.Join(dir, "cpu.pprof"))
		_, stderr, code := run(t, "hpmmap-bench", args...)
		if code == 0 {
			t.Fatal("a run cut short by -timeout exited 0")
		}
		if !strings.Contains(stderr, "deadline exceeded") {
			t.Errorf("stderr does not name the timeout:\n%s", stderr)
		}
		parseMetrics(t, filepath.Join(dir, "metrics.prom"))
		checkNonEmpty(t, filepath.Join(dir, "cpu.pprof"))
	})
	t.Run("SIGINT", func(t *testing.T) {
		dir := t.TempDir()
		led := filepath.Join(dir, "run.jsonl")
		cmd := exec.Command(tool(t, "hpmmap-bench"), append(fig7, artifactFlags(dir)...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The ledger's manifest is written when the plan begins.
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if data, _ := os.ReadFile(led); bytes.Contains(data, []byte(ledger.TypeManifest)) {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				t.Fatal("the fig7 plan never began")
			}
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		var exit *exec.ExitError
		if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("interrupted run: %v, want exit status 1; stderr:\n%s", err, stderr.String())
		}
		checkMetrics(t, filepath.Join(dir, "metrics.prom"))
		checkTrace(t, filepath.Join(dir, "trace.json"))
		checkSeries(t, filepath.Join(dir, "series.csv"), false)
		checkLedger(t, led)
		checkNonEmpty(t, filepath.Join(dir, "cpu.pprof"))
		checkNonEmpty(t, filepath.Join(dir, "mem.pprof"))
	})
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			return false
		}
	}
	return true
}

func parseMetrics(t *testing.T, path string) metrics.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := metrics.ParseExposition(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return snap
}

// checkMetrics: the snapshot parses, holds metrics, and diffs clean
// against itself through hpmmap-ledger's drift gate.
func checkMetrics(t *testing.T, path string) {
	t.Helper()
	if len(parseMetrics(t, path).Metrics) == 0 {
		t.Errorf("%s holds no metrics", path)
	}
	if out, stderr, code := run(t, "hpmmap-ledger", "diff", path, path); code != 0 {
		t.Errorf("hpmmap-ledger diff %s against itself: exit %d\n%s%s", path, code, out, stderr)
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Errorf("%s is not valid JSON", path)
	}
}

// checkSeries: the CSV starts with the series header and, when
// wantRows, carries samples.
func checkSeries(t *testing.T, path string, wantRows bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != timeline.SeriesCSVHeader {
		t.Errorf("%s does not start with the series header %q", path, timeline.SeriesCSVHeader)
	}
	if wantRows && !sc.Scan() {
		t.Errorf("%s holds no samples", path)
	}
}

// checkLedger: the ledger reads back and journals at least one plan.
func checkLedger(t *testing.T, path string) {
	t.Helper()
	recs, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].T != ledger.TypeManifest {
		t.Errorf("%s journals no plan", path)
	}
}

func checkNonEmpty(t *testing.T, path string) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Errorf("%s is empty", path)
	}
}
