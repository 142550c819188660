package cli_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
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

// The CLIs built by tools: the two experiment CLIs that share the
// artifact layer, plus hpmmap-ledger to diff their snapshots.
var toolNames = []string{"hpmmap-bench", "hpmmap-report", "hpmmap-ledger"}

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
		if errBuild = readSources(); errBuild != nil {
			return
		}
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

// readSources reads every non-test .go file of the module. go test
// keys its cached result on the files the test process opens, not on
// those the child go build reads, so without this an edit to a CLI or
// a package it imports would replay a stale pass.
func readSources() error {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return err
	}
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "vendor" || name == "testdata" || name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		_, err = os.ReadFile(path)
		return err
	})
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

// The names hpmmap-bench's -exp and -study take, as a rejected value
// lists them.
const (
	expNames   = "fig2, fig3, fig4, fig5, fig7, noise, attribution, fig8, all"
	studyNames = "chaos, datacenter, eviction, probe, faulttrace, sweep"
)

// TestEveryCLIWritesEveryArtifact runs each experiment CLI with all six
// artifact flags and checks that each writes the same set of files:
// one metrics, trace and series file per experiment (the experiment
// name spliced in when there are several), one ledger and two
// profiles. A rejected invocation writes none of them. Every -exp and
// -study name but "all" has a success case.
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
		{"fig3", "hpmmap-bench", []string{"-exp", "fig3", "-scale", "0.1"}, []string{""}, 0, nil},
		{"fig4", "hpmmap-bench", []string{"-exp", "fig4", "-scale", "0.1"}, []string{""}, 0, nil},
		{"fig5", "hpmmap-bench", []string{"-exp", "fig5", "-scale", "0.1"}, []string{""}, 0, nil},
		{"fig7", "hpmmap-bench", []string{"-exp", "fig7", "-bench", "miniMD", "-cores", "1,2", "-runs", "1", "-scale", "0.05"}, []string{""}, 0, nil},
		{"fig8", "hpmmap-bench", []string{"-exp", "fig8", "-bench", "LAMMPS", "-runs", "1", "-scale", "0.05"}, []string{""}, 0, nil},
		{"noise", "hpmmap-bench", []string{"-exp", "noise", "-scale", "0.25"}, []string{""}, 0, nil},
		{"attribution", "hpmmap-bench", []string{"-exp", "attribution", "-scale", "0.25"}, []string{""}, 0, nil},
		{"chaos", "hpmmap-bench", []string{"-study", "chaos", "-scale", "0.1", "-runs", "1", "-cores", "2", "-intensities", "0,1"}, []string{""}, 0, nil},
		{"datacenter", "hpmmap-bench", []string{"-study", "datacenter", "-scale", "0.1", "-runs", "1", "-cores", "2", "-churns", "0,50", "-intensities", "0"}, []string{""}, 0, nil},
		// Overcommit 1 only: with -trace-out, a 1.5x cell records ~134 M
		// reclaim events.
		{"eviction", "hpmmap-bench", []string{"-study", "eviction", "-scale", "0.1", "-runs", "1", "-cores", "2", "-overcommits", "1", "-intensities", "0"}, []string{""}, 0, nil},
		{"faulttrace", "hpmmap-bench", []string{"-study", "faulttrace", "-scale", "0.1", "-plot-height", "0"}, []string{""}, 0, nil},
		{"probe", "hpmmap-bench", []string{"-study", "probe", "-cores", "2"}, []string{""}, 0, nil},
		{"sweep", "hpmmap-bench", []string{"-study", "sweep", "-knob", "thp-frag", "-runs", "1", "-scale", "0.25"}, []string{""}, 0, nil},
		{"sweep -cores 2", "hpmmap-bench", []string{"-study", "sweep", "-knob", "thp-frag", "-runs", "1", "-scale", "0.1", "-cores", "2"}, []string{""}, 0, nil},
		{"report", "hpmmap-report", []string{"-scale", "0.25", "-skip-fig7", "-skip-fig8"},
			[]string{"-fig2", "-fig3", "-noise", "-attribution"}, 0, nil},
		{"bench unknown -exp", "hpmmap-bench", []string{"-exp", "fig9", "-scale", "0.1"}, nil, 2,
			[]string{`unknown -exp "fig9"`, expNames}},
		{"bench unknown -study", "hpmmap-bench", []string{"-study", "storm"}, nil, 2,
			[]string{`unknown -study "storm"`, studyNames}},
		{"sweep unknown -profile", "hpmmap-bench", []string{"-study", "sweep", "-profile", "7"}, nil, 2,
			[]string{`unknown -profile "7"`, "none, A, B"}},
		{"probe unknown -manager", "hpmmap-bench", []string{"-study", "probe", "-manager", "2"}, nil, 2,
			[]string{`unknown -manager "2"`, "thp, hugetlbfs, hpmmap"}},
		{"faulttrace refuses hpmmap", "hpmmap-bench", []string{"-study", "faulttrace", "-manager", "hpmmap"}, nil, 2,
			[]string{`unknown manager "hpmmap"`, "nothing to trace"}},
		{"sweep unknown -knob", "hpmmap-bench", []string{"-study", "sweep", "-knob", "nosuch"}, nil, 2,
			[]string{`unknown -knob "nosuch"`, "thp-frag, reclaim-prob, reclaim-tail, merge-period, store-cycles, mem-latency, all"}},
		{"faulttrace unknown -hist", "hpmmap-bench", []string{"-study", "faulttrace", "-hist", "stack"}, nil, 2,
			[]string{`unknown -hist "stack"`, "small, large, merge, hugetlb-large, hugetlb-small"}},
		{"datacenter negative -runs", "hpmmap-bench", []string{"-study", "datacenter", "-runs", "-1", "-scale", "0.1"}, nil, 2,
			[]string{"bad -runs -1"}},
		{"fig7 negative -runs", "hpmmap-bench", []string{"-exp", "fig7", "-runs", "-2"}, nil, 2,
			[]string{"bad -runs -2"}},
		{"bench negative -scale", "hpmmap-bench", []string{"-study", "datacenter", "-scale", "-1"}, nil, 2,
			[]string{"bad -scale -1"}},
		{"bench NaN -scale", "hpmmap-bench", []string{"-exp", "fig2", "-scale", "NaN"}, nil, 2,
			[]string{"bad -scale NaN"}},
		{"bench infinite -scale", "hpmmap-bench", []string{"-exp", "fig2", "-scale", "+Inf"}, nil, 2,
			[]string{"bad -scale +Inf"}},
		{"report negative -runs", "hpmmap-report", []string{"-runs", "-1"}, nil, 2,
			[]string{"bad -runs -1"}},
		{"report negative -scale", "hpmmap-report", []string{"-scale", "-0.5"}, nil, 2,
			[]string{"bad -scale -0.5"}},
		{"report NaN -scale", "hpmmap-report", []string{"-scale", "NaN"}, nil, 2,
			[]string{"bad -scale NaN"}},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		for i := 0; c.tool == "hpmmap-bench" && c.wantCode == 0 && i+1 < len(c.args); i++ {
			covered[c.args[i]+" "+c.args[i+1]] = true
		}
	}
	for flagName, names := range map[string]string{"-exp": expNames, "-study": studyNames} {
		for _, name := range strings.Split(names, ", ") {
			if name != "all" && !covered[flagName+" "+name] {
				t.Errorf("hpmmap-bench %s %s has no success case", flagName, name)
			}
		}
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

// TestOutCSVsMatchGolden runs both weak-scaling figures with -out at a
// small scale and compares each CSV with its committed golden, byte for
// byte. Fig. 8 runs LAMMPS, the one benchmark whose cluster input fits
// the pools below full scale. Regenerate a golden (only for a change
// that deliberately alters a result and says so) by running the case's
// arguments with -out testdata and renaming the CSV to <name>.golden.
func TestOutCSVsMatchGolden(t *testing.T) {
	cases := []struct {
		csv  string
		args []string
	}{
		{"fig7.csv", []string{"-exp", "fig7", "-bench", "miniMD", "-cores", "1,2", "-runs", "1", "-scale", "0.05"}},
		{"fig8.csv", []string{"-exp", "fig8", "-bench", "LAMMPS", "-runs", "1", "-scale", "0.05"}},
	}
	for _, c := range cases {
		t.Run(c.csv, func(t *testing.T) {
			dir := t.TempDir()
			if _, stderr, code := run(t, "hpmmap-bench", append(c.args, "-out", dir)...); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr)
			}
			got, err := os.ReadFile(filepath.Join(dir, c.csv))
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", c.csv+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s diverged from %s\n--- got ---\n%s\n--- want ---\n%s", c.csv, golden, got, want)
			}
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
