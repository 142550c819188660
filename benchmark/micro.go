package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// The sweep's fixed settings. 20ms per benchmark keeps the whole sweep
// near 8 s on two cores; five counts give a median and a spread.
const (
	microBenchtime = "20ms"
	microCount     = 5
)

// benchStat summarizes one benchmark's repeated results.
type benchStat struct {
	nsOp, minNsOp, maxNsOp float64
	allocsOp               float64
}

// benchSample is one result line of `go test -bench` output.
type benchSample struct {
	name     string // without the "Benchmark" prefix and "-<procs>" suffix
	nsOp     float64
	allocsOp float64
}

// parseBenchOutput reads the standard text output of `go test -bench
// -benchmem`. Lines that are not benchmark results are skipped.
func parseBenchOutput(r io.Reader) ([]benchSample, error) {
	var out []benchSample
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := benchSample{name: name, allocsOp: -1}
		// After the name and iteration count come "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench output: %q: %w", sc.Text(), err)
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsOp = v
			case "allocs/op":
				s.allocsOp = v
			}
		}
		if s.nsOp == 0 || s.allocsOp < 0 {
			return nil, fmt.Errorf("bench output: %q lacks ns/op or allocs/op (run with -benchmem)", sc.Text())
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// summarize folds repeated samples into median, min and max per name.
func summarize(samples []benchSample) map[string]benchStat {
	ns := map[string][]float64{}
	allocs := map[string][]float64{}
	for _, s := range samples {
		ns[s.name] = append(ns[s.name], s.nsOp)
		allocs[s.name] = append(allocs[s.name], s.allocsOp)
	}
	out := make(map[string]benchStat, len(ns))
	for name, xs := range ns {
		st := benchStat{nsOp: median(xs), minNsOp: xs[0], maxNsOp: xs[0], allocsOp: median(allocs[name])}
		for _, x := range xs {
			st.minNsOp = min(st.minNsOp, x)
			st.maxNsOp = max(st.maxNsOp, x)
		}
		out[name] = st
	}
	return out
}

// microSweep builds each package's test binary into dir and runs its
// benchmarks alone. It returns the stats keyed by metric-name stem.
func microSweep(ctx context.Context, dir string, procs int) (map[string]benchStat, error) {
	out := map[string]benchStat{}
	for _, p := range microBenches {
		bin, err := filepath.Abs(filepath.Join(dir, p.pkg+".test"))
		if err != nil {
			return nil, err
		}
		build := exec.CommandContext(ctx, "go", "test", "-c", "-o", bin, "./internal/"+p.pkg)
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return nil, fmt.Errorf("build %s benchmarks: %w", p.pkg, err)
		}
		var stdout bytes.Buffer
		run := exec.CommandContext(ctx, bin, "-test.run", "^$", "-test.bench", ".", "-test.benchmem",
			"-test.count", strconv.Itoa(microCount), "-test.benchtime", microBenchtime,
			"-test.cpu", strconv.Itoa(procs), "-test.timeout", "120s")
		run.Dir = filepath.Join("internal", p.pkg)
		run.Stdout, run.Stderr = &stdout, os.Stderr
		if err := run.Run(); err != nil {
			return nil, fmt.Errorf("run %s benchmarks: %w", p.pkg, err)
		}
		samples, err := parseBenchOutput(&stdout)
		if err != nil {
			return nil, err
		}
		stats := summarize(samples)
		for _, b := range p.names {
			st, ok := stats[b]
			if !ok {
				return nil, fmt.Errorf("%s: benchmark %s reported no result", p.pkg, b)
			}
			out[benchMetricName(p.pkg, b)] = st
		}
	}
	return out, nil
}
