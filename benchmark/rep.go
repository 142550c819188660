package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hpmmap/internal/experiments"
	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
)

// spawnEnv carries the parent's wall-clock time (Unix ns) just before it
// started the rep process, so the rep can measure its own set-up time.
const spawnEnv = "HPMMAP_BENCH_SPAWN_NS"

// repResult is what one rep process prints as its only line of standard
// output.
type repResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Cells    int    `json:"cells"`
	// Failed counts cells the runner reported failed or quarantined; an
	// entry-point error fails every cell.
	Failed int    `json:"failed"`
	Err    string `json:"err,omitempty"`
	// SetupNS runs from the parent's spawn to the first entry call.
	SetupNS int64 `json:"setup_ns"`
	// WallNS, CPUNS and AllocBytes cover the entry calls only.
	WallNS     int64  `json:"wall_ns"`
	CPUNS      int64  `json:"cpu_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// PeakRSSKB is the process's VmHWM at exit.
	PeakRSSKB uint64 `json:"peak_rss_kb"`
	Digest    string `json:"digest"`
	// Counters holds the merged snapshot's value of every counter a
	// per-layer metric reads.
	Counters map[string]uint64 `json:"counters"`
	// CellWallNS sums the ledger's cell_host wall times (traced reps).
	CellWallNS int64 `json:"cell_wall_ns,omitempty"`
	// ProbeNS is the median pass of the speed probe that ran alongside
	// the simulation (probe.go), in ns per iteration; 0 in a set-up probe.
	ProbeNS float64 `json:"probe_ns"`
}

// repOptions selects what a rep records beyond the timed numbers.
type repOptions struct {
	workers int
	// reduced shrinks the workload (smoke test only).
	reduced bool
	// profile, when set, receives a CPU profile of the entry calls, and
	// turns on the run ledger and the span trace.
	profile string
	// spans receives the Chrome trace of the traced rep.
	spans string
	// setupProbe stops the rep at its first entry call, after reporting the
	// set-up time: a set-up sample that costs no simulation.
	setupProbe bool
}

// runRep runs one workload once in this process and measures it.
func runRep(w workload, seed uint64, o repOptions) repResult {
	res := repResult{Workload: w.name, Seed: seed}
	spawned, _ := strconv.ParseInt(os.Getenv(spawnEnv), 10, 64)

	traced := o.profile != ""
	var led *ledger.Ledger
	var ledBuf bytes.Buffer
	var spans spanLog
	var profFile *os.File
	if traced {
		led = ledger.New(&ledBuf, ledger.Meta{Model: experiments.ModelVersion})
		f, err := os.Create(o.profile)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		profFile = f
	}

	var (
		entered   bool
		stopProbe func() float64
		start     time.Time
		cpu0      int64
		alloc0    uint64
		memStats  runtime.MemStats
	)
	in := input{
		seed:    seed,
		workers: o.workers,
		reduced: o.reduced,
		obs: func() *runner.Observations {
			obs := runner.NewObservations(0)
			obs.SetLedger(led)
			return obs
		},
		enter: func() {
			if !entered {
				entered = true
				if spawned > 0 {
					res.SetupNS = time.Now().UnixNano() - spawned
				}
				if o.setupProbe {
					if err := printRep(res); err != nil {
						os.Exit(1)
					}
					os.Exit(0)
				}
				if traced {
					if err := pprof.StartCPUProfile(profFile); err != nil {
						res.Err = err.Error()
					}
				}
				stopProbe = startProbe()
			}
			runtime.ReadMemStats(&memStats)
			alloc0 = memStats.TotalAlloc
			cpu0 = cpuTimeNS()
			start = time.Now()
			spans.begin(start)
		},
		exit: func() {
			end := time.Now()
			res.WallNS += int64(end.Sub(start))
			res.CPUNS += cpuTimeNS() - cpu0
			runtime.ReadMemStats(&memStats)
			res.AllocBytes += memStats.TotalAlloc - alloc0
			spans.end(end)
		},
	}
	if traced {
		in.progress = spans.progress
	}

	out, err := w.run(in)
	if stopProbe != nil {
		res.ProbeNS = stopProbe()
	}
	if traced {
		pprof.StopCPUProfile()
		if cerr := profFile.Close(); cerr != nil && res.Err == "" {
			res.Err = cerr.Error()
		}
	}
	res.Cells = out.cells
	if err != nil {
		res.Err = ledger.FirstLine(err)
		res.Failed = out.cells
	} else {
		res.Failed = int(out.snap.CounterValue(metrics.RunnerCellsFailedTotal))
		res.Digest = digest(out)
	}
	res.Counters = make(map[string]uint64, len(layerCounters))
	for _, name := range layerCounters {
		res.Counters[name] = out.snap.CounterValue(name)
	}
	res.PeakRSSKB = peakRSSKB()

	if traced {
		if err := led.Close(); err != nil && res.Err == "" {
			res.Err = err.Error()
		}
		recs, err := ledger.Read(&ledBuf)
		if err != nil && res.Err == "" {
			res.Err = err.Error()
		}
		res.CellWallNS = spans.cells(recs)
		if o.spans != "" {
			if err := spans.write(o.spans, w.name); err != nil && res.Err == "" {
				res.Err = err.Error()
			}
		}
	}
	return res
}

// digest is the SHA-256 over the rendered report and the merged metric
// snapshot. The ledger's own bookkeeping counters are left out: they
// exist only when a ledger is attached, and the traced rep must digest
// the same as an untraced one.
func digest(out output) string {
	h := sha256.New()
	h.Write(out.report)
	var kept metrics.Snapshot
	for _, m := range out.snap.Metrics {
		if !strings.HasPrefix(m.Name, "runner_ledger_") {
			kept.Metrics = append(kept.Metrics, m)
		}
	}
	// Writing to a hash never fails.
	_ = kept.WriteText(h)
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTimeNS returns the process's user+system CPU time.
func cpuTimeNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSKB reads VmHWM from /proc/self/status (0 where it is missing).
func peakRSSKB() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// printRep writes the rep's result as its single stdout line.
func printRep(res repResult) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode rep result: %w", err)
	}
	_, err = fmt.Printf("%s\n", data)
	return err
}
