// Command benchmark measures the HPMMAP simulator's host cost on four
// workloads that each stress a different layer, and checks that the
// simulator's output is unchanged while doing so.
//
// Every timed rep is one fresh process running one workload through the
// public internal/experiments entry points, with the observed
// configuration the CLIs use for -metrics: a runner.Observations
// collector, no result cache, no time series, no trace export. Workers
// and GOMAXPROCS are both min(2, NumCPU). A separate traced run adds a
// CPU profile, a run ledger and span recording, and gives the per-layer
// numbers; end-to-end numbers never come from it.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload fig7-grid --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh -aa            # two interleaved sets, gated
//	bash benchmark/run.sh -micro         # package microbenchmarks only
//	bash benchmark/run.sh -update-digests
//
// With --workload, the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). See README.md for the metrics and workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// benchWorkers is both the runner's worker count and GOMAXPROCS of
// every rep.
var benchWorkers = min(2, runtime.NumCPU())

func main() {
	var (
		name       = flag.String("workload", "", "workload to measure; empty runs every workload interleaved, 12 reps each")
		seed       = flag.Uint64("seed", 0, "seed for every workload's options; 0 uses each workload's default")
		seconds    = flag.Int("seconds", 30, "how long one -workload run takes")
		trace      = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
		aa         = flag.Bool("aa", false, "run the whole set twice, interleaved, and fail when the two sets disagree beyond a bound")
		micro      = flag.Bool("micro", false, "run only the package microbenchmark sweep")
		update     = flag.Bool("update-digests", false, "regenerate testdata/digests.json at the default seeds")
		rep        = flag.Bool("rep", false, "run one rep in this process (used by the benchmark itself)")
		workers    = flag.Int("workers", benchWorkers, "rep worker count (used by -update-digests)")
		profile    = flag.String("cpuprofile", "", "traced rep: CPU profile path")
		spansPath  = flag.String("spans", "", "traced rep: Chrome trace path for the spans")
		setupProbe = flag.Bool("setup-probe", false, "rep: stop at the first entry call and report only the set-up time")
	)
	flag.Parse()

	if *rep {
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		runtime.GOMAXPROCS(*workers)
		res := runRep(w, *seed, repOptions{workers: *workers, profile: *profile, spans: *spansPath, setupProbe: *setupProbe})
		if err := printRep(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	// An interrupt or SIGTERM cancels ctx, which kills the running rep or
	// tool process before this one exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *micro:
		err = printMicro(ctx)
	case *update:
		err = updateDigests(ctx)
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		if *trace != 0 && *trace != 1 {
			fatalf("-trace must be 0 or 1")
		}
		var res result
		res, err = measure(ctx, w, *seed, *seconds, *trace == 1)
		if err == nil {
			var data []byte
			data, err = json.Marshal(res)
			if err == nil {
				fmt.Printf("%s\n", data)
			}
		}
	default:
		sets := 1
		if *aa {
			sets = 2
		}
		err = runSets(ctx, *seed, sets)
	}
	if err != nil {
		stop()
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
