// Command hpmmap-ledger is the cross-run observability tool over run
// ledgers (internal/ledger JSONL journals) and metrics snapshots:
//
//	hpmmap-ledger summary run.jsonl
//	    Per-plan rollup: cell outcomes, timeout/cache traffic,
//	    host wall/alloc totals, and the straggler-cell table.
//
//	hpmmap-ledger diff [-regress-pct P] old new
//	    Cross-run deltas with a regression gate (exit 1 when tripped).
//	    Two ledgers (.jsonl): canonical status regressions always trip;
//	    host wall deltas are report-only. Two snapshots (.prom via OpenMetrics,
//	    .json via WriteJSON): any per-metric change beyond -regress-pct,
//	    or a metric appearing/disappearing, trips — two runs of the
//	    same deterministic workload must match exactly, so any delta is
//	    model drift.
//
//	hpmmap-ledger watch run.jsonl
//	    tail -f–style live follow of a grid in flight.
//
// Exit codes: 0 clean, 1 regression gate tripped, 2 usage or I/O
// error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	tripped := false
	switch os.Args[1] {
	case "summary":
		fs := flag.NewFlagSet("summary", flag.ExitOnError)
		stragglers := fs.Int("stragglers", 5, "slowest cells to list per plan")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: hpmmap-ledger summary [-stragglers N] <run.jsonl>")
			os.Exit(2)
		}
		err = summary(os.Stdout, fs.Arg(0), *stragglers)
	case "diff":
		fs := flag.NewFlagSet("diff", flag.ExitOnError)
		pct := fs.Float64("regress-pct", 10, "regression gate threshold, percent")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: hpmmap-ledger diff [-regress-pct P] <old> <new>")
			os.Exit(2)
		}
		tripped, err = diffFiles(os.Stdout, fs.Arg(0), fs.Arg(1), *pct)
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		poll := fs.Duration("poll", 500*time.Millisecond, "poll interval")
		once := fs.Bool("once", false, "print current contents and exit instead of following")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: hpmmap-ledger watch [-poll D] [-once] <run.jsonl>")
			os.Exit(2)
		}
		err = watch(os.Stdout, fs.Arg(0), *poll, *once)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpmmap-ledger:", err)
		os.Exit(2)
	}
	if tripped {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hpmmap-ledger <command> [flags] <args>

commands:
  summary <run.jsonl>                      per-plan rollup + straggler table
  diff [-regress-pct P] <old> <new>        cross-run deltas, exit 1 on regression
  watch [-poll D] [-once] <run.jsonl>      tail -f-style live follow`)
}

// planStats is one plan's rollup, folded from its record span.
type planStats struct {
	name                    string
	model                   string
	scale                   float64
	cells                   int
	workers                 int
	ok, quarantined, failed int
	timeouts                int
	cacheHits, cacheMisses  int
	wallUS                  int64
	allocBytes              uint64
	labels                  map[int]string
	cellWallUS              map[int]int64
	cellStatus              map[int]string
}

// fold groups records into per-plan rollups, in manifest order.
// Records before the first manifest (there are none in well-formed
// ledgers) are ignored. Also returns the ledger-wide cache-corrupt
// tally.
func fold(recs []ledger.Record) (plans []*planStats, corrupt uint64) {
	var cur *planStats
	for _, r := range recs {
		switch r.T {
		case ledger.TypeManifest:
			cur = &planStats{
				name: r.Plan, model: r.Model, scale: r.Scale, cells: r.Cells,
				labels:     make(map[int]string),
				cellWallUS: make(map[int]int64),
				cellStatus: make(map[int]string),
			}
			plans = append(plans, cur)
		case ledger.TypeCacheCorrupt:
			corrupt += r.Count
		}
		if cur == nil {
			continue
		}
		switch r.T {
		case ledger.TypeHostManifest:
			cur.workers = r.Workers
		case ledger.TypeCellStart:
			cur.labels[r.I] = r.Label
		case ledger.TypeCellFinish:
			cur.cellStatus[r.I] = r.Status
		case ledger.TypePlanEnd:
			cur.ok, cur.quarantined, cur.failed = r.OK, r.Quarantined, r.Failed
		case ledger.TypeCellHost:
			cur.cellWallUS[r.I] = r.WallUS
			cur.wallUS += r.WallUS
			cur.allocBytes += r.AllocBytes
		case ledger.TypeCellTimeout:
			cur.timeouts++
		case ledger.TypeCacheHit:
			cur.cacheHits++
		case ledger.TypeCacheMiss:
			cur.cacheMisses++
		}
	}
	return plans, corrupt
}

func summary(w io.Writer, path string, stragglers int) error {
	recs, err := ledger.ReadFile(path)
	if err != nil {
		return err
	}
	plans, corrupt := fold(recs)
	if len(plans) == 0 {
		fmt.Fprintln(w, "no plans journaled")
		return nil
	}
	for _, p := range plans {
		fmt.Fprintf(w, "plan %s: %d cells (%d ok, %d quarantined, %d failed)",
			p.name, p.cells, p.ok, p.quarantined, p.failed)
		if p.model != "" {
			fmt.Fprintf(w, ", model %s", p.model)
		}
		if p.scale != 0 {
			fmt.Fprintf(w, ", scale %g", p.scale)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  timeouts %d, cache %d hits / %d misses\n",
			p.timeouts, p.cacheHits, p.cacheMisses)
		if p.wallUS > 0 {
			fmt.Fprintf(w, "  host: workers %d, wall %s, alloc %s\n",
				p.workers, (time.Duration(p.wallUS) * time.Microsecond).Round(time.Millisecond),
				formatBytes(p.allocBytes))
		}
		// Straggler table: the cells that dominated the host wall clock.
		type cw struct {
			i  int
			us int64
		}
		var cells []cw
		for i, us := range p.cellWallUS {
			cells = append(cells, cw{i, us})
		}
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].us != cells[b].us {
				return cells[a].us > cells[b].us
			}
			return cells[a].i < cells[b].i
		})
		if len(cells) > stragglers {
			cells = cells[:stragglers]
		}
		if len(cells) > 0 {
			fmt.Fprintln(w, "  slowest cells:")
			for _, c := range cells {
				label := p.labels[c.i]
				status := p.cellStatus[c.i]
				marker := ""
				if status != "" && status != ledger.StatusOK {
					marker = " [" + status + "]"
				}
				fmt.Fprintf(w, "    #%-4d %10s  %s%s\n", c.i,
					(time.Duration(c.us) * time.Microsecond).Round(time.Millisecond), label, marker)
			}
		}
	}
	if corrupt > 0 {
		fmt.Fprintf(w, "cache corrupt entries: %d\n", corrupt)
	}
	return nil
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// diffFiles dispatches on extension: .jsonl ledgers diff by canonical
// outcome; .prom/.json snapshots diff per metric.
func diffFiles(w io.Writer, oldPath, newPath string, pct float64) (bool, error) {
	oldKind, newKind := fileKind(oldPath), fileKind(newPath)
	if oldKind != newKind {
		return false, fmt.Errorf("cannot diff %s against %s (extensions disagree)", oldPath, newPath)
	}
	switch oldKind {
	case "ledger":
		a, err := ledger.ReadFile(oldPath)
		if err != nil {
			return false, err
		}
		b, err := ledger.ReadFile(newPath)
		if err != nil {
			return false, err
		}
		return diffLedgers(w, a, b), nil
	case "snapshot":
		a, err := readSnapshot(oldPath)
		if err != nil {
			return false, err
		}
		b, err := readSnapshot(newPath)
		if err != nil {
			return false, err
		}
		return diffSnapshots(w, a, b, pct), nil
	}
	return false, fmt.Errorf("%s: unsupported extension (want .jsonl, .prom or .json)", oldPath)
}

func fileKind(path string) string {
	switch {
	case strings.HasSuffix(path, ".jsonl"):
		return "ledger"
	case strings.HasSuffix(path, ".prom"), strings.HasSuffix(path, ".json"):
		return "snapshot"
	}
	return ""
}

func readSnapshot(path string) (metrics.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".prom") {
		return metrics.ParseExposition(f)
	}
	var s metrics.Snapshot
	if err := json.NewDecoder(f).Decode(&s); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// diffSnapshots prints per-metric deltas and reports whether the gate
// tripped: a metric changed beyond pct percent, appeared, or
// disappeared. Histograms compare on count and sum. Deterministic
// workloads must produce identical snapshots, so identical inputs
// print nothing and exit clean.
func diffSnapshots(w io.Writer, a, b metrics.Snapshot, pct float64) bool {
	tripped := false
	names := map[string]bool{}
	am := map[string]metrics.Metric{}
	bm := map[string]metrics.Metric{}
	var order []string
	for _, m := range a.Metrics {
		am[m.Name] = m
		if !names[m.Name] {
			names[m.Name] = true
			order = append(order, m.Name)
		}
	}
	for _, m := range b.Metrics {
		bm[m.Name] = m
		if !names[m.Name] {
			names[m.Name] = true
			order = append(order, m.Name)
		}
	}
	sort.Strings(order)
	check := func(name string, oldV, newV float64) {
		if oldV == newV {
			return
		}
		deltaPct := 100.0
		if oldV != 0 {
			deltaPct = 100 * (newV - oldV) / oldV
		}
		marker := ""
		if deltaPct > pct || deltaPct < -pct {
			marker = "  << beyond ±" + fmt.Sprintf("%g%%", pct)
			tripped = true
		}
		fmt.Fprintf(w, "%-44s %14s -> %-14s %+8.2f%%%s\n", name,
			trimFloat(oldV), trimFloat(newV), deltaPct, marker)
	}
	for _, name := range order {
		ma, inA := am[name]
		mb, inB := bm[name]
		switch {
		case !inA:
			fmt.Fprintf(w, "%-44s appeared (%s)\n", name, mb.Kind)
			tripped = true
		case !inB:
			fmt.Fprintf(w, "%-44s disappeared (%s)\n", name, ma.Kind)
			tripped = true
		case ma.Kind == metrics.KindHistogram || mb.Kind == metrics.KindHistogram:
			check(name+"/count", float64(ma.Count), float64(mb.Count))
			check(name+"/sum", float64(ma.Sum), float64(mb.Sum))
		default:
			check(name, ma.Value, mb.Value)
		}
	}
	return tripped
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

// diffLedgers compares two run journals plan-by-plan: the k-th plan of
// a name in the new ledger against the k-th plan of that name in the
// old one, since one run may journal several plans of a name (each
// fault-study figure journals a "faultstudy" plan). Canonical outcome
// regressions — a cell that was ok and no longer is, or a worsened
// quarantine/failure tally — always trip regardless of pct. Host
// wall-time deltas are printed but never gate: wall clocks vary
// between hosts and runs.
func diffLedgers(w io.Writer, oldRecs, newRecs []ledger.Record) bool {
	tripped := false
	oldPlans, _ := fold(oldRecs)
	newPlans, _ := fold(newRecs)
	oldByName := map[string][]*planStats{}
	for _, p := range oldPlans {
		oldByName[p.name] = append(oldByName[p.name], p)
	}
	for _, np := range newPlans {
		olds := oldByName[np.name]
		if len(olds) == 0 {
			fmt.Fprintf(w, "plan %s: new (no counterpart in old ledger)\n", np.name)
			continue
		}
		op := olds[0]
		oldByName[np.name] = olds[1:]
		if op.cells != np.cells {
			fmt.Fprintf(w, "plan %s: cell count %d -> %d\n", np.name, op.cells, np.cells)
			tripped = true
		}
		if np.quarantined > op.quarantined || np.failed > op.failed {
			fmt.Fprintf(w, "plan %s: outcomes regressed: quarantined %d -> %d, failed %d -> %d\n",
				np.name, op.quarantined, np.quarantined, op.failed, np.failed)
			tripped = true
		}
		// Per-cell status regressions, by index.
		var idxs []int
		for i := range np.cellStatus {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			oldS, newS := op.cellStatus[i], np.cellStatus[i]
			if oldS == newS || newS == ledger.StatusOK {
				continue
			}
			if oldS == "" {
				continue // cell absent from old ledger: counted above
			}
			fmt.Fprintf(w, "plan %s cell #%d (%s): %s -> %s\n", np.name, i, np.labels[i], oldS, newS)
			tripped = true
		}
		// Host wall delta: report-only.
		if op.wallUS > 0 && np.wallUS > 0 && op.wallUS != np.wallUS {
			deltaPct := 100 * float64(np.wallUS-op.wallUS) / float64(op.wallUS)
			fmt.Fprintf(w, "plan %s: host wall %s -> %s (%+.1f%%, report-only)\n", np.name,
				(time.Duration(op.wallUS) * time.Microsecond).Round(time.Millisecond),
				(time.Duration(np.wallUS) * time.Microsecond).Round(time.Millisecond), deltaPct)
		}
	}
	var gone []string
	for name, olds := range oldByName {
		for range olds {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "plan %s: disappeared\n", name)
		tripped = true
	}
	return tripped
}

// watch follows the ledger file tail -f-style, rendering each record
// as one human line. With once, it prints what is there and returns.
func watch(w io.Writer, path string, poll time.Duration, once bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var partial []byte
	buf := make([]byte, 64*1024)
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			partial = append(partial, buf[:n]...)
			for {
				nl := bytes.IndexByte(partial, '\n')
				if nl < 0 {
					break
				}
				line := string(partial[:nl])
				partial = partial[nl+1:]
				if strings.TrimSpace(line) == "" {
					continue
				}
				var rec ledger.Record
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					fmt.Fprintf(w, "?? %s\n", line)
					continue
				}
				fmt.Fprintln(w, formatRecord(rec))
			}
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return rerr
		}
		if once {
			return nil
		}
		time.Sleep(poll)
	}
}

// formatRecord renders one ledger record as a human watch line.
func formatRecord(r ledger.Record) string {
	switch r.T {
	case ledger.TypeManifest:
		return fmt.Sprintf("=== plan %s: %d cells, model %s, scale %g, seed %s",
			r.Plan, r.Cells, r.Model, r.Scale, r.Seed)
	case ledger.TypeHostManifest:
		return fmt.Sprintf("    host: %d workers, %s, started %s", r.Workers, r.Go, r.Start)
	case ledger.TypeCellStart:
		return fmt.Sprintf("  > #%-4d %s", r.I, r.Label)
	case ledger.TypeCellFinish:
		s := fmt.Sprintf("  < #%-4d %s", r.I, r.Status)
		if r.Err != "" {
			s += ": " + r.Err
		}
		return s
	case ledger.TypePlanEnd:
		return fmt.Sprintf("=== plan %s done: %d ok, %d quarantined, %d failed",
			r.Plan, r.OK, r.Quarantined, r.Failed)
	case ledger.TypeCellHost:
		return fmt.Sprintf("    #%-4d worker %d, %s, %s", r.I, r.Worker,
			(time.Duration(r.WallUS) * time.Microsecond).Round(time.Millisecond), formatBytes(r.AllocBytes))
	case ledger.TypeCellTimeout:
		return fmt.Sprintf("  ! #%-4d timed out", r.I)
	case ledger.TypeCacheHit:
		return fmt.Sprintf("    #%-4d cache hit", r.I)
	case ledger.TypeCacheMiss:
		return fmt.Sprintf("    #%-4d cache miss", r.I)
	case ledger.TypeCacheCorrupt:
		return fmt.Sprintf("  ! %d corrupt cache entries", r.Count)
	}
	return fmt.Sprintf("?? %+v", r)
}
