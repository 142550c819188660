// Host-annex writers: the nondeterministic half of the ledger. This
// file is the ONLY place in the package (and in the simulated-state
// tree) allowed to read the wall clock — the detsim wallclock analyzer
// exempts exactly this file, so a time.Now creeping anywhere else in
// the canonical path fails `make lint`. Host records stream in arrival
// order, unbuffered, which is what `hpmmap-ledger watch` tails; none
// of them participate in the byte-identity contract.
package ledger

import (
	"runtime"
	"time"
)

// beginHost writes the host companion of the plan manifest: resolved
// worker count, Go version, wall-clock start. Called by BeginPlan with
// l.mu held.
func (l *Ledger) beginHost(workers int) {
	l.write(Record{
		T: TypeHostManifest, Plan: l.plan, Workers: workers,
		Go: runtime.Version(), Start: time.Now().UTC().Format(time.RFC3339Nano),
	})
}

// CellHost records one cell's host-side cost: which worker ran it, the
// wall time, and the process-wide allocation delta over its execution
// (an attribution, not an isolated measurement, when workers overlap).
func (l *Ledger) CellHost(idx, worker int, wall time.Duration, allocBytes uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.write(Record{
		T: TypeCellHost, I: idx, Worker: worker,
		WallUS: wall.Microseconds(), AllocBytes: allocBytes,
	})
	l.flushLocked()
}

// CellRetry records one host-transient re-run of a cell. attempt is
// 1-based: the first retry is attempt 1.
func (l *Ledger) CellRetry(idx, attempt int, errText string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.write(Record{T: TypeCellRetry, I: idx, Attempt: attempt, Err: errText})
	l.flushLocked()
}

// CellTimeout records a cell cancelled by the runner's CellTimeout.
func (l *Ledger) CellTimeout(idx int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.write(Record{T: TypeCellTimeout, I: idx})
	l.flushLocked()
}

// CacheHit records a result-cache hit for one cell.
func (l *Ledger) CacheHit(idx int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.write(Record{T: TypeCacheHit, I: idx})
	l.flushLocked()
}

// CacheMiss records a result-cache miss for one cell.
func (l *Ledger) CacheMiss(idx int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.write(Record{T: TypeCacheMiss, I: idx})
	l.flushLocked()
}

// CacheCorrupt records the invocation's corrupt-cache-entry tally
// (runner.Cache.CorruptCount). Written once at CLI shutdown; skipped
// when zero so clean runs carry no record.
func (l *Ledger) CacheCorrupt(n uint64) {
	if l == nil || n == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.write(Record{T: TypeCacheCorrupt, Count: n})
	l.flushLocked()
}
