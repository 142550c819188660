// Package ledger is the runner's durable run journal: a structured
// JSONL file recording what a plan execution did — the manifest (plan
// name, seeds, scale, model version, flag set), one event per runner
// lifecycle transition (cell start/finish/timeout/quarantine, cache
// hit/miss/corrupt), and per-cell host wall-time and allocation
// deltas. It is the cross-run record the experiment CLIs emit with
// -ledger and cmd/hpmmap-ledger summarises, diffs and tails.
//
// The design contract is a strict split between two record classes:
//
//   - The canonical projection (record types in CanonicalTypes:
//     manifest, cell_start, cell_finish, plan_end) carries only
//     deterministic fields — cell indexes, labels, coordinate-derived
//     seeds, statuses, first-line error text. Canonical cell events are
//     buffered during the run and flushed sorted by cell index at
//     EndPlan, so the projection is byte-identical at any worker count
//     and with a cold or warm result cache. Determinism tests pin this
//     half (see Canonical and internal/experiments' ledger tests).
//   - The host annex (everything else: host_manifest, cell_host,
//     cell_timeout, cache_hit/miss/corrupt) carries wall-clock times,
//     worker IDs, allocation deltas and cache traffic. Host records
//     stream live in arrival order — this is what `hpmmap-ledger
//     watch` tails — and are excluded from every byte-identity
//     contract. host.go is the only file of this package allowed to
//     touch the wall clock (enforced by the detsim wallclock analyzer;
//     see ANALYSIS.md).
//
// A nil *Ledger is the valid no-op sink, mirroring the metrics layer:
// every method accepts a nil receiver and does nothing, so the runner
// and the experiment harnesses never test "is a ledger attached"
// beyond passing the handle through.
package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Record types. The canonical set is listed in CanonicalTypes; any
// other type is host annex.
const (
	// TypeManifest opens a plan: name, base seed, cell count, and the
	// invocation metadata (model version, scale, flag set). Canonical —
	// deliberately excludes the worker count and any timestamps; those
	// live in the host_manifest companion record.
	TypeManifest = "manifest"
	// TypeCellStart records one cell entering execution: index, label,
	// coordinate-derived seed. Canonical.
	TypeCellStart = "cell_start"
	// TypeCellFinish records a cell's final outcome: "ok",
	// "quarantined" (ContinueOnError hole) or "failed", with the first
	// line of the error for the non-ok statuses. Canonical.
	TypeCellFinish = "cell_finish"
	// TypePlanEnd closes a plan with the ok/quarantined/failed tallies.
	// Canonical.
	TypePlanEnd = "plan_end"

	// TypeHostManifest is the host companion of the manifest: worker
	// count, Go version, wall-clock start time.
	TypeHostManifest = "host_manifest"
	// TypeCellHost carries one cell's host-side cost: wall microseconds,
	// process-wide allocation delta, and the worker that ran it.
	TypeCellHost = "cell_host"
	// TypeCellTimeout records a cell cancelled by Options.CellTimeout.
	TypeCellTimeout = "cell_timeout"
	// TypeCacheHit / TypeCacheMiss record result-cache traffic for one
	// cell; TypeCacheCorrupt records the invocation's corrupt-entry
	// tally (see runner.Cache).
	TypeCacheHit     = "cache_hit"
	TypeCacheMiss    = "cache_miss"
	TypeCacheCorrupt = "cache_corrupt"
)

// Cell statuses recorded by TypeCellFinish.
const (
	StatusOK          = "ok"
	StatusQuarantined = "quarantined"
	StatusFailed      = "failed"
)

// CanonicalTypes is the deterministic half of the record stream: a
// projection of a ledger onto these types is byte-identical at any
// worker count and cache state. Everything else is host annex.
var CanonicalTypes = map[string]bool{
	TypeManifest:   true,
	TypeCellStart:  true,
	TypeCellFinish: true,
	TypePlanEnd:    true,
}

// Record is one JSONL line of a ledger. One struct covers every record
// type; fields irrelevant to a type stay zero and are omitted from the
// encoding, so each line carries only its own fields. Field order is
// fixed by this declaration, which is what makes canonical output
// byte-stable.
type Record struct {
	// T is the record type (Type* constants).
	T string `json:"t"`

	// Plan names the plan (manifest, plan_end).
	Plan string `json:"plan,omitempty"`
	// Seed is the base seed (manifest) or the cell's coordinate-derived
	// seed (cell_start), as %016x — JSON numbers lose uint64 precision.
	Seed string `json:"seed,omitempty"`
	// Cells is the plan's cell count (manifest).
	Cells int `json:"cells,omitempty"`
	// Model, Scale and Flags are the invocation metadata stamped from
	// Meta (manifest).
	Model string            `json:"model,omitempty"`
	Scale float64           `json:"scale,omitempty"`
	Flags map[string]string `json:"flags,omitempty"`

	// I is the cell's index in the plan (cell_* and cache_* records).
	I int `json:"i,omitempty"`
	// Label is the cell's render (runner.Cell.String) on cell_start.
	Label string `json:"label,omitempty"`
	// Status is the cell outcome on cell_finish (Status* constants).
	Status string `json:"status,omitempty"`
	// Err is the first line of the cell error (cell_finish with a
	// non-ok status). First line only: panic errors carry a host stack
	// trace on the following lines, and the canonical projection must
	// not absorb goroutine IDs and addresses.
	Err string `json:"err,omitempty"`

	// OK/Quarantined/Failed are the plan_end tallies.
	OK          int `json:"ok,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	Failed      int `json:"failed,omitempty"`

	// Workers, Go and Start describe the host execution
	// (host_manifest).
	Workers int    `json:"workers,omitempty"`
	Go      string `json:"go,omitempty"`
	Start   string `json:"start,omitempty"`

	// Worker, WallUS and AllocBytes are the cell's host cost
	// (cell_host). AllocBytes is the process-wide allocation delta over
	// the cell's execution — an attribution, not a measurement, when
	// workers run in parallel.
	Worker     int    `json:"worker,omitempty"`
	WallUS     int64  `json:"wall_us,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Count is the corrupt-entry tally (cache_corrupt).
	Count uint64 `json:"count,omitempty"`
}

// Meta is the invocation metadata stamped into every plan manifest:
// the simulator's model version, the problem scale, and the flag set
// that shaped the run. All fields are deterministic inputs, never
// host measurements.
type Meta struct {
	Model string
	Scale float64
	Flags map[string]string
}

// Ledger writes the journal. Safe for concurrent use by the runner's
// worker goroutines; a nil *Ledger is the no-op sink.
type Ledger struct {
	mu  sync.Mutex
	w   *bufio.Writer
	f   *os.File
	err error // first write error; surfaced by Err/Close

	meta Meta

	// Current plan state. Canonical cell events are buffered here and
	// flushed sorted by cell index at EndPlan; host records bypass the
	// buffer and stream immediately.
	plan                    string
	buf                     []Record
	ok, quarantined, failed int
}

// New returns a ledger streaming to w. The caller owns w; Close
// flushes but does not close it.
func New(w io.Writer, meta Meta) *Ledger {
	return &Ledger{w: bufio.NewWriter(w), meta: meta}
}

// Open creates (truncating) a ledger file at path.
func Open(path string, meta Meta) (*Ledger, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := New(f, meta)
	l.f = f
	return l, nil
}

// write encodes one record as a JSONL line. Callers hold l.mu.
func (l *Ledger) write(r Record) {
	if l.err != nil {
		return
	}
	data, err := json.Marshal(r)
	if err != nil {
		l.err = fmt.Errorf("ledger: encode %s: %w", r.T, err)
		return
	}
	if _, err := l.w.Write(append(data, '\n')); err != nil {
		l.err = fmt.Errorf("ledger: write: %w", err)
	}
}

// BeginPlan opens a plan: the canonical manifest followed by the host
// companion (written by beginHost in host.go). workers is the resolved
// pool size and lands only in the host record.
func (l *Ledger) BeginPlan(name string, seed uint64, cells, workers int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.plan = name
	l.buf = l.buf[:0]
	l.ok, l.quarantined, l.failed = 0, 0, 0
	l.write(Record{
		T: TypeManifest, Plan: name, Seed: fmt.Sprintf("%016x", seed),
		Cells: cells, Model: l.meta.Model, Scale: l.meta.Scale, Flags: l.meta.Flags,
	})
	l.beginHost(workers)
	l.flushLocked()
}

// CellStart records a cell entering execution. Buffered (canonical).
func (l *Ledger) CellStart(idx int, label string, seed uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, Record{
		T: TypeCellStart, I: idx, Label: label, Seed: fmt.Sprintf("%016x", seed),
	})
}

// CellFinish records a cell's final outcome. errText must already be
// reduced to its deterministic first line (FirstLine). Buffered
// (canonical).
func (l *Ledger) CellFinish(idx int, status, errText string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch status {
	case StatusQuarantined:
		l.quarantined++
	case StatusFailed:
		l.failed++
	default:
		l.ok++
	}
	l.buf = append(l.buf, Record{T: TypeCellFinish, I: idx, Status: status, Err: errText})
}

// EndPlan flushes the plan's buffered canonical cell events sorted by
// cell index (stable, so each cell's start precedes its finish) and
// writes the closing tally record. The sorted flush is what makes the
// canonical projection independent of completion order. It returns how
// many canonical records the plan wrote (manifest, cell events and
// tally) — the runner_ledger_records_total source, deterministic at
// any worker count and cache state, unlike a byte or host-record
// count. A nil receiver returns 0.
func (l *Ledger) EndPlan() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.SliceStable(l.buf, func(i, j int) bool { return l.buf[i].I < l.buf[j].I })
	for _, r := range l.buf {
		l.write(r)
	}
	records := uint64(len(l.buf)) + 2
	l.buf = l.buf[:0]
	l.write(Record{
		T: TypePlanEnd, Plan: l.plan,
		OK: l.ok, Quarantined: l.quarantined, Failed: l.failed,
	})
	l.flushLocked()
	l.plan = ""
	return records
}

// flushLocked pushes buffered bytes to the underlying writer so `watch`
// sees records promptly. Callers hold l.mu.
func (l *Ledger) flushLocked() {
	if l.err == nil {
		if err := l.w.Flush(); err != nil {
			l.err = fmt.Errorf("ledger: flush: %w", err)
		}
	}
}

// Close flushes and, when the ledger owns its file (Open), closes it.
// Returns the first error the ledger encountered. Safe on a nil
// receiver.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushLocked()
	if l.f != nil {
		if cerr := l.f.Close(); cerr != nil && l.err == nil {
			l.err = fmt.Errorf("ledger: close: %w", cerr)
		}
		l.f = nil
	}
	return l.err
}

// FirstLine reduces an error's text to its first line — the
// deterministic half of a panic message whose following lines carry a
// host stack trace. Returns "" for a nil error.
func FirstLine(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// Canonical filters records down to the canonical projection, in input
// order. Applying it to a well-formed ledger yields the byte-identity
// half of the determinism contract.
func Canonical(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if CanonicalTypes[r.T] {
			out = append(out, r)
		}
	}
	return out
}

// Marshal renders records back to JSONL bytes — the form the
// byte-identity tests compare.
func Marshal(recs []Record) ([]byte, error) {
	var out []byte
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("ledger: encode %s: %w", r.T, err)
		}
		out = append(out, data...)
		out = append(out, '\n')
	}
	return out, nil
}

// Read decodes a JSONL record stream, skipping blank lines. A decode
// failure reports the 1-based line number.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("ledger: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: read: %w", err)
	}
	return recs, nil
}

// ReadFile reads a ledger file.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	return Read(f)
}
