package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ChromeTracer records structured simulation events and renders them in
// the Chrome trace-event JSON format, loadable in chrome://tracing and
// Perfetto (ui.perfetto.dev). Timestamps are simulated cycles converted
// to microseconds through the machine clock set with SetClock, so the
// trace timeline reads in simulated wall time.
//
// Like the rest of the package, a nil *ChromeTracer is the no-op
// default: every method is nil-safe, so call sites can be left in place
// unconditionally. A tracer belongs to one simulation cell and is not
// safe for concurrent use; WriteChromeTrace merges per-cell tracers
// deterministically in argument order.
type ChromeTracer struct {
	pid     int
	clockHz float64
	events  []chromeEvent
	threads map[int]string
	process string
}

// chromeEvent is one recorded trace event, timestamped in cycles and
// converted to microseconds at write time.
type chromeEvent struct {
	ph       byte // 'X' complete, 'i' instant, 'C' counter
	tid      int
	cat      string
	name     string
	at       uint64 // cycles
	dur      uint64 // cycles, 'X' only
	val      float64
	hasValue bool
}

// NewChromeTracer returns a tracer whose events carry the given Chrome
// trace pid (the experiment runner uses the cell index, so multi-cell
// traces group by cell in the UI).
func NewChromeTracer(pid int) *ChromeTracer {
	return &ChromeTracer{pid: pid, clockHz: 1e9, threads: make(map[int]string)}
}

// SetClock sets the simulated clock frequency used to convert cycle
// timestamps to trace microseconds. Defaults to 1 GHz; experiment rigs
// set it from the machine config. No-op on a nil tracer.
func (t *ChromeTracer) SetClock(hz float64) {
	if t == nil || hz <= 0 {
		return
	}
	t.clockHz = hz
}

// SetProcessName labels this tracer's pid in the trace UI (e.g.
// "fig7/minimd/isolated/c8"). No-op on a nil tracer.
func (t *ChromeTracer) SetProcessName(name string) {
	if t == nil {
		return
	}
	t.process = name
}

// SetThreadName labels a tid in the trace UI (e.g. "rank 3",
// "kswapd"). No-op on a nil tracer.
func (t *ChromeTracer) SetThreadName(tid int, name string) {
	if t == nil {
		return
	}
	t.threads[tid] = name
}

// Complete records a duration ('X') event spanning [start, start+dur]
// cycles on thread tid. No-op on a nil tracer.
func (t *ChromeTracer) Complete(tid int, cat, name string, start, dur uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, chromeEvent{ph: 'X', tid: tid, cat: cat, name: name, at: start, dur: dur})
}

// Instant records a point-in-time ('i') event at cycle at on thread
// tid. No-op on a nil tracer.
func (t *ChromeTracer) Instant(tid int, cat, name string, at uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, chromeEvent{ph: 'i', tid: tid, cat: cat, name: name, at: at})
}

// Value records a counter ('C') sample, rendered by trace viewers as a
// stepped time series. No-op on a nil tracer.
func (t *ChromeTracer) Value(tid int, cat, name string, at uint64, v float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, chromeEvent{ph: 'C', tid: tid, cat: cat, name: name, at: at, val: v, hasValue: true})
}

// usec converts a cycle timestamp to trace microseconds with fixed
// 3-decimal formatting so output is deterministic.
func (t *ChromeTracer) usec(cycles uint64) string {
	return strconv.FormatFloat(float64(cycles)/t.clockHz*1e6, 'f', 3, 64)
}

// WriteChromeTrace renders the tracers' combined events as one Chrome
// trace-event JSON object ({"traceEvents": [...]}). Nil tracers in the
// list are skipped; events are written grouped by tracer in argument
// order and in recording order within each tracer, which makes output
// byte-identical across runner worker counts (cells record
// single-threaded, and callers pass tracers in cell order).
func WriteChromeTrace(w io.Writer, tracers ...*ChromeTracer) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(w, line)
		return err
	}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		if t.process != "" {
			line := fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
				t.pid, quote(t.process))
			if err := emit(line); err != nil {
				return err
			}
		}
		tids := make([]int, 0, len(t.threads))
		for tid := range t.threads {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			line := fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				t.pid, tid, quote(t.threads[tid]))
			if err := emit(line); err != nil {
				return err
			}
		}
		for _, e := range t.events {
			var line string
			switch e.ph {
			case 'X':
				line = fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"cat":%s,"name":%s,"ts":%s,"dur":%s}`,
					t.pid, e.tid, quote(e.cat), quote(e.name), t.usec(e.at), t.usec(e.dur))
			case 'i':
				line = fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"cat":%s,"name":%s,"ts":%s,"s":"t"}`,
					t.pid, e.tid, quote(e.cat), quote(e.name), t.usec(e.at))
			case 'C':
				line = fmt.Sprintf(`{"ph":"C","pid":%d,"tid":%d,"cat":%s,"name":%s,"ts":%s,"args":{"value":%s}}`,
					t.pid, e.tid, quote(e.cat), quote(e.name), t.usec(e.at),
					strconv.FormatFloat(e.val, 'f', -1, 64))
			}
			if err := emit(line); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// quote JSON-quotes a trace string (names and categories are plain
// ASCII identifiers in practice; this escapes the rest defensively).
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
