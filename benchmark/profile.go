package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// layerPrefix marks the simulator's layers in a symbolized stack.
const layerPrefix = "hpmmap/internal/"

// auditFrame charges a whole sample to the invariant auditor: its deep
// checks walk other layers' structures, and that walk is audit cost.
const auditFrame = "hpmmap/internal/invariant.(*Auditor).RunOnce"

// probePrefix marks the speed probe goroutine's frames: its samples,
// its passes and its clock reads alike, are no layer's.
const probePrefix = "main.startProbe"

// layerShares is CPU time per layer from one or more profiles.
type layerShares map[string]time.Duration

// attribute parses the text of `go tool pprof -traces` and charges each
// sample to a layer: to invariant when the auditor's RunOnce is on the
// stack; else to the nearest hpmmap/internal/<pkg> frame from the leaf,
// so runtime and standard-library work is charged to the layer that
// called it; else to goruntime (GC workers, the scheduler). The speed
// probe's samples are dropped.
func attribute(r io.Reader, into layerShares) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var (
		inTraces bool
		value    time.Duration
		frames   []string
	)
	flush := func() {
		if len(frames) > 0 && !isProbe(frames) {
			into[chargeLayer(frames)] += value
		}
		frames = frames[:0]
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		if len(frames) == 0 {
			// The first line of a trace is "<value>   <leaf function>".
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := parsePprofDuration(fields[0])
			if err != nil {
				return err
			}
			value = d
			frames = append(frames, fields[1])
			continue
		}
		// Caller lines hold one function, maybe followed by " (inline)".
		// pprof indents label lines the same way, but CPU profiles taken
		// without pprof labels have none.
		frames = append(frames, strings.Fields(line)[0])
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	if !inTraces {
		return fmt.Errorf("pprof traces: no samples")
	}
	return nil
}

// isProbe reports whether a stack is the speed probe goroutine's.
func isProbe(frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(f, probePrefix) {
			return true
		}
	}
	return false
}

// chargeLayer applies the charging rule to one stack, leaf first.
func chargeLayer(frames []string) string {
	for _, f := range frames {
		if f == auditFrame {
			return "invariant"
		}
	}
	for _, f := range frames {
		if pkg, ok := layerOf(f); ok {
			return pkg
		}
	}
	return "goruntime"
}

// layerOf returns the layer a function belongs to, when it is one of the
// simulator's layers.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return "", false
	}
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return "", false
	}
	pkg := rest[:end]
	for _, l := range layers {
		if l == pkg {
			return pkg, true
		}
	}
	return "", false
}

// parsePprofDuration reads a sample value as pprof prints it for a CPU
// profile: a decimal number with a unit from ns to hrs.
func parsePprofDuration(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		unit   time.Duration
	}{
		// Longer suffixes first: "mins" ends in "ns" and "hrs" in "s".
		{"mins", time.Minute}, {"hrs", time.Hour}, {"ns", time.Nanosecond}, {"us", time.Microsecond},
		{"µs", time.Microsecond}, {"ms", time.Millisecond}, {"s", time.Second},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				break
			}
			return time.Duration(v * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("pprof traces: unreadable sample value %q", s)
}

// percentages converts CPU time per layer into shares of the total, for
// every layer (0 where a layer had no samples).
func (s layerShares) percentages() map[string]float64 {
	var total time.Duration
	for _, d := range s {
		total += d
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * float64(s[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
