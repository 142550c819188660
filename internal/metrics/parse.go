package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseExposition decodes an OpenMetrics text stream written by
// WriteOpenMetrics back into a Snapshot, for cross-run diffing
// (`hpmmap-ledger diff a.prom b.prom`). Metric names are kept in
// exposition form — counter samples under `<family>_total`, histograms
// reassembled from their cumulative buckets — so two parsed snapshots
// compare consistently with each other. Unknown comment lines are
// ignored; a malformed sample or a missing `# EOF` terminator is an
// error, which is the promtool-shaped validity check the format tests
// lean on.
func ParseExposition(r io.Reader) (Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	kinds := map[string]Kind{} // family → declared kind
	metrics := map[string]*Metric{}
	var order []string
	var prevCum = map[string]uint64{} // histogram family → cumulative count so far
	sawEOF := false
	line := 0

	get := func(name string, kind Kind) *Metric {
		m, ok := metrics[name]
		if !ok {
			m = &Metric{Name: name, Kind: kind}
			metrics[name] = m
			order = append(order, name)
		}
		return m
	}

	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " ")
		if text == "" {
			continue
		}
		if sawEOF {
			return Snapshot{}, fmt.Errorf("metrics: line %d: data after # EOF", line)
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			switch {
			case len(fields) >= 2 && fields[1] == "EOF":
				sawEOF = true
			case len(fields) >= 4 && fields[1] == "TYPE":
				k := Kind(fields[3])
				if k != KindCounter && k != KindGauge && k != KindHistogram {
					return Snapshot{}, fmt.Errorf("metrics: line %d: unknown type %q", line, fields[3])
				}
				kinds[fields[2]] = k
			}
			continue // HELP and other comments carry no sample state
		}

		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(text, ' ')
		if sp < 0 {
			return Snapshot{}, fmt.Errorf("metrics: line %d: malformed sample %q", line, text)
		}
		name, valText := text[:sp], text[sp+1:]
		var labels string
		if br := strings.IndexByte(name, '{'); br >= 0 {
			if !strings.HasSuffix(name, "}") {
				return Snapshot{}, fmt.Errorf("metrics: line %d: unterminated labels in %q", line, text)
			}
			labels = name[br+1 : len(name)-1]
			name = name[:br]
		}
		if err := ValidateName(name); err != nil {
			return Snapshot{}, fmt.Errorf("metrics: line %d: %v", line, err)
		}
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			return Snapshot{}, fmt.Errorf("metrics: line %d: bad value %q", line, valText)
		}

		// Resolve the owning family: histograms expose _bucket/_sum/
		// _count samples, counters expose _total.
		switch {
		case histSuffix(name, "_bucket", kinds):
			family := strings.TrimSuffix(name, "_bucket")
			le, ok := labelValue(labels, "le")
			if !ok {
				return Snapshot{}, fmt.Errorf("metrics: line %d: bucket sample without le label", line)
			}
			m := get(family, KindHistogram)
			if le == "+Inf" {
				continue // total count arrives via _count
			}
			hi, err := strconv.ParseUint(le, 10, 64)
			if err != nil {
				return Snapshot{}, fmt.Errorf("metrics: line %d: bad le %q", line, le)
			}
			cum, err := histValue(valText, line)
			if err != nil {
				return Snapshot{}, err
			}
			if cum < prevCum[family] {
				return Snapshot{}, fmt.Errorf("metrics: line %d: non-monotonic bucket in %s", line, family)
			}
			if c := cum - prevCum[family]; c > 0 {
				m.Buckets = append(m.Buckets, Bucket{Hi: hi, Count: c})
			}
			prevCum[family] = cum
		case histSuffix(name, "_sum", kinds):
			sum, err := histValue(valText, line)
			if err != nil {
				return Snapshot{}, err
			}
			get(strings.TrimSuffix(name, "_sum"), KindHistogram).Sum = sum
		case histSuffix(name, "_count", kinds):
			n, err := histValue(valText, line)
			if err != nil {
				return Snapshot{}, err
			}
			get(strings.TrimSuffix(name, "_count"), KindHistogram).Count = n
		default:
			kind, ok := kinds[name]
			if k, isCounter := kinds[strings.TrimSuffix(name, "_total")]; !ok && isCounter && k == KindCounter {
				kind = KindCounter
			} else if !ok {
				kind = KindGauge // untyped samples diff as gauges
			}
			if kind == KindCounter && !strings.HasSuffix(name, "_total") {
				// A counter sample named after its family: keep it in
				// exposition form, as WriteOpenMetrics writes it.
				name += "_total"
			}
			get(name, kind).Value = val
		}
	}
	if err := sc.Err(); err != nil {
		return Snapshot{}, fmt.Errorf("metrics: read: %w", err)
	}
	if !sawEOF {
		return Snapshot{}, fmt.Errorf("metrics: missing # EOF terminator")
	}
	var out Snapshot
	for _, name := range order {
		out.Metrics = append(out.Metrics, *metrics[name])
	}
	return out, nil
}

// histValue parses a histogram bucket, sum or count sample's value.
// The model holds these as uint64 and WriteOpenMetrics writes them as
// unsigned integers, so anything else (a sign, a fraction, an exponent)
// is malformed rather than rounded into range.
func histValue(text string, line int) (uint64, error) {
	v, err := strconv.ParseUint(text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("metrics: line %d: bad histogram value %q", line, text)
	}
	return v, nil
}

// histSuffix reports whether name is a histogram sample of the given
// suffix, judged by the declared TYPE of the family it would imply.
func histSuffix(name, suffix string, kinds map[string]Kind) bool {
	if !strings.HasSuffix(name, suffix) {
		return false
	}
	return kinds[strings.TrimSuffix(name, suffix)] == KindHistogram
}

// labelValue extracts one label's unquoted value from a label body
// (`le="4096"`).
func labelValue(labels, key string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] != key {
			continue
		}
		v := strings.TrimSpace(kv[1])
		v = strings.TrimPrefix(v, `"`)
		v = strings.TrimSuffix(v, `"`)
		return v, true
	}
	return "", false
}
