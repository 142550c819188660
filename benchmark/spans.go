package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hpmmap/internal/ledger"
)

// spanLog records the traced rep's spans in memory: one per entry call,
// and one per cell ending at the runner's progress event for that cell,
// with its duration from the ledger's cell_host wall time.
type spanLog struct {
	origin  time.Time
	calls   []span
	cellEnd map[string]time.Time // cell label -> progress event time
	cellSet []span
}

type span struct {
	name       string
	start, end time.Time
	lane       int // 0 for entry calls, worker+1 for cells
}

func (s *spanLog) begin(t time.Time) {
	if s.origin.IsZero() {
		s.origin = t
	}
	s.calls = append(s.calls, span{start: t})
}

func (s *spanLog) end(t time.Time) {
	s.calls[len(s.calls)-1].end = t
}

// progress is the runner's progress callback. The runner serializes its
// calls, and the entry call returns only after the last one.
func (s *spanLog) progress(msg string) {
	if s.cellEnd == nil {
		s.cellEnd = make(map[string]time.Time)
	}
	if label, ok := progressLabel(msg); ok {
		s.cellEnd[label] = time.Now()
	}
}

// progressLabel extracts the cell label from a runner progress line:
// "<plan> <done>/<total> [..] (ETA <d>) <label>[: <suffix>]". Cell labels
// never contain ": ".
func progressLabel(msg string) (string, bool) {
	i := strings.Index(msg, "(ETA ")
	if i < 0 {
		return "", false
	}
	j := strings.Index(msg[i:], ") ")
	if j < 0 {
		return "", false
	}
	label := msg[i+j+2:]
	if k := strings.Index(label, ": "); k >= 0 {
		label = label[:k]
	}
	return label, label != ""
}

// cells turns the ledger's records into cell spans and returns the sum
// of the cells' wall times. Plans run one after another, so each plan's
// records lie between its manifest and its plan_end.
func (s *spanLog) cells(recs []ledger.Record) int64 {
	type cell struct {
		label  string
		wallUS int64
		worker int
	}
	var total int64
	plan := map[int]*cell{}
	get := func(i int) *cell {
		if plan[i] == nil {
			plan[i] = &cell{}
		}
		return plan[i]
	}
	for _, r := range recs {
		switch r.T {
		case ledger.TypeManifest:
			plan = map[int]*cell{}
		case ledger.TypeCellStart:
			get(r.I).label = r.Label
		case ledger.TypeCellHost:
			c := get(r.I)
			c.wallUS, c.worker = r.WallUS, r.Worker
		case ledger.TypePlanEnd:
			for _, c := range plan {
				total += c.wallUS * int64(time.Microsecond)
				end, ok := s.cellEnd[c.label]
				if !ok {
					continue
				}
				s.cellSet = append(s.cellSet, span{
					name:  c.label,
					start: end.Add(-time.Duration(c.wallUS) * time.Microsecond),
					end:   end,
					lane:  c.worker + 1,
				})
			}
		}
	}
	sort.Slice(s.cellSet, func(i, j int) bool { return s.cellSet[i].start.Before(s.cellSet[j].start) })
	return total
}

// write saves the spans as a Chrome trace-event document.
func (s *spanLog) write(path, workload string) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	us := func(t time.Time) float64 { return float64(t.Sub(s.origin)) / float64(time.Microsecond) }
	var evs []event
	add := func(sp span, cat string) {
		dur := float64(sp.end.Sub(sp.start)) / float64(time.Microsecond)
		evs = append(evs, event{Name: sp.name, Cat: cat, Ph: "X", TS: us(sp.start), Dur: dur, TID: sp.lane, PID: 1})
	}
	for _, c := range s.calls {
		c.name = workload
		add(c, "workload")
	}
	for _, c := range s.cellSet {
		add(c, "cell")
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
