package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func meta() Meta {
	return Meta{Model: "test-model", Scale: 0.5, Flags: map[string]string{"exp": "fig7", "runs": "2"}}
}

// drive runs the same 4-cell plan through l, emitting canonical events
// in the order given by perm (simulating completion-order scrambling
// by a worker pool) plus host noise. It returns EndPlan's count of the
// plan's canonical records.
func drive(l *Ledger, perm []int, hostNoise bool) uint64 {
	l.BeginPlan("fig7", 0xdeadbeef, 4, len(perm))
	for _, i := range perm {
		l.CellStart(i, fmt.Sprintf("cell#%d", i), uint64(1000+i))
		if hostNoise {
			l.CellHost(i, i%2, time.Duration(i+1)*time.Millisecond, uint64(i)*4096)
			if i == 2 {
				l.CellTimeout(i)
				l.CacheMiss(i)
			} else {
				l.CacheHit(i)
			}
		}
		status, errText := StatusOK, ""
		if i == 1 {
			status, errText = StatusQuarantined, "cell 1: boom"
		}
		l.CellFinish(i, status, errText)
	}
	return l.EndPlan()
}

func TestCanonicalProjectionOrderIndependent(t *testing.T) {
	var a, b bytes.Buffer
	la := New(&a, meta())
	drive(la, []int{0, 1, 2, 3}, false)
	if err := la.Close(); err != nil {
		t.Fatal(err)
	}
	lb := New(&b, meta())
	drive(lb, []int{3, 1, 0, 2}, true) // scrambled order + host noise
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}

	recsA, err := Read(&a)
	if err != nil {
		t.Fatal(err)
	}
	recsB, err := Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	canonA, err := Marshal(Canonical(recsA))
	if err != nil {
		t.Fatal(err)
	}
	canonB, err := Marshal(Canonical(recsB))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonA, canonB) {
		t.Fatalf("canonical projection differs across emission orders:\nA:\n%s\nB:\n%s", canonA, canonB)
	}
}

func TestRecordStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	l, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	if got := drive(l, []int{2, 0, 3, 1}, true); got != 1+8+1 { // manifest + 4x(start+finish) + plan_end
		t.Fatalf("EndPlan = %d canonical records, want 10", got)
	}
	l.CacheCorrupt(3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Manifest first, host_manifest second.
	if recs[0].T != TypeManifest || recs[0].Plan != "fig7" || recs[0].Cells != 4 {
		t.Fatalf("bad manifest: %+v", recs[0])
	}
	if recs[0].Seed != fmt.Sprintf("%016x", uint64(0xdeadbeef)) {
		t.Fatalf("manifest seed = %q", recs[0].Seed)
	}
	if recs[0].Model != "test-model" || recs[0].Scale != 0.5 || recs[0].Flags["exp"] != "fig7" {
		t.Fatalf("manifest meta not stamped: %+v", recs[0])
	}
	if recs[1].T != TypeHostManifest || recs[1].Workers != 4 || recs[1].Go == "" || recs[1].Start == "" {
		t.Fatalf("bad host_manifest: %+v", recs[1])
	}

	// Canonical cell events sorted by index, start before finish.
	canon := Canonical(recs)
	wantSeq := []struct {
		typ string
		i   int
	}{
		{TypeManifest, 0},
		{TypeCellStart, 0}, {TypeCellFinish, 0},
		{TypeCellStart, 1}, {TypeCellFinish, 1},
		{TypeCellStart, 2}, {TypeCellFinish, 2},
		{TypeCellStart, 3}, {TypeCellFinish, 3},
		{TypePlanEnd, 0},
	}
	if len(canon) != len(wantSeq) {
		t.Fatalf("canonical length = %d, want %d", len(canon), len(wantSeq))
	}
	for k, w := range wantSeq {
		if canon[k].T != w.typ || canon[k].I != w.i {
			t.Fatalf("canon[%d] = {%s i=%d}, want {%s i=%d}", k, canon[k].T, canon[k].I, w.typ, w.i)
		}
	}

	// Statuses and tally.
	var finish1 Record
	for _, r := range canon {
		if r.T == TypeCellFinish && r.I == 1 {
			finish1 = r
		}
	}
	if finish1.Status != StatusQuarantined || finish1.Err != "cell 1: boom" {
		t.Fatalf("cell 1 finish = %+v", finish1)
	}
	end := canon[len(canon)-1]
	if end.OK != 3 || end.Quarantined != 1 || end.Failed != 0 {
		t.Fatalf("plan_end tally = %+v", end)
	}

	// Host records present.
	count := map[string]int{}
	for _, r := range recs {
		count[r.T]++
	}
	if count[TypeCellHost] != 4 || count[TypeCellTimeout] != 1 || count[TypeCacheHit] != 3 ||
		count[TypeCacheMiss] != 1 || count[TypeCacheCorrupt] != 1 {
		t.Fatalf("host record counts: %v", count)
	}
}

func TestNilLedgerIsNoop(t *testing.T) {
	var l *Ledger
	l.BeginPlan("p", 1, 2, 3)
	l.CellStart(0, "x", 1)
	l.CellFinish(0, StatusOK, "")
	l.CellHost(0, 0, time.Second, 1)
	l.CellTimeout(0)
	l.CacheHit(0)
	l.CacheMiss(0)
	l.CacheCorrupt(1)
	if l.EndPlan() != 0 {
		t.Fatal("nil ledger reported records")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Meta{})
	l.BeginPlan("p", 7, 64, 8)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.CellStart(i, fmt.Sprintf("c%d", i), uint64(i))
			l.CellHost(i, i%8, time.Millisecond, 64)
			l.CellFinish(i, StatusOK, "")
		}(i)
	}
	wg.Wait()
	l.EndPlan()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	canon := Canonical(recs)
	// manifest + 64*2 + plan_end, sorted by index.
	if len(canon) != 130 {
		t.Fatalf("canonical count = %d", len(canon))
	}
	prev := -1
	for _, r := range canon[1 : len(canon)-1] {
		if r.I < prev {
			t.Fatalf("canonical events not sorted: %d after %d", r.I, prev)
		}
		prev = r.I
	}
	if canon[len(canon)-1].OK != 64 {
		t.Fatalf("plan_end ok = %d", canon[len(canon)-1].OK)
	}
}

func TestFirstLine(t *testing.T) {
	if got := FirstLine(nil); got != "" {
		t.Fatalf("FirstLine(nil) = %q", got)
	}
	err := errors.New("panic: boom\ngoroutine 12 [running]:\nmain.main()")
	if got := FirstLine(err); got != "panic: boom" {
		t.Fatalf("FirstLine = %q", got)
	}
	if got := FirstLine(errors.New("single")); got != "single" {
		t.Fatalf("FirstLine = %q", got)
	}
}

func TestWriteErrorSurfacedByClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	l, err := Open(path, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	// Close the file out from under the ledger to force write errors.
	l.f.Close()
	l.BeginPlan("p", 1, 1, 1)
	l.CellStart(0, "c", 1)
	l.CellFinish(0, StatusOK, "")
	l.EndPlan()
	if err := l.Close(); err == nil {
		t.Fatal("Close returned nil after underlying file closed")
	} else if !strings.Contains(err.Error(), "ledger:") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	_, err := Read(strings.NewReader("{\"t\":\"manifest\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Read error = %v, want line 2 decode failure", err)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.jsonl")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}
