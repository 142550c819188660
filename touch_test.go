package hpmmap

import (
	"reflect"
	"testing"

	"hpmmap/internal/sim"
)

// reportSince returns the faults in after that are not in before, in
// Touch's report form: kinds without new faults are left out.
func reportSince(before, after FaultReport) FaultReport {
	d := FaultReport{
		Faults: after.Faults - before.Faults,
		Cycles: after.Cycles - before.Cycles,
		Stalls: after.Stalls - before.Stalls,
		ByKind: map[string]uint64{},
	}
	for k, n := range after.ByKind {
		if n -= before.ByKind[k]; n != 0 {
			d.ByKind[k] = n
		}
	}
	return d
}

// TestTouchReportIsFaultTotalsDelta checks the public Touch report
// against the process's lifetime totals: under every manager, at both
// fidelities, with kernel builds and khugepaged running alongside, each
// report must equal the change in FaultTotals over the call.
func TestTouchReportIsFaultTotalsDelta(t *testing.T) {
	r := sim.NewRand(0x7e9)
	for _, mgr := range []Manager{ManagerTHP, ManagerHugeTLBfs, ManagerHPMMAP} {
		for _, detail := range []bool{false, true} {
			sys, err := New(Config{Manager: mgr, Seed: r.Uint64(), Detail: detail})
			if err != nil {
				t.Fatal(err)
			}
			build := sys.StartKernelBuild(8)
			type mapping struct {
				p          *Process
				addr, size uint64
			}
			var maps []mapping
			var faults uint64
			for step := 0; step < 60; step++ {
				switch op := r.Intn(4); {
				case op == 0 || len(maps) == 0:
					launch := sys.LaunchHPC
					if r.Bool(0.3) {
						launch = sys.LaunchCommodity
					}
					p, err := launch("p")
					if err != nil {
						t.Fatal(err)
					}
					size := uint64(1+r.Intn(32))<<20 + uint64(r.Intn(4))<<12
					addr, _, err := p.Mmap(size)
					if err != nil {
						t.Fatal(err)
					}
					maps = append(maps, mapping{p, addr, size})
				case op == 1:
					sys.Advance(0.5 + 2*r.Float64())
				default:
					m := maps[r.Intn(len(maps))]
					off := uint64(r.Intn(int(m.size>>12))) << 12
					before := m.p.FaultTotals()
					rep, err := m.p.Touch(m.addr+off, 1+uint64(r.Intn(int(m.size-off))))
					if err != nil {
						t.Fatal(err)
					}
					if want := reportSince(before, m.p.FaultTotals()); !reflect.DeepEqual(rep, want) {
						t.Fatalf("%s detail=%v step %d: Touch reported %+v, FaultTotals grew by %+v", mgr, detail, step, rep, want)
					}
					faults += rep.Faults
				}
			}
			build.Stop()
			if mgr != ManagerHPMMAP && faults == 0 {
				t.Fatalf("%s detail=%v: no touch faulted", mgr, detail)
			}
		}
	}
}
