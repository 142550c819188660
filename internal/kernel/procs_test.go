package kernel

import (
	"errors"
	"slices"
	"testing"

	"hpmmap/internal/sim"
)

// forkingMM is a fake manager that forks and whose Attach and Fork fail
// on demand, so the tests reach NewProcess's and Fork's rollback.
type forkingMM struct {
	fakeMM
	failAttach, failFork bool
}

var errInjected = errors.New("injected failure")

func (f *forkingMM) Attach(p *Process) error {
	if f.failAttach {
		return errInjected
	}
	return f.fakeMM.Attach(p)
}

func (f *forkingMM) Fork(parent, child *Process) (sim.Cycles, error) {
	if f.failFork {
		return 0, errInjected
	}
	return 10, f.fakeMM.Attach(child)
}

// sortedLive returns the reference's processes in ascending PID order.
func sortedLive(ref map[int]*Process) []*Process {
	live := make([]*Process, 0, len(ref))
	for _, p := range ref {
		live = append(live, p)
	}
	slices.SortFunc(live, func(a, b *Process) int { return a.PID - b.PID })
	return live
}

// TestProcessesMatchesReference drives random interleavings of
// NewProcess, Fork, Exit and ExitReap, with injected Attach and Fork
// failures, against a map of the live processes. After every step
// Processes must yield exactly the live processes in ascending PID order,
// and Process must return each live process and nil for every other PID.
// Processes must not allocate.
func TestProcessesMatchesReference(t *testing.T) {
	r := sim.NewRand(0x91d)
	for run := 0; run < 20; run++ {
		n := NewNode(DellR415(), sim.NewEngine(), sim.NewRand(1))
		mm := &forkingMM{fakeMM: *newFakeMM("forking")}
		n.SetDefaultMM(mm)
		ref := map[int]*Process{}
		var got []*Process
		for step := 0; step < 300; step++ {
			mm.failAttach, mm.failFork = r.Bool(0.1), r.Bool(0.1)
			live := sortedLive(ref)
			switch op := r.Intn(4); {
			case op == 0 || len(live) == 0:
				p, err := n.NewProcess("p", r.Bool(0.5), 0)
				if (err != nil) != mm.failAttach {
					t.Fatalf("run %d step %d: NewProcess error %v with Attach failing %v", run, step, err, mm.failAttach)
				}
				if err == nil {
					ref[p.PID] = p
				}
			case op == 1:
				child, _, err := n.Fork(live[r.Intn(len(live))], "child")
				if (err != nil) != mm.failFork {
					t.Fatalf("run %d step %d: Fork error %v with Fork failing %v", run, step, err, mm.failFork)
				}
				if err == nil {
					ref[child.PID] = child
				}
			case op == 2:
				p := live[r.Intn(len(live))]
				delete(ref, p.PID)
				n.Exit(p)
			default:
				p := live[r.Intn(len(live))]
				delete(ref, p.PID)
				n.ExitReap(p)
			}

			live = sortedLive(ref)
			got = got[:0]
			n.Processes(func(p *Process) { got = append(got, p) })
			if !slices.Equal(got, live) {
				t.Fatalf("run %d step %d: Processes yields %d processes, want %d in PID order", run, step, len(got), len(live))
			}
			for pid := 99; pid <= n.NextPID(); pid++ {
				if p := n.Process(pid); p != ref[pid] || p != nil && p.PID != pid {
					t.Fatalf("run %d step %d: Process(%d) = %p, want %p", run, step, pid, p, ref[pid])
				}
			}
		}
		if n.LifecycleProcReuses == 0 {
			t.Fatalf("run %d: no recycled Process was reused", run)
		}
		var count int
		if allocs := testing.AllocsPerRun(10, func() { n.Processes(func(*Process) { count++ }) }); allocs != 0 {
			t.Fatalf("run %d: Processes made %v allocations, want 0", run, allocs)
		}
	}
}
