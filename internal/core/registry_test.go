package core

import (
	"fmt"
	"testing"

	"hpmmap/internal/kernel"
	"hpmmap/internal/linuxmm"
	"hpmmap/internal/sim"
)

// TestRegistryMatchesMap drives random Launch, Register, Exit and
// ExitReap sequences (so Detach and DetachReap) against a map of the
// registered PIDs. Register takes future PIDs far past the bit window's
// end, which slides it and moves live PIDs to the old list, and PIDs of
// processes that already exited, which land below the window. After
// every step Registered must agree with the map for every PID up to the
// largest registered, and Uninstall must report the map's count.
func TestRegistryMatchesMap(t *testing.T) {
	r := sim.NewRand(0x9e6)
	for run := 0; run < 10; run++ {
		node := kernel.NewNode(kernel.DellR415(), sim.NewEngine(), sim.NewRand(1))
		node.SetDefaultMM(linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil))
		hp, err := Install(node, 4<<30)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[int]bool{}
		top := 0 // the largest PID ever registered
		register := func(pid int) {
			hp.Register(pid)
			ref[pid] = true
			top = max(top, pid)
		}
		var live []*kernel.Process
		for step := 0; step < 300; step++ {
			switch op := r.Intn(6); {
			case op <= 1:
				pid := node.NextPID()
				p, err := hp.Launch("hpc", 0)
				if err != nil {
					t.Fatalf("run %d step %d: launch: %v", run, step, err)
				}
				ref[pid] = true
				top = max(top, pid)
				live = append(live, p)
			case op == 2:
				// A PID no live process holds: a future one, up to a few
				// thousand past the set's length, or one already exited.
				if r.Bool(0.5) {
					register(node.NextPID() + 1 + r.Intn(4000))
				} else if pid := r.Intn(node.NextPID()); node.Process(pid) == nil {
					register(pid)
				}
			case op == 3:
				// A commodity process takes the next PID; it routes to
				// HPMMAP when Register reserved that PID earlier.
				pid := node.NextPID()
				p, err := node.NewProcess("build", true, 0)
				if err != nil {
					t.Fatalf("run %d step %d: new process: %v", run, step, err)
				}
				if ref[pid] {
					live = append(live, p)
				} else {
					node.Exit(p)
				}
			default:
				if len(live) == 0 {
					continue
				}
				i := r.Intn(len(live))
				p := live[i]
				live = append(live[:i], live[i+1:]...)
				delete(ref, p.PID)
				if op == 4 {
					node.Exit(p)
				} else {
					node.ExitReap(p)
				}
			}

			for pid := 0; pid <= top+64; pid++ {
				if got := hp.Registered(pid); got != ref[pid] {
					t.Fatalf("run %d step %d: Registered(%d) = %v, want %v", run, step, pid, got, ref[pid])
				}
			}
			if hp.Registered(-1) {
				t.Fatalf("run %d step %d: a negative PID is registered", run, step)
			}
			err := hp.Uninstall()
			if len(ref) == 0 {
				if err != nil {
					t.Fatalf("run %d step %d: Uninstall with nothing registered: %v", run, step, err)
				}
				node.SetInterposer(hp) // load the module again
				continue
			}
			if want := fmt.Sprintf("hpmmap: %d processes still registered", len(ref)); err == nil || err.Error() != want {
				t.Fatalf("run %d step %d: Uninstall error %v, want %q", run, step, err, want)
			}
		}
	}
}
