package kernel

import (
	"math"
	"testing"

	"hpmmap/internal/sim"
)

// refBandwidthLoadExcluding is bandwidthLoadExcluding without the cached
// node-wide sum: every call rescans the cores.
func refBandwidthLoadExcluding(n *Node, p *Process) float64 {
	var w float64
	for i := range n.cores {
		c := &n.cores[i]
		if c.runnable > 0 {
			w += c.bwWeight / float64(c.runnable)
		}
	}
	for _, t := range p.tasks {
		if t.running {
			if r := n.cores[t.cur].runnable; r > 0 {
				w -= t.BandwidthWeight / float64(r)
			}
		}
	}
	if w < 0 {
		w = 0
	}
	sat := float64(len(n.cores)) * 0.5
	load := w / sat
	if load > 1 {
		load = 1
	}
	return load
}

// TestBandwidthLoadCacheMatchesScan drives random Run, Sleep and Finish
// sequences of pinned and floating tasks on the 12-core DellR415 node.
// After every step, bandwidthLoadExcluding must give every process the
// uncached scan's float, bit for bit.
func TestBandwidthLoadCacheMatchesScan(t *testing.T) {
	r := sim.NewRand(0xb3d)
	var cacheHits int
	for run := 0; run < 20; run++ {
		n, eng := newTestNode(t)
		var procs []*Process
		var tasks []*Task
		for step := 0; step < 400; step++ {
			switch op := r.Intn(8); {
			case op == 0 || len(tasks) == 0:
				var p *Process
				if len(procs) == 0 || r.Bool(0.4) {
					var err error
					if p, err = n.NewProcess("p", r.Bool(0.5), r.Intn(2)); err != nil {
						t.Fatal(err)
					}
					procs = append(procs, p)
				} else {
					p = procs[r.Intn(len(procs))]
				}
				pinned := -1
				if r.Bool(0.5) {
					pinned = r.Intn(n.NumCores())
				}
				tasks = append(tasks, n.NewTask(p, pinned, r.Float64()))
			case op <= 3:
				if tk := tasks[r.Intn(len(tasks))]; !tk.running && !tk.done {
					n.Run(tk, sim.Cycles(1+r.Intn(1_000_000)), sim.Cycles(r.Intn(100_000)), func(sim.Cycles) {})
				}
			case op == 4:
				if tk := tasks[r.Intn(len(tasks))]; !tk.done {
					n.Sleep(tk, sim.Cycles(r.Intn(1_000_000)), func() {})
				}
			case op == 5:
				tasks[r.Intn(len(tasks))].Finish()
			default:
				// Time passes: Run segments complete and depart.
				eng.RunUntil(eng.Now() + sim.Cycles(r.Intn(2_000_000)))
			}
			for _, p := range procs {
				if n.bwValid {
					cacheHits++
				}
				want := refBandwidthLoadExcluding(n, p)
				if got := n.bandwidthLoadExcluding(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("run %d step %d: pid %d bandwidth load %v (%#x), scan gives %v (%#x)",
						run, step, p.PID, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
	if cacheHits == 0 {
		t.Fatal("no call read the cached sum")
	}
}
