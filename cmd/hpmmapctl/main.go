// Command hpmmapctl demonstrates the HPMMAP control flow of the paper's
// Figure 6: install the module (offlining memory), register and launch an
// HPC process through the user-level tool, show that its memory system
// calls are interposed and take no faults while an unregistered commodity
// process demand-pages through Linux, then tear everything down and
// unload the module.
package main

import (
	"flag"
	"fmt"
	"os"

	"hpmmap/internal/core"
	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
	"hpmmap/internal/kernel"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

func main() {
	offlineGB := flag.Uint64("offline", 12, "GB of memory to offline for HPMMAP")
	mapGB := flag.Uint64("map", 2, "GB the demo HPC process maps")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	step := func(format string, args ...any) { fmt.Printf("==> "+format+"\n", args...) }
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "hpmmapctl:", err)
		os.Exit(1)
	}

	rig, err := experiments.Boot(kernel.DellR415(), sim.NewEngine(), *seed, experiments.THP, false, 1, 0)
	if err != nil {
		fail(err)
	}
	node := rig.Node

	step("node booted: %d cores, %dGB RAM, manager %s",
		node.NumCores(), node.Config().MemoryBytes>>30, node.DefaultMM().Name())

	step("insmod hpmmap.ko offline=%dG", *offlineGB)
	hp, err := core.Install(node, *offlineGB<<30)
	if err != nil {
		fail(err)
	}
	fmt.Printf("    offlined %dGB in >=128MB sections; Linux now manages %dGB\n",
		hp.PoolTotalBytes()>>30, node.Mem.TotalPages()*4096>>30)

	step("hpmmap_launch ./hpc-app   (registers the PID, then execs)")
	hpc, err := hp.Launch("hpc-app", 0)
	if err != nil {
		fail(err)
	}
	fmt.Printf("    pid %d registered: %v; syscalls routed to %q\n",
		hpc.PID, hp.Registered(hpc.PID), node.ManagerNameFor(hpc))

	step("./commodity-app           (ordinary exec, not registered)")
	com, err := node.NewProcess("commodity-app", true, 0)
	if err != nil {
		fail(err)
	}
	fmt.Printf("    pid %d registered: %v; syscalls routed to %q\n",
		com.PID, hp.Registered(com.PID), node.ManagerNameFor(com))

	prot := pgtable.ProtRead | pgtable.ProtWrite
	step("hpc-app: mmap(%dGB) — on-request allocation", *mapGB)
	addr, cost, err := node.Mmap(hpc, *mapGB<<30, prot, vma.KindAnon)
	if err != nil {
		fail(err)
	}
	fmt.Printf("    backed eagerly with 2MB pages in %.1f ms of simulated time\n",
		node.Config().Seconds(float64(cost))*1e3)
	before := hpc.Faults
	if _, err := node.TouchRange(hpc, addr, *mapGB<<30); err != nil {
		fail(err)
	}
	fmt.Printf("    first touch of all %dGB: %d page faults\n", *mapGB, hpc.Faults.Since(before).TotalFaults())

	step("commodity-app: mmap(256MB) + touch — Linux demand paging")
	caddr, _, err := node.Mmap(com, 256<<20, prot, vma.KindAnon)
	if err != nil {
		fail(err)
	}
	before = com.Faults
	if _, err := node.TouchRange(com, caddr, 256<<20); err != nil {
		fail(err)
	}
	cst := com.Faults.Since(before)
	fmt.Printf("    first touch of 256MB: %d page faults (%d large, %d small)\n",
		cst.TotalFaults(), cst.Faults[fault.KindLarge], cst.Faults[fault.KindSmall])

	step("hpc-app exits — registry entry removed, pool memory returned")
	node.Exit(hpc)
	fmt.Printf("    pid %d registered: %v; pool free: %dGB of %dGB\n",
		hpc.PID, hp.Registered(hpc.PID), hp.PoolFreeBytes()>>30, hp.PoolTotalBytes()>>30)

	step("rmmod hpmmap")
	node.Exit(com)
	if err := hp.Uninstall(); err != nil {
		fail(err)
	}
	fmt.Printf("    interposition removed; all processes route to %q again\n",
		node.DefaultMM().Name())
}
