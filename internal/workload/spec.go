// Package workload models the paper's applications: the Mantevo
// mini-apps (HPCCG, CoMD, miniMD, miniFE), ASC Sequoia LAMMPS, and the
// parallel-kernel-build commodity workload used as interference. Each HPC
// application is a bulk-synchronous rank driver that allocates memory
// through the simulated system-call layer (so faults, large pages,
// merges, storms all come from the memory-management machinery) and runs
// iterations whose cost composes compute, TLB overhead, NUMA locality and
// scheduler share.
package workload

import "hpmmap/internal/sim"

// AppSpec parameterizes one HPC application in weak-scaling mode: every
// field is per rank and stays constant as ranks are added.
type AppSpec struct {
	Name string

	// FootprintPerRank is the main data-array volume per rank.
	FootprintPerRank uint64
	// SmallFraction of the footprint is allocated through the glibc-style
	// heap in small increments (metadata, small mallocs, MPI buffers) —
	// the memory that ends up 4KB-mapped under THP.
	SmallFraction float64
	// StackBytes is touched during startup.
	StackBytes uint64
	// AllocChunk is the mmap granularity for the big arrays.
	AllocChunk uint64
	// BrkStep is the heap extension increment.
	BrkStep uint64

	// Iterations of the main solve loop.
	Iterations int
	// ComputePerIter is the uncontended CPU work per iteration.
	ComputePerIter sim.Cycles
	// AccessesPerIter is the TLB-relevant memory access count per
	// iteration (drives the page-size-dependent walk overhead).
	AccessesPerIter uint64
	// Locality in [0,1): probability an access hits hot data regardless
	// of footprint.
	Locality float64
	// MemBoundFactor in [0,1]: sensitivity of compute to memory-bandwidth
	// contention and NUMA remoteness.
	MemBoundFactor float64
	// BandwidthWeight is the share of one core's memory bandwidth a rank
	// consumes while computing.
	BandwidthWeight float64

	// ChurnPerIter is remapped each iteration (neighbor lists, work
	// buffers): an mmap/touch/munmap cycle that keeps the fault path hot
	// for the entire run.
	ChurnPerIter uint64
	// SmallChurnPerIter is a sub-hugetlb-threshold buffer remapped each
	// iteration (MPI bounce buffers, runtime scratch): 4KB-mapped under
	// both Linux managers, eagerly mapped under HPMMAP. This is the
	// ongoing small-fault traffic visible throughout the paper's fault
	// timelines.
	SmallChurnPerIter uint64
	// HeapChurnPerIter is allocated through the heap each iteration
	// (small temporary objects), growing the glibc heap tail.
	HeapChurnPerIter uint64

	// CommBytesPerIter is the per-rank halo-exchange volume (multi-node
	// runs); CollectiveFactor scales the per-iteration allreduce count.
	CommBytesPerIter uint64
	CollectiveFactor float64

	// SharedPerPeer is the MPI shared-memory segment size established
	// with each same-node peer rank (OpenMPI's sm BTL FIFOs and bounce
	// buffers). File-backed: 4KB-mapped under both Linux managers and
	// never hugetlb-backed — the app-side memory that grows
	// superlinearly with ranks and squeezes the unreserved pool in the
	// HugeTLBfs configuration.
	SharedPerPeer uint64

	// SetupSteps spreads initial allocation/first-touch over this many
	// segments, so the fault timeline matches a real initialization
	// phase.
	SetupSteps int
}

// The five benchmarks. Compute costs are calibrated for the 2.2GHz
// single-node testbed so weak-scaled runtimes land in the ranges of the
// paper's Figure 7; the cluster preset's higher clock is absorbed by the
// cycle-denominated model.
//
// HPCCG: a conjugate-gradient solver — bandwidth-bound, short iterations,
// medium footprint.
func HPCCG() AppSpec {
	return AppSpec{
		Name:              "HPCCG",
		FootprintPerRank:  1250 << 20,
		SmallFraction:     0.10,
		StackBytes:        2 << 20,
		AllocChunk:        256 << 20,
		BrkStep:           256 << 10,
		Iterations:        120,
		ComputePerIter:    1_250_000_000,
		AccessesPerIter:   9_000_000,
		Locality:          0.72,
		MemBoundFactor:    0.55,
		BandwidthWeight:   0.65,
		ChurnPerIter:      4 << 20,
		SmallChurnPerIter: 448 << 10,
		HeapChurnPerIter:  64 << 10,
		CommBytesPerIter:  2 << 20,
		CollectiveFactor:  1.0,
		SharedPerPeer:     24 << 20,
		SetupSteps:        16,
	}
}

// CoMD: classical molecular dynamics — compute-heavy, good locality.
func CoMD() AppSpec {
	return AppSpec{
		Name:              "CoMD",
		FootprintPerRank:  1250 << 20,
		SmallFraction:     0.12,
		StackBytes:        2 << 20,
		AllocChunk:        256 << 20,
		BrkStep:           256 << 10,
		Iterations:        150,
		ComputePerIter:    3_500_000_000,
		AccessesPerIter:   14_000_000,
		Locality:          0.78,
		MemBoundFactor:    0.40,
		BandwidthWeight:   0.50,
		ChurnPerIter:      8 << 20,
		SmallChurnPerIter: 384 << 10,
		HeapChurnPerIter:  96 << 10,
		CommBytesPerIter:  1 << 20,
		CollectiveFactor:  0.5,
		SharedPerPeer:     24 << 20,
		SetupSteps:        16,
	}
}

// MiniMD: force-computation proxy — the paper's fault-study subject.
// Its large small-allocation volume (≈500MB of heap per rank) produces
// the ~136K small faults of Figure 2.
func MiniMD() AppSpec {
	return AppSpec{
		Name:              "miniMD",
		FootprintPerRank:  1250 << 20,
		SmallFraction:     0.35,
		StackBytes:        3 << 20,
		AllocChunk:        256 << 20,
		BrkStep:           256 << 10,
		Iterations:        180,
		ComputePerIter:    3_400_000_000,
		AccessesPerIter:   20_000_000,
		Locality:          0.80,
		MemBoundFactor:    0.35,
		BandwidthWeight:   0.55,
		ChurnPerIter:      12 << 20,
		SmallChurnPerIter: 512 << 10,
		HeapChurnPerIter:  128 << 10,
		CommBytesPerIter:  1 << 20,
		CollectiveFactor:  0.5,
		SharedPerPeer:     24 << 20,
		SetupSteps:        20,
	}
}

// MiniFE: unstructured implicit finite elements — assembly plus solve,
// bandwidth-bound, lots of indirection (lower locality).
func MiniFE() AppSpec {
	return AppSpec{
		Name:              "miniFE",
		FootprintPerRank:  1250 << 20,
		SmallFraction:     0.15,
		StackBytes:        2 << 20,
		AllocChunk:        256 << 20,
		BrkStep:           256 << 10,
		Iterations:        110,
		ComputePerIter:    1_450_000_000,
		AccessesPerIter:   10_000_000,
		Locality:          0.68,
		MemBoundFactor:    0.55,
		BandwidthWeight:   0.65,
		ChurnPerIter:      6 << 20,
		SmallChurnPerIter: 448 << 10,
		HeapChurnPerIter:  96 << 10,
		CommBytesPerIter:  2 << 20,
		CollectiveFactor:  1.0,
		SharedPerPeer:     24 << 20,
		SetupSteps:        16,
	}
}

// LAMMPS: production molecular dynamics — the least memory-sensitive of
// the set (the paper's 2–4% improvement case).
func LAMMPS() AppSpec {
	return AppSpec{
		Name:              "LAMMPS",
		FootprintPerRank:  1150 << 20,
		SmallFraction:     0.18,
		StackBytes:        4 << 20,
		AllocChunk:        256 << 20,
		BrkStep:           256 << 10,
		Iterations:        200,
		ComputePerIter:    1_350_000_000,
		AccessesPerIter:   4_000_000,
		Locality:          0.86,
		MemBoundFactor:    0.25,
		BandwidthWeight:   0.40,
		ChurnPerIter:      4 << 20,
		SmallChurnPerIter: 256 << 10,
		HeapChurnPerIter:  64 << 10,
		CommBytesPerIter:  1536 << 10,
		CollectiveFactor:  0.6,
		SharedPerPeer:     24 << 20,
		SetupSteps:        16,
	}
}

// Names are the benchmark names ByName takes, one spelling each.
var Names = []string{"HPCCG", "CoMD", "miniMD", "miniFE", "LAMMPS"}

// ByName returns the spec for a benchmark name, spelled as in Names, or
// false.
func ByName(name string) (AppSpec, bool) {
	switch name {
	case "HPCCG":
		return HPCCG(), true
	case "CoMD":
		return CoMD(), true
	case "miniMD":
		return MiniMD(), true
	case "miniFE":
		return MiniFE(), true
	case "LAMMPS":
		return LAMMPS(), true
	}
	return AppSpec{}, false
}

// ScaleWork scales the per-rank problem size: footprint, compute,
// accesses, churn and communication all grow together, as they do when a
// weak-scaled input is enlarged. Used to size the cluster-study inputs.
func (s AppSpec) ScaleWork(f float64) AppSpec {
	s.FootprintPerRank = uint64(float64(s.FootprintPerRank) * f)
	s.ComputePerIter = sim.Cycles(float64(s.ComputePerIter) * f)
	s.AccessesPerIter = uint64(float64(s.AccessesPerIter) * f)
	s.ChurnPerIter = uint64(float64(s.ChurnPerIter) * f)
	s.HeapChurnPerIter = uint64(float64(s.HeapChurnPerIter) * f)
	s.SmallChurnPerIter = uint64(float64(s.SmallChurnPerIter) * f)
	s.CommBytesPerIter = uint64(float64(s.CommBytesPerIter) * f)
	return s
}
