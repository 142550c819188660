package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe: a fixed piece of branchy, cache-resident work that a
// goroutine of the rep process runs every probePeriod while the
// simulation runs, timing each pass in its thread's CPU time. On a shared
// host the CPUs slow down and speed up as the neighbours' load comes and
// goes: over 30-45 reps of one draw, a rep's CPU time had a quartile spread of 10-34% of its
// median, and one workload's CPU time doubled within five minutes. The
// probe slows with the simulation at the same moments (the logs of the
// two correlate by 0.6-0.9), but less: the simulation's time grew as the
// probe's to a power of 1.0 to 1.7, depending on the workload and the
// hour. So each rep's wall and CPU times are scaled by (probeNominalNS ÷
// the median pass of that rep) ^ probeExponent. Over nine such series,
// the quartile spread of medians of six consecutive reps fell from 6-39%
// unscaled to 4-10%. A memory reference timed between reps, in the
// parent process, had tracked the simulation so loosely that scaling by
// it widened the spread.
//
// A pass takes about a third of a millisecond, so the probe takes about
// 3% of one worker's time, the same share whatever the simulation does.
// Its samples are dropped from the traced rep's CPU profile (probePrefix).
const (
	probePeriod    = 10 * time.Millisecond
	probeIters     = 50_000
	probeNominalNS = 6.0 // ns per iteration, about a pass on a quiet 2-vCPU Xeon VM
	probeExponent  = 1.5
)

// probeSink keeps the compiler from dropping the probe's work.
var probeSink uint64

// startProbe starts the probe, whose first pass runs at once. The
// returned function stops it and returns the median pass in ns per
// iteration.
func startProbe() (stop func() float64) {
	quit := make(chan struct{})
	done := make(chan float64)
	go func() {
		// Locked to its OS thread, the goroutine can time its passes in
		// that thread's CPU time.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var passes []float64
		pass := func() {
			start := threadCPUNS()
			probeSink += probeLoop(probeIters)
			passes = append(passes, float64(threadCPUNS()-start)/probeIters)
		}
		pass()
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- median(passes)
				return
			case <-tick.C:
				pass()
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-done
	}
}

// probeLoop is one pass: xorshift steps that update a 4 KB table and
// branch on what they read, half the branches mispredicted.
func probeLoop(n int) uint64 {
	var tab [512]uint64
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[x&511] += x
		if tab[(x>>9)&511]&1 == 0 {
			x += 3
		}
	}
	return x + tab[3]
}

// threadCPUNS returns the calling thread's CPU time. A pass timed in it
// leaves out the time the thread waited while the simulation's threads
// held the CPUs, which a wall-clock pass would count.
func threadCPUNS() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
