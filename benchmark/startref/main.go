// Command startref is the benchmark's start-up reference: an empty Go
// program that prints how many nanoseconds after its parent spawned it
// it reached main. The parent passes the spawn time (Unix ns) in
// HPMMAP_BENCH_SPAWN_NS, as it does for a rep. It imports nothing from
// the simulator, so a change to the simulator's start-up does not move it.
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

func main() {
	spawned, err := strconv.ParseInt(os.Getenv("HPMMAP_BENCH_SPAWN_NS"), 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "startref: HPMMAP_BENCH_SPAWN_NS is not set")
		os.Exit(2)
	}
	fmt.Println(time.Now().UnixNano() - spawned)
}
