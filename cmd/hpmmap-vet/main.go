// Command hpmmap-vet is the detsim determinism-and-invariant linter: a
// go/analysis unitchecker bundling the analyzers in internal/analysis
// (wallclock, randsource, maporder, panicsite, metricname,
// streamcarve, poolescape, hotpath, and the opt-in allowaudit). It is
// driven by the go command's vet harness, which supplies type
// information per package:
//
//	go build -o bin/hpmmap-vet ./cmd/hpmmap-vet
//	go vet -vettool=$(pwd)/bin/hpmmap-vet ./...
//
// or simply `make lint` (part of `make verify`). Passing -json to go
// vet emits the unitchecker JSON finding tree per package; stale
// //detsim:allow sweeps run with -allowaudit.enable (`make
// lint-audit`).
//
// Besides the unitchecker protocol, one standalone mode (first
// argument) supports `make lint-audit`:
//
//	hpmmap-vet -list-allows       list every //detsim:allow directive
//	                              in the tree with file:line and reason
//
// A finding can be suppressed with a `//detsim:allow <reason>` comment
// on the flagged line or the line above it; the reason is mandatory.
// See ANALYSIS.md for the rules each analyzer enforces and why.
package main

import (
	"os"

	"golang.org/x/tools/go/analysis/unitchecker"

	"hpmmap/internal/analysis"
)

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "-list-allows" || os.Args[1] == "--list-allows") {
		os.Exit(listAllowsMain(os.Args[2:]))
	}
	unitchecker.Main(analysis.Analyzers()...)
}
