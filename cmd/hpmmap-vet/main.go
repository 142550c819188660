// Command hpmmap-vet is the detsim determinism-and-invariant linter: a
// go/analysis unitchecker bundling the analyzers in internal/analysis
// (wallclock, randsource, maporder, panicsite, metricname,
// streamcarve, poolescape, hotpath, and allowaudit, which fails on a
// stale //detsim:allow directive). It is driven by the go command's
// vet harness, which supplies type information per package:
//
//	go build -o bin/hpmmap-vet ./cmd/hpmmap-vet
//	go vet -vettool=$(pwd)/bin/hpmmap-vet ./...
//
// or simply `make lint` (part of `make verify`). Passing -json to go
// vet emits the unitchecker JSON finding tree per package.
//
// A finding can be suppressed with a `//detsim:allow <reason>` comment
// on the flagged line or the line above it; the reason is mandatory.
// `git grep -n '//detsim:allow'` lists every directive in the tree.
// See ANALYSIS.md for the rules each analyzer enforces and why.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"hpmmap/internal/analysis"
)

func main() {
	unitchecker.Main(analysis.Analyzers()...)
}
