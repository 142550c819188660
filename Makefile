# Tier-1 verification for this repository. `make verify` is what CI
# runs: build everything, run every test, re-run the whole tree under
# the race detector, vet, and run the detsim determinism linter
# (cmd/hpmmap-vet — see ANALYSIS.md). The observability contract
# (OBSERVABILITY.md rows <-> internal/metrics/names.go constants <->
# source-tree usage) is enforced by internal/metrics/contract_test.go,
# which `test` includes; its weakest leg (registration-site constants)
# is additionally enforced at lint time by the metricname analyzer.

GO ?= go

.PHONY: verify build test race vet lint lint-fast lint-audit lint-report bench bench-check fuzz chaos datacenter eviction

verify: build test race vet lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# The detsim determinism-and-invariant analyzer suite (wallclock,
# randsource, maporder, panicsite, metricname, streamcarve,
# poolescape, hotpath; see ANALYSIS.md), run through the go command's
# vet harness. Manual invocation:
#   go build -o bin/hpmmap-vet ./cmd/hpmmap-vet
#   go vet -vettool=$(pwd)/bin/hpmmap-vet ./...
# HPMMAP_VET_TIMING_FILE makes every analyzer execution append a
# timing record; the summary (slowest analyzer first) covers exactly
# the package units the vet cache re-analyzed this run.
lint:
	$(GO) build -o bin/hpmmap-vet ./cmd/hpmmap-vet
	@rm -f bin/lint-timing.jsonl
	HPMMAP_VET_TIMING_FILE=$(abspath bin/lint-timing.jsonl) \
		$(GO) vet -vettool=$(abspath bin/hpmmap-vet) ./...
	@bin/hpmmap-vet -timing-summary bin/lint-timing.jsonl

# Fast lint for the edit loop: vet only the packages with .go changes
# in the working tree or the last commit. Deleted directories are
# skipped; falls back to "nothing to lint" when the diff is clean.
lint-fast:
	$(GO) build -o bin/hpmmap-vet ./cmd/hpmmap-vet
	@dirs=$$( { git diff --name-only HEAD -- '*.go'; \
	            git diff --name-only HEAD~1..HEAD -- '*.go' 2>/dev/null; } \
	          | xargs -r -n1 dirname | sort -u); \
	pkgs=""; \
	for d in $$dirs; do \
	  case "$$d" in vendor|vendor/*|*testdata*) continue;; esac; \
	  [ -d "$$d" ] && pkgs="$$pkgs ./$$d"; \
	done; \
	if [ -z "$$pkgs" ]; then echo "lint-fast: no changed Go packages"; exit 0; fi; \
	echo "lint-fast:$$pkgs"; \
	$(GO) vet -vettool=$(abspath bin/hpmmap-vet) $$pkgs

# //detsim:allow hygiene: list every directive in the tree with its
# reason, then fail on stale ones (directives that no longer suppress
# any finding) via the opt-in allowaudit analyzer. The analyzer flag
# deliberately busts the vet result cache, so the audit always
# re-analyzes the full tree.
lint-audit:
	$(GO) build -o bin/hpmmap-vet ./cmd/hpmmap-vet
	bin/hpmmap-vet -list-allows
	$(GO) vet -vettool=$(abspath bin/hpmmap-vet) -allowaudit.enable ./...

# Machine-readable findings: the unitchecker JSON finding stream
# (go vet -json prints it on stderr) and its SARIF 2.1.0 conversion
# for code-scanning UIs. CI uploads both as the lint-report artifact.
# go vet -json exits 0 even with findings — `make lint` is the gate,
# this is the report.
lint-report:
	$(GO) build -o bin/hpmmap-vet ./cmd/hpmmap-vet
	$(GO) vet -json -vettool=$(abspath bin/hpmmap-vet) ./... 2> lint-report.json
	bin/hpmmap-vet -sarif < lint-report.json > lint-report.sarif

# Performance gate (see DESIGN.md §10). Three layers:
#  1. allocation benchmarks for the no-op instrumentation path (must
#     report 0 B/op on BenchmarkUninstrumentedFault);
#  2. hot-path microbenchmarks of the touch/allocation cycle (demand
#     THP, HugeTLBfs, gated 4K backing, HPMMAP pool) with -benchmem so
#     per-op allocation creep is visible in the log;
#  3. the fork/exit lifecycle microbenchmark (DESIGN.md §11): the
#     pooled variant must beat the unpooled baseline (>= 2x ns/op and
#     0 B/op at steady state — pooled results are printed first);
#  4. the simulator-throughput record: cmd/hpmmap-perf runs a reduced
#     Fig. 7 grid bare / observed / series-sampled / ledgered, compares
#     cells/sec against the committed BENCH_6.json (read before it is
#     rewritten) and FAILS on a >10% regression, then refreshes the
#     record. Each run also appends its record to bench-history.jsonl
#     (gitignored), a run ledger queryable with
#     `go run ./cmd/hpmmap-ledger summary bench-history.jsonl`.
bench:
	$(GO) test -bench 'Fault' -benchmem ./internal/metrics/
	$(GO) test -run xxx -bench 'TouchDemand|TouchHugetlb|GatedAlloc' -benchmem ./internal/linuxmm/
	$(GO) test -run xxx -bench 'HPMMAPTouchRange' -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'ForkExit' -benchmem ./internal/linuxmm/
	$(GO) run ./cmd/hpmmap-perf -out BENCH_6.json -baseline BENCH_6.json -regress-pct 10 \
		-ledger bench-history.jsonl \
		-cpuprofile bench-cpu.pprof -memprofile bench-mem.pprof

# The benchmark (BENCHMARK.json) against its committed digests.
# benchmark/ is its own module, so `make verify` never builds it, yet it
# compiles against internal/runner and internal/experiments. Vet and
# test the module, then run every workload for one second and fail
# unless its summary (the last line) reports correct output and no
# failed cell.
BENCH_WORKLOADS = fig7-grid faultstudy datacenter-churn chaos-audit
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	@for w in $(BENCH_WORKLOADS); do \
	  line=$$(bash benchmark/run.sh --workload $$w --seconds 1 | tail -n 1); \
	  echo "$$w: $$line"; \
	  echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -Eq '"failed":0[,}]' || \
	    { echo "bench-check: $$w is not correct or has failed cells"; exit 1; }; \
	done

# Differential fuzzing, FUZZTIME per target (`go test -fuzz` takes one
# target per run). Each target is package/Fuzz function:
#  - mem/FuzzZoneRuns: the zone's bulk run operations (AllocRun,
#    FreeRun) against block-at-a-time allocation and freeing;
#  - pgtable/FuzzTable: the page table, UnmapRange above all, against a
#    leaf-by-leaf teardown twin and a flat model of the live leaves;
#  - sim/FuzzEngine: the pooled event queue against the container/heap
#    engine it replaced.
# Plain `go test` replays each committed seed corpus
# (internal/<pkg>/testdata/fuzz/<target>); this explores further. A
# failing input is written back under that directory.
FUZZTIME ?= 30s
FUZZ_TARGETS = mem/FuzzZoneRuns pgtable/FuzzTable sim/FuzzEngine
fuzz:
	@for t in $(FUZZ_TARGETS); do \
	  echo "fuzz: $$t for $(FUZZTIME)"; \
	  $(GO) test -run '^$$' -fuzz "^$${t#*/}\$$" -fuzztime $(FUZZTIME) ./internal/$${t%/*} || exit 1; \
	done

# Quick contention-storm study (see DESIGN.md §8): chaos intensity x
# manager with the invariant auditor attached, small scale for speed.
chaos:
	$(GO) run ./cmd/hpmmap-bench -study chaos -scale 0.25 -runs 2 -audit -v

# Quick datacenter churn study (see DESIGN.md §11): mixed-tenancy pod
# churn x chaos on one node, per-class tail latency + interference,
# with the CSV dropped into ./out for inspection.
datacenter:
	$(GO) run ./cmd/hpmmap-bench -study datacenter -scale 0.25 -audit -v -out out

# Overcommit x node-failure eviction study (DESIGN.md §12). Scale 0.1
# with -cores 2: at this scale the default 4-rank victim oversubscribes
# the HPMMAP zone budget.
eviction:
	$(GO) run ./cmd/hpmmap-bench -study eviction -scale 0.1 -cores 2 -audit -v -out out
