# Tier-1 verification for this repository. `make verify` is what CI
# runs: build everything, run every test, re-run the whole tree under
# the race detector, vet, and run the detsim determinism linter
# (cmd/hpmmap-vet — see ANALYSIS.md). The observability contract
# (OBSERVABILITY.md rows <-> internal/metrics/names.go constants <->
# source-tree usage) is enforced by internal/metrics/contract_test.go,
# which `test` includes; its weakest leg (registration-site constants)
# is additionally enforced at lint time by the metricname analyzer.

GO ?= go

.PHONY: verify build test race vet lint lint-fast cross bench bench-check fuzz chaos datacenter eviction

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
# poolescape, hotpath, and allowaudit, which fails on a stale
# //detsim:allow directive; see ANALYSIS.md), run through the go
# command's vet harness. Manual invocation:
#   go build -o bin/hpmmap-vet ./cmd/hpmmap-vet
#   go vet -vettool=$(pwd)/bin/hpmmap-vet ./...
lint:
	$(GO) build -o bin/hpmmap-vet ./cmd/hpmmap-vet
	$(GO) vet -vettool=$(abspath bin/hpmmap-vet) ./...

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

# Cross-build for a GOARCH without assembly kernels: off amd64,
# internal/sim's StdNormals is the scalar loop of boxmuller_other.go.
# Build the tree and vet the two packages that use it.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/sim ./internal/linuxmm

# The benchmark (BENCHMARK.json; see benchmark/README.md): every
# workload interleaved, with end-to-end and per-layer numbers and their
# noise bands. It measures and gates nothing. The two allocation claims
# are tests: the uninstrumented fault path
# (TestUninstrumentedPathAllocates0) and pooled fork/exit
# (TestPooledForkExitAllocates0) allocate nothing.
bench:
	bash benchmark/run.sh

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
#  - kernel/FuzzPageCache: the run-based page cache, its in-place
#    recycle loop above all, against a per-block cache with one gated
#    allocation, drop or free per block;
#  - pgtable/FuzzTable: the page table, UnmapRange and MapRun4K above
#    all, against a leaf-by-leaf teardown and page-by-page mapping twin
#    and a flat model of the live leaves;
#  - buddy/FuzzAllocator: the HPMMAP pool against a map-based
#    reference allocator, block for block in hand-out order;
#  - vma/FuzzSpace: the address space, node pool on, against a sorted
#    interval slice, region for region and counter for counter;
#  - sim/FuzzEngine: the event-value heap against a container/heap
#    engine of heap-allocated events;
#  - sim/FuzzBoxMullerCos: Normal's branch-free cosine against
#    math.Cos, bit for bit, at any angle in [0, 2π);
#  - sim/FuzzStdNormals: StdNormals' AVX2 Box–Muller kernel against its
#    scalar loop, bit for bit, at any pair in Normal's domain;
#  - metrics/FuzzParseExposition, ledger/FuzzRead and
#    runner/FuzzCacheGet: the decoders of on-disk bytes never panic,
#    and what they accept round-trips through WriteOpenMetrics, Marshal
#    and the result cache's put to the same bytes.
# Plain `go test` replays each committed seed corpus
# (internal/<pkg>/testdata/fuzz/<target>); this explores further. A
# failing input is written back under that directory.
FUZZTIME ?= 30s
FUZZ_TARGETS = mem/FuzzZoneRuns kernel/FuzzPageCache pgtable/FuzzTable buddy/FuzzAllocator vma/FuzzSpace sim/FuzzEngine sim/FuzzBoxMullerCos sim/FuzzStdNormals metrics/FuzzParseExposition ledger/FuzzRead runner/FuzzCacheGet
fuzz:
	@for t in $(FUZZ_TARGETS); do \
	  echo "fuzz: $$t for $(FUZZTIME)"; \
	  $(GO) test -run '^$$' -fuzz "^$${t#*/}\$$" -fuzztime $(FUZZTIME) ./internal/$${t%/*} || exit 1; \
	done

# Quick contention-storm study (see DESIGN.md §8): chaos intensity x
# manager with the invariant auditor attached, small scale for speed.
chaos:
	$(GO) run ./cmd/hpmmap-bench -exp chaos -scale 0.25 -runs 2 -audit -v

# Quick datacenter churn study (see DESIGN.md §11): mixed-tenancy pod
# churn x chaos on one node, per-class tail latency + interference,
# with the CSV dropped into ./out for inspection.
datacenter:
	$(GO) run ./cmd/hpmmap-bench -exp datacenter -scale 0.25 -audit -v -out out

# Overcommit x node-failure eviction study (DESIGN.md §12). Scale 0.1
# with -cores 2: at this scale the default 4-rank victim oversubscribes
# the HPMMAP zone budget.
eviction:
	$(GO) run ./cmd/hpmmap-bench -exp eviction -scale 0.1 -cores 2 -audit -v -out out
