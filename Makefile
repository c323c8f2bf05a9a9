# Build, test and hygiene targets. `make check` is the pre-commit gate
# referenced from README.md: vet + formatting + race tests over the
# instrumented packages.

GO ?= go

.PHONY: all build test check race fuzz-smoke bench-module cross chaos cluster-smoke bench fmt vet lint

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check runs the hygiene gate: go vet, gofmt -l (fails on any unformatted
# file), the race detector over the packages that share state between
# goroutines, the nested benchmark module, and the arm64 cross-build.
check: vet fmt race bench-module cross

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# race also repeats, ten times over, the tests of the engine's upstream
# transport (internal/httpcdn/transport.go): its idle pool and the body
# that hands a connection back are shared between the serving goroutines,
# and the context's AfterFunc interrupts I/O from another goroutine. The
# same goes for the server's connection loop (internal/serverutil): its
# hang-up watcher reads the socket beside the serving goroutine, and
# Shutdown closes connections from another; and for the simulator's block
# loop (internal/sim/loop.go): its goroutines share the per-server caches
# block after block, and a run that stops mid-block must still wait for
# them.
race:
	$(GO) test -race ./internal/obs/... ./internal/httpcdn/... ./internal/clusterd/... ./internal/serverutil/... ./internal/sim/... ./internal/lrumodel/... ./internal/placement/... ./internal/control/... ./internal/cache/... ./internal/stats/... ./internal/workload/...
	$(GO) test -race -count=10 -run '^(TestTransport.*|TestUpstreamConnectionsAreReused|TestStaleUpstreamConnectionCostsNothing|TestClientHangUpBlamesNoUpstream)$$' ./internal/httpcdn/
	$(GO) test -race -count=10 -run '^(TestConnProtocol|TestHangUpCancelsContext|TestHitStartsNoGoroutine|TestWatcher.*|TestShutdown.*)$$' ./internal/serverutil/
	$(GO) test -race -count=10 -run '^(TestRunParallelMatchesRun.*|TestDynamicSeqVsParallelIdentical|TestRunParallelStopsMidRun)$$' ./internal/sim/

# fuzz-smoke runs every fuzz target for 10 s: the simulator's request
# loop (the arena LRU/FIFO against the slice reference, the guided
# inverse-CDF search against sort.SearchFloat64s, the server-grouped
# runners against the one-request stepper, the crash runner against its
# reference loop), the model's Jensen
# upper bound and its Equation (1) kernel, the hybrid placement heap
# against its scanning oracle, and the network-facing parsers and
# decoders: Traceparent headers, object paths, ETags, the control
# plane's demand reports, an edge's placement pushes, span traces
# replayed through the simulator and arbitrary bytes on a server
# connection. Minimizing a new corpus entry is
# capped, or it eats the whole budget.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLRUOps$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cache/
	$(GO) test -run '^$$' -fuzz '^FuzzGuideSearch$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/stats/
	$(GO) test -run '^$$' -fuzz '^FuzzRunSourceMatchesStepper$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzCrashRunMatchesOracle$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSiteHitUpper$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/lrumodel/
	$(GO) test -run '^$$' -fuzz '^FuzzSiteHitEq1$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/lrumodel/
	$(GO) test -run '^$$' -fuzz '^FuzzHybridMatchesOracle$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/placement/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzParseObjectPath$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/httpcdn/
	$(GO) test -run '^$$' -fuzz '^FuzzVersionFromETag$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/httpcdn/
	$(GO) test -run '^$$' -fuzz '^FuzzReportBatch$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/clusterd/
	$(GO) test -run '^$$' -fuzz '^FuzzPlacementPush$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/clusterd/
	$(GO) test -run '^$$' -fuzz '^FuzzSpanReplay$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/serverutil/

# bench-module compiles, vets and tests bench/, which `./...` does not
# reach (it is a module of its own): a change to an exported signature
# that bench/boot.go uses fails here, not in the benchmark run. ~18 s.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# cross vets and builds the tree for arm64, where the Equation (1)
# kernel has no assembly (internal/lrumodel/kernel_other.go), so the
# portable path keeps compiling. On amd64, go vet already checks the
# assembly's frame offsets.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# chaos runs the failure drill under the race detector
# (TestClusterChaosDrill): fault an edge mid-load and from the first
# request, then two of three edges at once; zero lost requests; the
# control plane's audit ring records the exclusion and readmission.
chaos:
	$(GO) test -race -count=1 -run TestClusterChaosDrill -v ./internal/clusterd/

# cluster-smoke exercises the multi-process deployment end to end: four
# `cdnd control|origin|edge` processes booted by scripts/cluster-smoke.sh,
# `cdnd load`'s drill against them, and BENCH_cluster.json (untracked)
# written from measured throughput/latency.
cluster-smoke:
	sh scripts/cluster-smoke.sh

# lint runs staticcheck and govulncheck when they are installed and
# skips them otherwise (CI installs both; offline dev machines may not
# have them, and this repo adds no module dependencies).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# bench runs the observability-overhead benchmarks (<100ns/op budget)
# and the edge engine's hit and miss paths (BenchmarkServeHit/Miss, with
# allocations).
bench:
	$(GO) test -bench=. -run=NONE ./internal/obs/ ./internal/cache/ ./internal/httpcdn/
