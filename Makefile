# Build, test and hygiene targets. `make check` is the pre-commit gate
# referenced from README.md: vet + formatting + race tests over the
# instrumented packages.

GO ?= go

.PHONY: all build test check race fuzz-smoke bench-module chaos cluster-smoke bench bench-json bench-scale bench-scale-smoke bench-scale-check bench-approx bench-models bench-models-check bench-dynamic fmt vet lint

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check runs the hygiene gate: go vet, gofmt -l (fails on any unformatted
# file), the race detector over the packages that share state between
# goroutines, and the nested benchmark module.
check: vet fmt race bench-module

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./internal/obs/... ./internal/httpcdn/... ./internal/clusterd/... ./internal/sim/... ./internal/lrumodel/... ./internal/placement/... ./internal/control/... ./internal/cache/... ./internal/stats/... ./internal/workload/...

# fuzz-smoke runs the two differential fuzz targets of the simulator's
# request loop for 10 s each: the arena LRU/FIFO against the slice
# reference, and the guided inverse-CDF search against
# sort.SearchFloat64s. Minimizing a new corpus entry is capped, or it
# eats the whole budget.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLRUOps -fuzztime 10s -fuzzminimizetime 20x ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzGuideSearch -fuzztime 10s -fuzzminimizetime 20x ./internal/stats/

# bench-module compiles, vets and tests bench/, which `./...` does not
# reach (it is a module of its own): a change to an exported signature
# that bench/boot.go uses fails here, not in the benchmark run. ~18 s.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# chaos runs both failure drills under the race detector. In-process
# (TestChaosEdgeChurn): the fault injector kills two live edges mid-load,
# the health tracker ejects them, the controller re-places around them,
# and every client request must still be served. Multi-process components
# (TestClusterChaosDrill): fault an edge mid-load; zero lost requests; the
# control plane's audit ring records the exclusion and readmission.
chaos:
	$(GO) test -race -count=1 -run TestChaosEdgeChurn -v ./internal/httpcdn/
	$(GO) test -race -count=1 -run TestClusterChaosDrill -v ./internal/clusterd/

# cluster-smoke exercises the multi-process deployment end to end: four
# separate processes booted by scripts/cluster-smoke.sh, the load
# generator's drill against them, and BENCH_cluster.json written from
# measured throughput/latency.
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

# bench runs the observability-overhead benchmarks (<100ns/op budget).
bench:
	$(GO) test -bench=. -run=NONE ./internal/obs/ ./internal/cache/

# bench-json regenerates BENCH_sim.json: sequential vs parallel
# simulator and placement timings with the hardware context recorded.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_sim.json

# bench-scale regenerates BENCH_scale.json: scenario build, lazy vs
# scanning placement, the ε-approximate engine, the cold/warm reconcile
# pair and simulator throughput at paper size ×{1,4,10}. The scanning
# engine is skipped above ×4 (it is the point of the sweep that it
# stops being practical). Budget ~15 minutes on one core.
bench-scale:
	$(GO) run ./cmd/benchjson -suite scale -out BENCH_scale.json

# bench-scale-smoke is the CI-sized sweep: small factors, fewer
# requests, same JSON schema, written to a separate file so the
# committed baseline survives as the -compare reference. It exists to
# catch scaling regressions on every push without paying for the ×10
# run.
bench-scale-smoke:
	$(GO) run ./cmd/benchjson -suite scale -factors 1,2 -scanmax 2 -requests 50000 -out BENCH_scale_smoke.json

# bench-scale-check runs the smoke sweep and gates it against the
# committed BENCH_scale.json: any placement benchmark more than 15%
# slower fails, unless the hardware context differs (a different
# machine downgrades the gate to a warning — timings across machines
# are not a regression signal).
bench-scale-check: bench-scale-smoke
	$(GO) run ./cmd/benchjson -compare BENCH_scale.json -fail-above 15 BENCH_scale_smoke.json

# bench-approx regenerates BENCH_approx.json: the ε-approximate
# engine's quality-versus-time sweep (ε ∈ {0, 1e-3, 1e-2} against the
# exact lazy baseline) plus the cold/warm incremental-reconcile pair.
bench-approx:
	$(GO) run ./cmd/benchjson -suite approx -factors 1,4 -out BENCH_approx.json

# bench-models regenerates BENCH_models.json: a cold hybrid placement
# solve timed under each analytical hit-ratio model (eq1, che,
# closedform, random) on a large per-site catalog, with speedup and
# final-cost delta against the eq1 baseline. Budget ~1 minute (the Che
# fixed point dominates).
bench-models:
	$(GO) run ./cmd/benchjson -suite models -out BENCH_models.json

# bench-dynamic regenerates BENCH_dynamic.json: simulator throughput
# against a frozen hybrid placement while the catalog churns at
# per-site perish rates {0, 5e-05, 2.5e-04}, with each run's
# stale-placement fraction.
bench-dynamic:
	$(GO) run ./cmd/benchjson -suite dynamic -out BENCH_dynamic.json

# bench-models-check runs the models suite into a fresh file and gates
# it against the committed BENCH_models.json: any model row more than
# 15% slower fails, unless the hardware context differs (cross-machine
# timings downgrade the gate to a warning).
bench-models-check:
	$(GO) run ./cmd/benchjson -suite models -out BENCH_models_smoke.json
	$(GO) run ./cmd/benchjson -compare BENCH_models.json -fail-above 15 BENCH_models_smoke.json
