GO ?= go
BENCH_OUT ?= BENCH_9.json
# bench-compare inputs: the stored baseline and the report to vet against it.
BENCH_OLD ?= BENCH_8.json
BENCH_NEW ?= $(BENCH_OUT)
BENCH_THRESHOLD ?= 15

.PHONY: build vet vet-perfbench fmt-check test race race-exec loadgen-smoke check bench bench-compare

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-perfbench compiles and vets the benchmark: perfbench is its own module,
# so the root build and vet never see it, and an internal API change could
# break `bash perfbench/run.sh` with everything else green.
vet-perfbench:
	cd perfbench && $(GO) vet ./...

# fmt-check fails when any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... .

# race-exec focuses the detector on the parallel experiment executor and the
# memoized grids its concurrent cells share, the simulator it fans out over,
# the lock-free trace ring they emit into, the metrics sampler and its SSE
# subscribers, the SLO burn-rate engine, the async job queue and its
# change-notify watches, the resource-budget accounting, the model registry,
# the data-parallel training stack (neural/linreg worker pools, flat sample
# tensors), the continuous profiler's capture ring, and the tenant-aware
# planner catalog (single-flight loads, LRU eviction, per-entry locking) —
# the packages with real concurrency.
race-exec:
	$(GO) test -race ./internal/experiments/... ./internal/grid/... ./internal/sim/... ./internal/trace/... ./internal/obs/... ./internal/slo/... ./internal/jobs/... ./internal/limits/... ./internal/registry/... ./internal/neural/... ./internal/linreg/... ./internal/approx/... ./internal/tensor/... ./internal/prof/... ./internal/catalog/...

# loadgen-smoke drives a short open-loop run (2s at 20 rps) against an
# in-process tmplard and fails if any default SLO breaches.
loadgen-smoke:
	$(GO) test ./cmd/loadgen/ -run 'TestSmoke|TestMultiTenantSmoke|TestFailsOnInducedBreach' -v

# check is what CI runs (.github/workflows/ci.yml).
check: build vet vet-perfbench fmt-check test race loadgen-smoke

# bench runs the full suite and writes a machine-readable report (ns/op,
# B/op, allocs/op and every custom metric) to $(BENCH_OUT).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# bench-compare diffs two bench reports and fails on ns/op regressions
# beyond $(BENCH_THRESHOLD) percent:
#   make bench-compare BENCH_OLD=BENCH_2.json BENCH_NEW=BENCH_3.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) $(BENCH_OLD) $(BENCH_NEW)
