# Convenience targets for the sthist reproduction.

GO ?= go

.PHONY: all build vet lint lint-fix lint-sarif test race bench bench-micro bench-smoke bench-json bench-guard bench-concurrency bench-drift bench-trace bench-cluster cluster-smoke obs-demo examples experiments cover

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis over every package (see DESIGN.md "Static
# analysis & enforced invariants"): the typed sthlint driver with the
# lockcheck, determinism, errflow, walorder, ctxflow, leakcheck, publish and
# spanend analyzers. Exits non-zero on any finding not ignored in source.
lint:
	$(GO) run ./cmd/sthlint ./...

# Applies the suggested fixes (error discards, deferred closes, span End,
# traceparent injection) in place, then re-lints the changed tree.
lint-fix:
	$(GO) run ./cmd/sthlint -fix ./...

# The lint gate CI runs: findings as text on stdout, plus the SARIF 2.1.0
# report CI uploads for code-scanning annotations.
lint-sarif:
	$(GO) run ./cmd/sthlint -sarif sthlint.sarif ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Paper experiment benchmarks (tables/figures at reduced scale); see
# EXPERIMENTS.md. Micro-benchmarks of the maintenance path live in
# bench-micro.
bench:
	$(GO) test -bench . -benchmem ./internal/experiment/... ./cmd/...

# Micro-benchmarks: sthole drill/estimate/merge hot loops, the geom kernels
# backing them, a MineClus run on the end-to-end benchmark's sky table, and
# the k-d tree's build and range count.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sthole/... ./internal/geom/... ./internal/mineclus/... ./internal/index/...

# The end-to-end benchmark (bench/) is a module of its own, so the root's
# vet and tests do not reach it; this vets it and runs its smoke test.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Records the sthole micro-benchmarks in results/BENCH_sthole.json, the
# MineClus BenchmarkRun shapes in results/BENCH_mineclus.json and the k-d
# tree's build and count in results/BENCH_index.json under the "current"
# label (pass LABEL=baseline before a change to stash a baseline).
LABEL ?= current
bench-json:
	$(GO) run ./cmd/benchjson -label $(LABEL) -out results/BENCH_sthole.json
	$(GO) run ./cmd/benchjson -label $(LABEL) -out results/BENCH_mineclus.json \
		-pkg ./internal/mineclus -bench 'BenchmarkRun$$' -benchtime 3x -count 3
	$(GO) run ./cmd/benchjson -label $(LABEL) -out results/BENCH_index.json \
		-pkg ./internal/index -bench 'Benchmark(BuildKDTree|KDTreeCount)$$' -count 3

# Telemetry overhead guard: the instrumented feedback round must stay within
# 5% of the uninstrumented one on the Drill@250 workload. benchjson keeps the
# MIN ns/op across -count repeats, so transient machine noise does not fail
# the gate. Results land in results/BENCH_telemetry.json for trending.
bench-guard:
	$(GO) run ./cmd/benchjson -label $(LABEL) -out results/BENCH_telemetry.json \
		-pkg . -bench 'BenchmarkFeedbackRound$$' -benchtime 2x -count 6 \
		-guard-base 'BenchmarkFeedbackRound/telemetry=off' \
		-guard-subject 'BenchmarkFeedbackRound/telemetry=on' \
		-guard-max-ratio 1.05

# Concurrency guards for the snapshot-publish estimator and the group-commit
# feedback pipeline; results land in results/BENCH_concurrency.json.
#
# Read path: on a machine with >= 8 cores the wait-free snapshot reads must
# be at least 4x faster than the same reads behind a reader-writer lock
# (ratio <= 0.25). Smaller machines cannot show lock contention, so they
# only check that dropping the lock did not make reads slower (<= 1.25 with
# min-of-6 noise suppression).
#
# Write path: concurrent durable feedback must group-commit — strictly fewer
# than one fsync per accepted observation.
NPROC := $(shell nproc 2>/dev/null || echo 1)
READ_RATIO := $(shell [ $(NPROC) -ge 8 ] && echo 0.25 || echo 1.25)
bench-concurrency:
	$(GO) run ./cmd/benchjson -label estimate -out results/BENCH_concurrency.json \
		-pkg . -bench 'BenchmarkEstimateParallel$$' -benchtime 1s -count 6 \
		-guard-base 'BenchmarkEstimateParallel/mode=locked' \
		-guard-subject 'BenchmarkEstimateParallel/mode=snapshot' \
		-guard-max-ratio $(READ_RATIO)
	$(GO) run ./cmd/benchjson -label feedback -out results/BENCH_concurrency.json \
		-pkg ./internal/httpapi -bench 'BenchmarkFeedbackThroughput$$' -benchtime 2000x -count 3 \
		-guard-metric-bench 'BenchmarkFeedbackThroughput' \
		-guard-metric 'fsyncs/op' -guard-metric-max 1

# Drift overhead guard: a drift-enabled table whose workload is NOT drifting
# must pay < 5% on the feedback path for the detector tick + reservoir sample
# it runs per commit. Results land in results/BENCH_drift.json.
bench-drift:
	$(GO) run ./cmd/benchjson -label $(LABEL) -out results/BENCH_drift.json \
		-pkg ./internal/httpapi -bench 'BenchmarkFeedbackDrift$$' -benchtime 300x -count 6 \
		-guard-base 'BenchmarkFeedbackDrift/drift=off' \
		-guard-subject 'BenchmarkFeedbackDrift/drift=on' \
		-guard-max-ratio 1.05

# Tracing overhead guard: always-on tracing (sample rate 1 — the worst case;
# production head-samples a fraction) must cost < 5% on the feedback hot path
# for the root span, queue-wait child, per-batch stage spans and ring flush.
# Results land in results/BENCH_trace.json.
bench-trace:
	$(GO) run ./cmd/benchjson -label $(LABEL) -out results/BENCH_trace.json \
		-pkg ./internal/httpapi -bench 'BenchmarkFeedbackTrace$$' -benchtime 300x -count 6 \
		-guard-base 'BenchmarkFeedbackTrace/trace=off' \
		-guard-subject 'BenchmarkFeedbackTrace/trace=on' \
		-guard-max-ratio 1.05

# Proxy-overhead guard: the mixed estimate/feedback workload through the
# sthproxy tier must cost < 10% extra at p50 versus hitting the table's
# primary directly, measured against backends with a production-scale
# service-time floor (see internal/cluster/bench_test.go for why the raw
# loopback numbers are recorded but not gated). Results land in
# results/BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/benchjson -label $(LABEL) -out results/BENCH_cluster.json \
		-pkg ./internal/cluster -bench 'BenchmarkProxyOverhead$$' -benchtime 1x -count 4 \
		-guard-metric-bench 'BenchmarkProxyOverhead' \
		-guard-metric 'p50-overhead-ratio' -guard-metric-max 1.10

# End-to-end cluster smoke: 3 sthistd + 1 sthproxy, mixed load from sthload,
# SIGKILL one target mid-run, assert zero non-retried client errors and
# recovery. Same script CI runs.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Observability walkthrough: rolling NAE decay + /metrics + round detail on
# feedback.apply spans from /debug/trace/spans + a drift promotion.
obs-demo:
	$(GO) run ./examples/obs

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/queryopt
	$(GO) run ./examples/skysurvey
	$(GO) run ./examples/sensitivity
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/obs

experiments:
	$(GO) run ./cmd/sthist -all

cover:
	$(GO) test -cover ./...
