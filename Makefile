# Local workflow mirror of .github/workflows/ci.yml: the same four gates,
# in the same order, so a green `make` is a green CI run.
#
# The vprobe-vet linter is built from this module (internal/analysis) on a
# dependency-free go/analysis-style framework; no tools need installing.
# See DESIGN.md §8 "Determinism contract" for the rules it enforces.

GO ?= go

.PHONY: all build vet lint test race smoke smoke-serve bench bench-check

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint = gofmt + go vet + the determinism contract (mapiter, walltime, ctxflow,
# eventswitch, errsentinel) and the module-wide contract analyzers (hotpath,
# specfield, telemetryhandle). hotpath checks both sides of the allocation
# contract: the constructs reachable from //vprobe:hotpath roots, and the
# compiler's escape sites in those functions, from a -gcflags=-m compile
# under VPROBE_ESCAPE_GOCACHE (a temp-dir cache by default).
# `go run ./cmd/vprobe-vet -list` shows the analyzers.
lint: vet
	test -z "$$(gofmt -l .)"
	$(GO) run ./cmd/vprobe-vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke mirrors CI: a short cluster run, then telemetry exports from both
# entry points validated by vprobe-explain check. The single-host export
# runs a paper cell (fig5's lu under LB) and summarizes its spans.
smoke:
	$(GO) run ./cmd/vprobe-cluster -hosts 2 -horizon 30s -seed 1
	$(GO) run ./cmd/vprobe-sim -spec fig5/lu/lb/seed0 -metrics /tmp/vprobe-sim.prom -spans /tmp/vprobe-sim-spans.jsonl
	$(GO) run ./cmd/vprobe-explain check /tmp/vprobe-sim.prom
	$(GO) run ./cmd/vprobe-explain -spans /tmp/vprobe-sim-spans.jsonl summary
	$(GO) run ./cmd/vprobe-cluster -hosts 2 -horizon 30s -seed 1 -metrics /tmp/vprobe-cluster.prom
	$(GO) run ./cmd/vprobe-explain check /tmp/vprobe-cluster.prom

# smoke-serve boots the vprobe-serve daemon and checks its contracts from
# the outside: a re-POSTed spec answers from the cache byte-identically,
# and both run and server metrics parse as Prometheus exposition.
smoke-serve:
	sh scripts/serve-smoke.sh

# bench runs the hot-path micro-benchmarks (PreemptCycle is the BOOST
# wake-preempt-redispatch cycle in internal/xen; StealPath is
# NUMAAwareSteal on a head-is-OVER and on an idle PCPU) plus SuiteParallel (the
# paper-batch experiment set through the cell queue) and ClusterChurn (a
# 256-host cluster run shaped like fleet-churn: the host-advance path) and
# appends a snapshot (ns/op, B/op, allocs/op per benchmark) to
# BENCH_hotpath.json. Override LABEL to name the snapshot after the change
# being measured. -count=3 repetitions collapse to min ns/op / max
# allocs/op in vprobe-bench, so one noisy scheduling window doesn't
# pollute the committed baseline.
# bench-check leaves SuiteParallel out: its time depends on how many CPUs
# the run gets. It leaves ClusterChurn out too: one op is a whole cluster
# run, recorded for before/after entries rather than gated.
LABEL ?= local
bench:
	$(GO) test -run '^$$' -bench 'QuantumHotPath|SimulationSecond|EngineChurn|PreemptCycle|PerfExecute|PickSteal|StealPath|^BenchmarkPartition$$|SpecCompile|ServedScenario|ServedEventsRead|ServedTelemetryRead|ClusterArrival|GangArrival|ClusterChurn|SuiteParallel' -benchtime 2s -count 3 . ./internal/sim ./internal/xen ./internal/cluster \
		| $(GO) run ./cmd/vprobe-bench -label '$(LABEL)'

# bench-check runs the same benchmark set briefly and compares it against
# the last committed BENCH_hotpath.json entry instead of appending: >25%
# ns/op regression or any allocs/op on a zero-alloc baseline fails. Short
# -benchtime with -count=3 (best-of-three per benchmark) keeps scheduler
# noise inside the tolerance on shared hardware. The anchored
# ClusterArrival$ deliberately skips the FullRescan comparator: it exists
# as the incremental engine's speedup denominator in the history, and
# gating the deliberately-slow path would only add noise-driven failures.
# A baseline measured on another CPU model gates allocs/op only.
bench-check:
	$(GO) test -run '^$$' -bench 'QuantumHotPath|SimulationSecond|EngineChurn|PreemptCycle|PerfExecute|PickSteal|StealPath|^BenchmarkPartition$$|SpecCompile|ServedScenario|ServedTelemetryRead|ClusterArrival$$|GangArrival' -benchtime 1s -count 3 . ./internal/sim ./internal/xen ./internal/cluster \
		| $(GO) run ./cmd/vprobe-bench -check
