GO ?= go

# Packages with dedicated concurrent paths: they get a -race pass in check.
RACE_PKGS = ./internal/mat ./internal/nn ./internal/dcgm ./internal/mi ./internal/neighbors ./internal/stats ./internal/sched ./internal/backend/... ./internal/governor ./internal/trace ./internal/serve ./internal/fleet ./internal/router ./internal/obs

.PHONY: all build test race alloc-pins bench-smoke bench-e2e-smoke bench-router bench-governor bench-phasecache fuzz-smoke vet fmt-check check api-report

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (and names the offenders) if any tracked Go file is not
# gofmt-clean. Formatting is a gate, not a suggestion.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# race runs the race detector over every package with a concurrent code
# path. The experiments/core integration suites are too slow to run fully
# under -race, so only their fast concurrency tests (which exercise all
# new concurrent paths) are included.
race:
	$(GO) test -race -count=1 $(RACE_PKGS)
	$(GO) test -race -count=1 -run 'Deterministic|Concurrent|Singleflight|PlanCache|BatchSweep|Grid' ./internal/core
	$(GO) test -race -count=1 -run 'Singleflight' ./internal/experiments

# alloc-pins reruns every 0-alloc contract ten times at GOMAXPROCS=1 and
# at GOMAXPROCS=2: the fleet event loop's steady segment, the plan-cache
# and server hit paths, the sweeper's single and batched miss sweeps, and
# the governor step and re-pin benchmarks.
# Per-P runtime state (sync.Pool caches, goroutine migration between Ps)
# only shows with more than one P, and only now and then. Each setting
# gets its own process rather than -cpu 1,2: raising GOMAXPROCS inside a
# process makes the runtime start an OS thread for the new P at some later
# wake-up, and the process-wide malloc counter sees that thread's runtime
# structures (5 objects) in whatever window happens to be open.
# Expected false failures: about 1 fleet run in 200 at GOMAXPROCS=2
# still counts a few runtime-internal allocations (ROADMAP, Blocking),
# so this target goes red about 1 time in 20 with no program fault.
# Rerun it before treating a red result as a regression.
alloc-pins:
	for p in 1 2; do \
		GOMAXPROCS=$$p $(GO) test -count=10 -run 'TestSimulateSteadyStateZeroAlloc' ./internal/fleet || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=10 -run 'ZeroAlloc' ./internal/core ./internal/serve || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=10 -run '^$$' -bench 'GovernorStep|PhaseRePin' -benchtime=1x ./internal/governor || exit 1; \
	done

# bench-smoke compiles and runs each hot-path benchmark once, catching
# benchmark bit-rot without paying for stable measurements. The mi run
# covers the BENCH_mi.json scaling table (tree and brute, n up to 12k);
# the core/sched run covers the BENCH_serve.json serving-path table; the
# replay run covers the BENCH_backend.json trace-serving overhead table;
# the core miss/batch and serve runs cover the BENCH_concurrency.json
# concurrent-serving table (the serve run includes BatcherLoneSweep, a
# lone miss through the idle batcher against the direct sweep); the
# Sweep1D/Sweep2D arms plus the mat MulTB61x64 blocked/naive split
# cover the BENCH_sweep2d.json 1-D vs 2-D sweep-cost table; the fleet
# 100k arms cover the BENCH_fleet.json event-engine table (and
# re-assert its 0-alloc steady-state invariant);
# the router/obs arms cover the ring-lookup and metrics-render hot paths
# behind BENCH_router.json (and re-assert their 0-alloc invariants); the
# trace/governor arms cover the online change-point push and the
# streaming-governor step behind BENCH_governor.json (and re-assert the
# governor loop's 0-alloc steady-state invariant); the PhaseRePin arm
# covers the memoized re-pin fast path behind BENCH_phasecache.json (and
# re-asserts its 0-alloc invariant).
bench-smoke:
	$(GO) test -run '^$$' -bench Figure7 -benchtime=1x .
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/nn ./internal/mat ./internal/mi
	$(GO) test -run '^$$' -bench 'PredictProfile|PlanCacheSelect|PlanFleet|BatchSweep|Sweep1D|Sweep2D' -benchtime=1x ./internal/core ./internal/sched
	$(GO) test -run '^$$' -bench ReplayProfile -benchtime=1x ./internal/backend/replay
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/serve
	$(GO) test -run '^$$' -bench 'Fleet.*100k' -benchtime=1x ./internal/fleet
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/router ./internal/obs
	$(GO) test -run '^$$' -bench 'OnlinePush|DetectOffline' -benchtime=1x ./internal/trace
	$(GO) test -run '^$$' -bench 'GovernorStep|PhaseRePin' -benchtime=1x ./internal/governor

# bench-e2e-smoke runs the repository benchmark's smoke test (bench/, its
# own Go module, so the root go test ./... skips it): every workload at
# --scale 0.02, untraced and traced, under the byte-for-byte answer gate.
# About 6 s.
bench-e2e-smoke:
	cd bench && GOFLAGS= GOPROXY=off $(GO) test -count=1 .

# bench-router records BENCH_router.json: the 1/2/4-replica scaling sweep
# behind the dvfs-router front (in-process replicas on loopback sockets,
# Zipf-skewed keys so the hit/miss split is visible). Not part of check —
# run on a multi-core host for meaningful scaling numbers.
bench-router:
	$(GO) run ./cmd/dvfs-bench -load -load-replicas 1,2,4 -load-dist zipf -load-concurrency 8,16 -load-requests 2000 -load-out BENCH_router.json

# bench-governor records BENCH_governor.json: the DVFS-policy comparison
# (always-max / one-shot / streaming, plus streaming+memo) on a
# phase-shifting workload stream. Not part of check — the quick-trained
# models take a couple of minutes on a laptop.
bench-governor:
	$(GO) run ./cmd/dvfs-govern -runs 24 -period 4 -out BENCH_governor.json

# bench-phasecache records BENCH_phasecache.json: the comparison with
# the phase-memoizing governor (streaming+memo) on the period-4
# phase-shift stream — re-pins without re-profiling, the re-pin path's
# allocs/op, and energy/time relative to the plain streaming arm.
bench-phasecache:
	$(GO) run ./cmd/dvfs-govern -runs 24 -period 4 -phase-cache 8 -out BENCH_phasecache.json

# fuzz-smoke gives the differential fuzzers a short budget on every check;
# regressions in kernel or inference exactness, estimator exactness, or
# plan-cache key aliasing (including the mem-axis-extended keys and the
# governor's phase fingerprints), or plan-cache snapshot loading
# installing an entry off the design grid, surface here first.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMulTBBlockedMatchesNaive -fuzztime=5s ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzPredictorMatchesNaive -fuzztime=5s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzEstimateMatchesBrute -fuzztime=5s ./internal/mi
	$(GO) test -run '^$$' -fuzz FuzzPlanKeyQuantizer -fuzztime=5s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzPlanKeyGrid$$' -fuzztime=5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime=5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzReplayRoundTrip -fuzztime=5s ./internal/backend/replay
	$(GO) test -run '^$$' -fuzz FuzzPhaseFingerprint -fuzztime=5s ./internal/governor

check: fmt-check vet build test race alloc-pins bench-smoke bench-e2e-smoke fuzz-smoke

# api-report prints the two size numbers ROADMAP item 2 reports: the net
# non-test Go lines outside bench/ (blank and comment lines included) and
# the count of exported top-level funcs, methods and types. Untracked,
# non-ignored files count too. Not part of check.
api-report:
	@files() { git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$$' | grep -v '^bench/'; }; \
	echo "non-test Go lines outside bench/: $$(files | xargs -r cat | wc -l)"; \
	echo "exported funcs and types: $$(files | xargs -r grep -hE '^func (\([^)]*\) )?[A-Z]|^type [A-Z]' | wc -l)"
