GO ?= go

.PHONY: all build test vet race lint lint-go artifact-guard bench-smoke check fmt fmt-check cover clean

# Every shipped application, linted by the static incoherence-safety
# verifier at every optimization level.
APPS = jacobi pde shallow grav lu cg irregular

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The sim kernel switches between process coroutines (iter.Pull) on one
# thread of control; the race detector is the proof that no two ever
# run at once, including under the fault-injection and
# reliable-delivery layer and when PDES workers drive them.
# Instrumentation slows the differential suites ~10x, so the gate sets
# its own deadline instead of relying on go test's 10-minute default.
# The kernel's own tests run again on one and on four Ps.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -cpu 1,4 ./internal/sim

# Static verification: the schedule contract checker and IR race
# analysis over every shipped application, all optimization levels.
# Fails on any contract or race error. The -calls dump rides along so
# the printing sink of the call sequence cannot rot.
lint:
	@for a in $(APPS); do \
		echo "hpfc -lint -app $$a"; \
		$(GO) run ./cmd/hpfc -app $$a -lint || exit 1; \
		$(GO) run ./cmd/hpfc -app $$a -calls >/dev/null || exit 1; \
	done

# Determinism/hot-path lint over the simulator's own Go source: no
# unordered map iteration, wall-clock reads, pooled-value lifetime
# bugs, hotpath allocations, or stray concurrency in the deterministic
# set. Fails on any unsuppressed finding; every suppression is listed
# with its reason.
lint-go:
	$(GO) run ./cmd/simlint ./...

# Generated outputs (coverage profiles, CPU/heap profiles, runtime
# traces, paperbench scratch) must never be committed: the .gitignore
# patterns keep them out of `git add .`, and this guard fails the gate
# if one slips into the index anyway.
artifact-guard:
	@bad=$$(git ls-files -- 'cover.out' '*.out' '*.pprof' '*.cpuprofile' '*.memprofile' \
		'paperbench_output.txt' | grep -v '_test\.go$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "build artifacts are tracked by git:"; echo "$$bad"; \
		echo "run 'git rm --cached <file>' and commit"; exit 1; \
	fi

# benchmark/ is its own module (it imports hpfdsm/internal/... through a
# replace directive), so the root ./... patterns never build it: this
# is the only gate that notices when a refactor breaks the benchmark.
# The layer benches (loop body, per-node views, coalescer burst, sim
# kernel, static verifier) run once each so they cannot rot either;
# `bash benchmark/run.sh` is what measures.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench 'LoopBody|PreLoopComm|CoalescerBurst|EventHeap|EventLane|ProcessContextSwitch|SignalWake|CheckLoopCalls' \
		-benchtime 1x ./internal/runtime ./internal/network ./internal/sim ./internal/analysis

# Everything the CI gate runs.
check: build fmt-check vet test race lint lint-go artifact-guard bench-smoke

fmt:
	gofmt -w .

# Fails, listing the files, when anything is not gofmt-clean.
fmt-check:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "not gofmt-clean (run 'make fmt'):"; echo "$$bad"; exit 1; \
	fi

# Statement coverage with per-package floors on the protocol-critical
# packages (the profile is merged across all test packages, so a
# package's floor counts coverage from anyone's tests, not just its
# own). The floors sit well under current values; they catch a test
# deletion or a big untested addition, not normal drift.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) run ./cmd/covercheck -profile cover.out \
		hpfdsm/internal/trace=90 \
		hpfdsm/internal/protocol=85 \
		hpfdsm/internal/network=85 \
		hpfdsm/internal/profiling=75 \
		hpfdsm/internal/simlint=80 \
		hpfdsm/internal/analysis=80 \
		hpfdsm/internal/compiler=86.8

# Remove generated artifacts: coverage profiles, CPU/heap profiles,
# runtime traces and paperbench scratch output.
clean:
	rm -f cover.out trace.out paperbench_output.txt
	rm -f *.pprof *.cpuprofile *.memprofile
