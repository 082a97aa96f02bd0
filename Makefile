GO ?= go

.PHONY: all build test vet race lint lint-go artifact-guard fma-guard bench-smoke check fmt fmt-check cover clean size

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
# reliable-delivery layer.
# Instrumentation slows the composition corpus ~10x, so the gate sets
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

# Go may fuse x*y + z into one rounding (a fused multiply-add) on
# arm64, ppc64 and s390x, never on amd64, so no amd64 test can see it;
# the simulator's results are pinned bit for bit and must round every
# operation on its own. This lists the arm64 assembly of every package
# and fails on any fused multiply-add outside internal/apps, whose Go
# references are compared only within a tolerance.
fma-guard:
	GOARCH=arm64 $(GO) build ./...
	@GOARCH=arm64 $(GO) build -gcflags=-S ./... 2>&1 | awk ' \
		/^# / { pkg = $$2 } \
		/STEXT/ { fns++ } \
		/\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/ { if (pkg == "hpfdsm/internal/apps") apps++; else { print pkg ": " $$0; bad++ } } \
		END { if (!fns) { print "fma-guard: no assembly listed"; exit 1 } \
			printf "fma-guard: %d fused multiply-add(s) outside internal/apps, %d in its Go references\n", bad, apps; exit bad > 0 }'

# benchmark/ is its own module (it imports hpfdsm/internal/... through a
# replace directive), so the root ./... patterns never build it: this
# is the only gate that notices when a refactor breaks the benchmark.
# The layer benches (loop body, per-node views, coalescer burst,
# reliable-delivery burst, sim kernel, miss path, coherence audit,
# checkpoint, its encode and decode, shmem_limits walk, static
# verifier, node images) run once each so they cannot rot either;
# `bash benchmark/run.sh` is what measures.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench 'LoopBody|PreLoopComm|CoalescerBurst|ReliableSend|EventHeap|EventLane|ProcessContextSwitch|SignalWake|MissPath|Audit|Checkpoint|Encode|Decode|Cover|CheckLoopCalls|NewNodeMem' \
		-benchtime 1x ./internal/runtime ./internal/network ./internal/sim ./internal/protocol ./internal/checkpoint ./internal/sections ./internal/analysis ./internal/memory

# How big the code is, to measure a change against its parent. Lines
# count every Go file of the module — the root, cmd/, internal/ and
# examples/ — and none under testdata/ or the separate benchmark/
# module; panic sites count `panic(` in the non-test files under
# internal/. Prints, gates nothing.
SIZE_GO = find . \( -path ./benchmark -o -path ./.git -o -path ./.bench_build -o -name testdata \) -prune -o -name '*.go'
size:
	@echo "non-test Go lines: $$($(SIZE_GO) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(SIZE_GO) -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "panic( sites:      $$(find internal -name testdata -prune -o -name '*.go' ! -name '*_test.go' -print | xargs grep -o 'panic(' | wc -l)"
	@echo "Fuzz targets:      $$($(SIZE_GO) -name '*_test.go' -print | xargs grep -h '^func Fuzz' | wc -l)"

# Everything the CI gate runs.
check: build fmt-check vet test race lint lint-go artifact-guard fma-guard bench-smoke

fmt:
	gofmt -w .

# Fails, listing the files, when anything is not gofmt-clean.
fmt-check:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "not gofmt-clean (run 'make fmt'):"; echo "$$bad"; exit 1; \
	fi

# Statement coverage with per-package floors on the protocol-critical
# packages and on those that parse outside input or restore a run. Every test binary writes its counters into COVERDIR, and
# the toolchain merges them, so a package's figure counts coverage from
# anyone's tests, not just its own. The floors sit well under current
# values; they catch a test deletion or a big untested addition, not
# normal drift. cover.out is the merged profile in the text format.
COVERDIR = $(CURDIR)/.coverdata
COVER_FLOORS = \
	hpfdsm/internal/trace=90 \
	hpfdsm/internal/stats=75 \
	hpfdsm/internal/protocol=85 \
	hpfdsm/internal/network=85 \
	hpfdsm/internal/profiling=75 \
	hpfdsm/internal/simlint=80 \
	hpfdsm/internal/analysis=80 \
	hpfdsm/internal/compiler=86.8 \
	hpfdsm/internal/bench=83 \
	hpfdsm/internal/sim=90 \
	hpfdsm/internal/tempest=90 \
	hpfdsm/internal/runtime=90 \
	hpfdsm/internal/checkpoint=86 \
	hpfdsm/internal/memory=92 \
	hpfdsm/internal/config=85 \
	hpfdsm/internal/lang=81

cover:
	rm -rf $(COVERDIR) && mkdir -p $(COVERDIR)
	$(GO) test -cover -coverpkg=./... ./... -args -test.gocoverdir=$(COVERDIR)
	$(GO) tool covdata textfmt -i=$(COVERDIR) -o cover.out
	$(GO) tool covdata percent -i=$(COVERDIR) > $(COVERDIR)/percent.txt
	@fail=0; for f in $(COVER_FLOORS); do \
		pkg=$${f%=*}; floor=$${f#*=}; \
		pct=$$(awk -v p=$$pkg '$$1 == p { sub("%", "", $$3); print $$3 }' $(COVERDIR)/percent.txt); \
		if [ -z "$$pct" ]; then echo "FAIL $$pkg: not in the coverage data"; fail=1; \
		elif awk -v a=$$pct -v b=$$floor 'BEGIN { exit !(a < b) }'; then \
			echo "FAIL $$pkg: coverage $$pct% below floor $$floor%"; fail=1; \
		else echo "ok   $$pkg: $$pct% >= $$floor%"; fi; \
	done; exit $$fail

# Remove generated artifacts: coverage profiles, CPU/heap profiles,
# runtime traces and paperbench scratch output.
clean:
	rm -rf .coverdata
	rm -f cover.out trace.out paperbench_output.txt
	rm -f *.pprof *.cpuprofile *.memprofile
