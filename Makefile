GO ?= go

# Build identity, stamped into the binaries at link time and surfaced as
# the seedex_build_info Prometheus gauge, the /metrics "build" section,
# every structured log line, and each flight dump's meta.json.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS := -X main.version=$(VERSION) -X main.commit=$(COMMIT)

.PHONY: check vet build test race flake portable chaos fuzz loc benchmark-test sam-identity obs-smoke flight-smoke index-smoke bench bench-extend bench-map bench-regression bin

check: vet build test race portable

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Stamped binaries under bin/: the daemons report $(VERSION)/$(COMMIT)
# instead of dev/unknown.
bin:
	$(GO) build -ldflags '$(LDFLAGS)' -o bin/ ./cmd/...

test:
	$(GO) test ./...

# The whole tree under the race detector: every package, so a new
# concurrent subsystem is covered without editing this file (the pooled
# map path: bwamem's TestMapBatchConcurrentMappers runs MapBatch on two
# Mappers of one Aligner at once).
race:
	$(GO) test -race ./...

# The serving core's tests under the race detector, COUNT times over: the
# loop that shows a test failing one run in twenty (ROADMAP's soak item).
COUNT ?= 20
flake:
	$(GO) test -race -count=$(COUNT) ./internal/server

# The build without the native kernel. internal/align picks its packed
# back end by CPUID on amd64 and has only the pure-Go SWAR ladder
# elsewhere, so the tree must cross-compile (offline: no cgo, no deps; the
# non-amd64 stubs are what this catches) and the portable ladder must keep
# passing the kernel, checker, server and mapper tests on the amd64 host,
# where the conventional purego tag forces it.
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/align
	$(GO) test -tags purego ./internal/align ./internal/core ./internal/server ./internal/bwamem

# Fault-injection equivalence drill: the chaos and integrity tests under
# the race detector. Pin the fault draws with CHAOS_SEED (default: the
# tests' built-in seed matrix) and capture the end-of-run fault counters
# with CHAOS_SNAPSHOT=path.json.
chaos:
	SEEDEX_CHAOS_SEED=$(CHAOS_SEED) SEEDEX_CHAOS_SNAPSHOT=$(CHAOS_SNAPSHOT) \
		$(GO) test -race ./internal/faults/...
	SEEDEX_CHAOS_SEED=$(CHAOS_SEED) SEEDEX_CHAOS_SNAPSHOT=$(CHAOS_SNAPSHOT) \
		$(GO) test -race -run 'Chaos|Integrity|Corrupted|Adversarial|Wire|Sanity|Validate|Corruption|Rollback' \
		./internal/driver/... ./internal/server/... ./internal/core/... ./internal/refstore/...

# Bounded-time fuzzing: every fuzz target in the tree (discovered with
# go test -list, so a new target is covered without editing this file —
# the map path's FuzzTraceBandIdentity, FuzzOccAt and FuzzBuildSAIdentity,
# the native kernel's FuzzSweepRow16 and the wire codec's FuzzWireScan and
# FuzzWireReply among them), FUZZTIME each. A failure leaves its reproducer
# under the package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Non-test Go lines per internal/* package and for the whole tree (excl.
# benchmark/): the instrument behind ROADMAP aim 2's "net lines removed is
# a reported metric". CI prints it on every run.
loc:
	@bash scripts/loc.sh

# The repository benchmark (BENCHMARK.json) is a Go module of its own, so
# go test ./... never sees it: this runs its tests, including the smoke
# test that builds and drives the real daemon through the surface the
# benchmark freezes.
benchmark-test:
	$(GO) test -C benchmark .

# End-to-end exactness: seedex-align's strict SeedEx SAM must be
# byte-identical to its full-band SAM on a 4000-read corpus with the
# default error profile and on an error-heavy one. Artifacts land in
# sam-identity/ (override OUT).
sam-identity:
	bash scripts/sam_identity.sh

# Observability smoke: boot seedex-serve with tracing and pprof enabled,
# drive traffic, then assert the Prometheus scrape and both trace export
# formats are well-formed. Artifacts land in obs-smoke/ (override OUT).
obs-smoke:
	bash scripts/obs_smoke.sh

# Flight-recorder smoke: serve a seedex-index container with the recorder
# armed, publish a truncated one and reload, then assert the automatic
# reload-rollback dump (with its manifest and retained journeys) and a
# SIGQUIT dump both land while the server keeps serving. Artifacts land in
# flight-smoke/ (override OUT).
flight-smoke:
	bash scripts/flight_smoke.sh

# Index lifecycle smoke: build a container with seedex-index, serve it
# through seedex-serve -index-store, hot-reload under live mapping
# traffic, then prove a corrupt publish rolls back to the serving
# generation. Artifacts land in index-smoke/ (override OUT).
index-smoke:
	bash scripts/index_smoke.sh

# Full benchmark pass: every testing.B entry, then a refresh of the
# extension and map-path perf trajectories (BENCH_extend.json,
# BENCH_map.json).
bench: bench-map
	$(GO) test -bench=. -benchmem .
	$(GO) run ./cmd/seedex-bench -fig extend

# Per-stage time of a mapped read (seed / extend / rest / total ns per
# read, allocations per read) on the 150 bp workload, mapped through
# Aligner.Run (blocks of reads pooled per worker): appends a run to
# BENCH_map.json. Size and label it through MAPFLAGS, e.g.
# MAPFLAGS='-ref 500000 -reads 2000 -map-pr pr14'.
bench-map:
	$(GO) run ./cmd/seedex-bench -fig map $(MAPFLAGS)

# Perf trajectory for the extension hot path alone (writes
# BENCH_extend.json). Add -cpuprofile/-memprofile through EXTENDFLAGS to
# profile the kernels, e.g. EXTENDFLAGS='-cpuprofile cpu.out'.
bench-extend:
	$(GO) run ./cmd/seedex-bench -fig extend $(EXTENDFLAGS)

# A/B on the repository benchmark (the CI advisory check, runnable
# locally): BASE in a detached worktree against this tree, PAIRS
# alternated end-to-end passes a side (SECONDS measured per run; empty =
# run_seconds of BENCHMARK.json), then `benchmark compare` with the
# bounds BENCHMARK.json declares. Both sides run on this machine, so the
# verdict does not depend on where a committed baseline was measured.
# WORKLOAD=map_reads runs that workload alone on both sides.
BASE ?= origin/main
PAIRS ?= 3
bench-regression:
	bash scripts/bench_regression.sh $(BASE) $(PAIRS) '$(SECONDS)' $(WORKLOAD)
