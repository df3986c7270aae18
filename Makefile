# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race cover bench bench-check bench-figs bench-ablations bench-go figs serve vet fuzz clean

# Port for `make serve` (override: make serve PORT=9000).
PORT ?= 8080

# Budget per fuzz target for `make fuzz` (override: make fuzz FUZZTIME=5m).
FUZZTIME ?= 30s

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Short race pass over everything, plus the full fast-forward
# equivalence tests so the sim hot loop is race-checked end to end, the
# sample-interval invariance suite (boundaries fire from the event
# wheel), and the cold-vs-memo prewarm suite (its concurrent warm-up and
# replay).
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 -run 'Golden|FastForward|PrewarmMemo|SampleInterval' ./internal/sim/

cover:
	$(GO) test -cover ./internal/...

# One benchmark per paper figure (reduced scale; see cmd/paperfigs for
# the full-scale sweep).
bench-figs:
	$(GO) test -run xxx -bench Fig -benchtime 1x .

bench-ablations:
	$(GO) test -run xxx -bench Ablation -benchtime 1x .

# Reproducible harness (cmd/simbench): regenerates the committed
# baseline the CI perf gate compares against. See doc/PERF.md for the
# update policy before committing a new BENCH_9.json. The historical
# baselines are in git history: BENCH_3.json (pre-event-wheel) in commit
# e85e0a3 and BENCH_7.json (pre-batching) in commit 1eea3bb.
bench:
	$(GO) run ./cmd/simbench -count 3 -benchtime 1x -out BENCH_9.json

# Compare a fresh measurement against the committed baseline the way CI
# does (exit 1 on a >10% geomean throughput regression, a >10% geomean
# allocs_per_op regression, or a >10% per-case regression in any
# saturated synth/* or qos/* scenario — the hot paths this repo
# optimizes must not regress individually behind a green geomean).
bench-check:
	$(GO) run ./cmd/simbench -count 3 -benchtime 1x -out BENCH_PR.json
	$(GO) run ./cmd/benchdiff -threshold 0.10 -alloc-threshold 0.10 \
		-case-threshold 'synth/*=0.10' -case-threshold 'qos/*=0.10' \
		BENCH_9.json BENCH_PR.json

# The original go-test benchmarks (one per paper figure/table).
bench-go:
	$(GO) test -run xxx -bench . -benchmem -benchtime 1x . | tee bench_output.txt

# Build the repo's own analyzer suite (cmd/dramvet) and run it through
# the standard vet driver, exactly like CI. See doc/LINTING.md.
# DRAMVET_LOCKORDER_OUT makes the lockorder pass regenerate the
# committed lock-order artifact while it vets internal/service. `go vet`
# caches per-package results, but the cache only hits when neither the
# tool nor the package changed — exactly the runs where the artifact
# content could not have changed either.
vet:
	$(GO) build -o dramvet ./cmd/dramvet
	DRAMVET_LOCKORDER_OUT=$(CURDIR)/doc/LOCKORDER.md $(GO) vet -vettool=$(CURDIR)/dramvet ./...

# Run the fuzz targets for FUZZTIME each: the strict spec decoder
# (canonical-encoding fixed point, hash determinism), journal recovery
# (corruption is never fatal, torn tails are sealed), and the dramvet
# //dramvet:allow directive parser (no suppression is silently dropped).
fuzz:
	$(GO) test ./internal/exp/ -run FuzzDecodeSpec -fuzz FuzzDecodeSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service/ -run FuzzJournalReplay -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis/ -run FuzzAllowDirective -fuzz FuzzAllowDirective -fuzztime $(FUZZTIME)

# Build and launch the simulation service (see doc/SERVICE.md).
serve:
	$(GO) build -o dramstacksd ./cmd/dramstacksd
	./dramstacksd -addr :$(PORT)

# Regenerate every figure's data at full scale into results/.
figs:
	$(GO) run ./cmd/paperfigs -fig all -out results

clean:
	rm -rf results bench_output.txt test_output.txt dramstacksd dramvet BENCH_PR.json
