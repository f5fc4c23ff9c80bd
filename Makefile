# Tier-1 gate: every change must keep `make check` green.
.PHONY: check build fmt-check vet lint test bench bench-smoke bench-module bench-routing fuzz-smoke ingest-soak load-smoke

check: build fmt-check vet lint test bench-module

build:
	go build ./...

# Fails on any Go file gofmt would rewrite. The linter's golden fixtures
# under internal/lint/testdata are inputs, kept exactly as written.
fmt-check:
	@out=$$(gofmt -l . | grep -v -e '^internal/lint/testdata/' -e '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...
	go vet -unsafeptr=true ./...

# Project-specific static analysis: metric naming/doc sync, lat/lng
# argument order, exact float comparison, context discipline, sync.Pool
# pairing, and the dataflow checks — Model immutability, pooled-scratch
# escape, atomic-cell publish discipline, and the error/status taxonomy
# against docs/API.md. See docs/STATIC_ANALYSIS.md.
lint:
	go run ./cmd/stmaker-lint

test:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that panic, fail
# their setup, or silently rot, without the minutes a real run costs.
# This includes the routing-engine pairs (BenchmarkShortestPathALT,
# BenchmarkHMMMatch100PointsALT, BenchmarkTrainOverlay) so the ALT
# overlay path is exercised on every CI build.
# Run on every CI build; use `make bench` for real measurements.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# The serving benchmark (_bench, its own module) rebuilds the pipeline
# from the library's public API for its traced run, and neither
# `go build ./...` nor `go test ./...` reaches it. Vetting it and running
# its short unit tests makes an API change that breaks it fail here
# instead of at benchmark time. Part of `make check`; offline, a few
# seconds.
bench-module:
	cd _bench && go vet . && go test -short .

# The Dijkstra-vs-ALT routing comparison that feeds BENCH_routing.json;
# see docs/PERFORMANCE.md "Precomputed routing".
bench-routing:
	go test -run='^$$' -bench='ShortestPath|HMMMatch|TrainOverlay' -benchmem -count=5 ./internal/roadnet/

# Short randomized smoke of every fuzz target, 15 s each (~150 s of
# fuzzing in total): enough to catch shallow regressions on every CI run
# without a dedicated fuzz farm. Run with a larger -fuzztime locally
# when touching the decoders.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzLoadTrips -fuzztime=15s ./internal/worldio
	go test -run='^$$' -fuzz=FuzzSanitize -fuzztime=15s ./internal/sanitize
	go test -run='^$$' -fuzz=FuzzReadModel -fuzztime=15s ./internal/modelio
	go test -run='^$$' -fuzz=FuzzParseManifest -fuzztime=15s ./internal/modelio
	go test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=15s ./internal/ingest
	go test -run='^$$' -fuzz=FuzzIngestNDJSON -fuzztime=15s ./internal/server
	go test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=15s ./internal/server
	go test -run='^$$' -fuzz=FuzzSimilarity -fuzztime=15s ./internal/partition
	go test -run='^$$' -fuzz=FuzzEditDistance -fuzztime=15s ./internal/irregular
	go test -run='^$$' -fuzz=FuzzALTEquivalence -fuzztime=15s ./internal/roadnet

# Short sustained-load smoke: drives a synthetic fleet through the real
# HTTP serving path (single + batch endpoints mixed) and fails on any
# 5xx, transport error, or empty run. Real measurements use a longer
# -duration; see docs/PERFORMANCE.md "Sustained throughput".
load-smoke:
	go run ./cmd/stmaker-load -duration 2s -concurrency 2 -batch 4 -assert

# End-to-end ingestion soak: a simulated fleet streamed through the real
# HTTP ingest path with one crash/recovery cycle in the middle, asserting
# zero acknowledged-fix loss and a working model compaction at the end.
# See docs/ROBUSTNESS.md "Ingestion durability".
ingest-soak:
	go run ./cmd/ingest-soak
