# Tier-1 gate for this repository (see README.md "Install"): every
# change must keep `make check` green. The race target exercises the
# parallel meta-dataset builder (internal/core/parallel.go), the forest
# trainer, the serving-path packages (gateway proxy + monitor, whose
# shadow tap, /metrics scrape and dashboard are hit concurrently in
# production; the /predict_proba codec, whose pooled body and decode
# buffers are shared by handler goroutines and the shadow worker), and
# the telemetry registry/span tree plus the alert
# engine, incident flight recorder and durable timeline store
# (internal/obs/...), and the label-feedback store (internal/labels)
# under the race detector in short mode.

GO ?= go

.PHONY: check lint vet build test race bench bench-gateway bench-serving bench-tsdb demo audit fuzz

check: vet build test race

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	# Prometheus exposition-format conformance (obs.Lint) across every
	# registry that serves a /metrics endpoint.
	$(GO) test -run 'Lint|Conformance' ./internal/obs/... ./internal/gateway/... ./internal/monitor/... ./internal/fed/...

# The benchmark (bench/) is its own module that compiles against this
# one's internal APIs, so vet and test cover it too: a deleted or
# renamed API it uses fails here, not in a benchmark run.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(GO) -C bench test ./...

race:
	$(GO) test -short -race ./internal/cloud/... ./internal/core/... ./internal/models/... ./internal/gateway/... ./internal/monitor/... ./internal/obs/... ./internal/stats/... ./internal/fed/... ./internal/labels/...

# Speedup table for EXPERIMENTS.md ("Parallel training" section).
bench:
	$(GO) test -run NONE -bench 'BenchmarkTrainPredictor' -benchtime 20x .

# Proxy-hop overhead table for EXPERIMENTS.md ("Gateway overhead").
bench-gateway:
	$(GO) test -run NONE -bench 'BenchmarkGatewayOverhead' -benchtime 1000x ./internal/gateway/

# Serving SLO observatory benchmark ("Serving SLO observatory" in
# EXPERIMENTS.md): regenerates BENCH_serving.json (per-stage
# p50/p99/p999, rows/sec, allocs/op via ppm-bench -exp serving) and
# runs the allocs/op regression gate, which fails when a per-row
# allocation creeps onto the gateway hot path (skipped under -short).
bench-serving:
	$(GO) run ./cmd/ppm-bench -exp serving
	$(GO) test -run TestServingAllocGate -count=1 -v ./internal/gateway/

# Durable timeline store benchmark ("Telemetry history" in
# EXPERIMENTS.md): regenerates BENCH_tsdb.json (append windows/sec,
# cold segment decode + re-aggregate throughput, range-query p50/p99,
# the eager-vs-lazy compaction determinism check) via ppm-bench -exp
# tsdb, then runs the compaction determinism suite itself.
bench-tsdb:
	$(GO) run ./cmd/ppm-bench -exp tsdb -log-level warn
	$(GO) test -run 'TestCompaction|TestBacktest' -count=1 -v ./internal/obs/tsdb/

# Eight-act smoke test: proxying + /metrics, shadow validation with
# alerting, incident capture with drift attribution, fleet federation
# with stale-shard degradation, lagged label feedback, the serving
# SLO observatory (open-loop ramp past the burn-rate threshold,
# alert-triggered profile capture), distributed tracing (sampled
# ramp stitched across per-process span journals), and the durable
# timeline store (history surviving a restart, ppm-backtest
# bit-reproducing the live alert events) — see scripts/demo.sh.
demo:
	bash scripts/demo.sh

# Deep pass over the serving-path observability stack: format/exposition
# lint, vet, and the race detector (full, not -short) across the
# telemetry store + alert engine + incident flight recorder + trace
# journal/stitcher + durable timeline store (internal/obs/... includes
# internal/obs/incident and internal/obs/tsdb, whose concurrent
# append-vs-query path runs here), the
# gateway, the monitor, the mergeable sketches (internal/stats) and the
# federation aggregator (internal/fed, whose /federate handler and
# ScrapeOnce run concurrently with ObserveRow in production). `make
# check` stays the broad tier-1 gate; `audit` is the focused one to run
# after touching the timeline, alerting, incident, correlation, tracing
# or federation code.
audit: lint
	$(GO) vet ./internal/obs/... ./internal/gateway/... ./internal/monitor/... ./internal/stats/... ./internal/fed/... ./internal/labels/...
	$(GO) test -race ./internal/obs/... ./internal/gateway/... ./internal/monitor/... ./internal/stats/... ./internal/fed/... ./internal/labels/...

# Short coverage-guided fuzz budgets for the deterministic-merge
# invariants — sketch merge (associativity/commutativity vs the union
# stream), the serialized round-trips, the sorted-slice sketch against
# the map-based one it replaced (same bytes, quantiles and KS distances
# under any operation sequence), and the timeline window's
# append-form JSON and in-place merge fold (differentially, against
# encoding/json and the pairwise merge chain they replaced) — plus the
# attacker-facing decoders: both /predict_proba bodies (differentially,
# against encoding/json; the shadow worker's reusing request decoder
# against the one-shot decode, one body after another), the /labels
# ingestion body, the W3C
# traceparent header parser (every proxied request runs it), the
# on-disk segment decoder (which must keep the valid prefix of any torn
# or corrupted segment file without panicking), the aggregator's
# bounded decoder of a remote replica's /federate body, and the bounded
# alert-rule and incident-bundle file loaders.
fuzz:
	$(GO) test -run NONE -fuzz FuzzKLLMerge -fuzztime 10s ./internal/stats
	$(GO) test -run NONE -fuzz FuzzKLLRoundTrip -fuzztime 10s ./internal/stats
	$(GO) test -run NONE -fuzz FuzzKLLMatchesMapReference -fuzztime 10s ./internal/stats
	$(GO) test -run NONE -fuzz FuzzLatencyHistMerge -fuzztime 10s ./internal/stats
	$(GO) test -run NONE -fuzz FuzzDecodeRequest -fuzztime 10s ./internal/cloud
	# Its seeds pair whole request bodies: minimizing one new input for
	# the default 60s would use up the budget.
	$(GO) test -run NONE -fuzz FuzzRequestDecoderReuse -fuzztime 10s -fuzzminimizetime 1s ./internal/cloud
	$(GO) test -run NONE -fuzz FuzzParseProbaResponse -fuzztime 10s ./internal/cloud
	$(GO) test -run NONE -fuzz FuzzLabelsDecode -fuzztime 10s ./internal/labels
	$(GO) test -run NONE -fuzz FuzzTraceparentParse -fuzztime 10s ./internal/obs
	$(GO) test -run NONE -fuzz FuzzWindowJSON -fuzztime 10s ./internal/obs
	$(GO) test -run NONE -fuzz FuzzWindowFold -fuzztime 10s ./internal/obs
	$(GO) test -run NONE -fuzz FuzzLoadRules -fuzztime 10s ./internal/obs/alert
	$(GO) test -run NONE -fuzz FuzzLoadBundle -fuzztime 10s ./internal/obs/incident
	$(GO) test -run NONE -fuzz FuzzSegmentDecode -fuzztime 10s ./internal/obs/tsdb
	$(GO) test -run NONE -fuzz FuzzFederateDecode -fuzztime 10s ./internal/fed
