# Build/test entry points. `make check` is the PR gate: it builds and
# vets every package (vet runs over ./..., so new packages such as
# internal/faultinject and internal/metrics are covered automatically),
# then runs the short test suite under the race detector, which
# exercises the internal/runner worker pool, the concurrent metrics
# sinks, and the suite-level order-independence tests concurrently. `make faultcheck` runs just the fault-injection
# suite — panic isolation, retries, deadlines, cache quarantine,
# KeepGoing determinism — under the race detector.

GO ?= go

.PHONY: all build vet check test faultcheck conform fuzzsmoke streamsmoke scalesmoke servesmoke figures bench benchgate clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

check: build vet
	$(GO) test -race -short ./...

faultcheck: build
	$(GO) test -race ./internal/faultinject/
	$(GO) test -race -run 'TestFaultTolerantSuiteAcceptance|TestSelfCheckOutputIdentical' .

# Replay the committed conformance corpus: every case re-simulates
# serially, with phase shards, with fast-forward disabled, and at extra
# odd core counts (3/5/7 leave the steal spans uneven), and the
# normalized stats must match expected_stats.json byte for byte. After
# an intentional behavior change, regenerate with
# `go run ./cmd/conform -update` and commit the diff.
conform: build
	$(GO) run ./cmd/conform -j 8 -extra-cores 3,5,7

# Fixed-seed differential fuzz smoke under the race detector: 200
# random (config, policy, workload) triples run serial vs sharded vs
# ff-off with the invariant sweeps on. Deterministic, so a failure in
# CI reproduces locally with the same seed; findings are shrunk and
# written to /tmp/conffuzz-findings as ready-to-commit corpus cases.
# Then a time-boxed coverage-guided run of the trace-file parser:
# every input must open cleanly or fail with a typed *FormatError.
fuzzsmoke: build
	$(GO) run -race ./cmd/conffuzz -seed 1 -n 200 -out /tmp/conffuzz-findings
	$(GO) test -run '^$$' -fuzz FuzzOpenStreamFile -fuzztime 10s ./internal/trace/

# Full suite, including the ~2 min headline reproduction tests.
test: build vet
	$(GO) test ./...

# Streamed-frontend smoke: record a 10x-scaled trace with dlptrace,
# verify its digest and replayability, replay it through dlpsim with
# the observability exports on, lint those exports, and re-run the
# streamed conformance cases (streamed variants must match the eager
# serial reference byte for byte).
streamsmoke: build
	$(GO) run ./cmd/dlptrace record -app SC -scale 10 -o /tmp/streamsmoke.dlpstrm
	$(GO) run ./cmd/dlptrace verify /tmp/streamsmoke.dlpstrm
	$(GO) run ./cmd/dlpsim -stream-file /tmp/streamsmoke.dlpstrm -policy dlp \
		-metrics /tmp/streamsmoke_metrics.jsonl -trace /tmp/streamsmoke_trace.json
	$(GO) run ./cmd/metriclint -metrics /tmp/streamsmoke_metrics.jsonl -trace /tmp/streamsmoke_trace.json
	$(GO) run ./cmd/conform -run 'stream-*'

# Regenerate the tracked performance baseline: every benchmark (with
# allocation reporting baked into the benchmarks themselves) plus one
# serial RunSuite(PaperSchemes()) wall-clock pass and the
# BenchmarkEngineScaling cores=1/2/4/8 curve, distilled by
# cmd/benchjson into the per-host ledger entry BENCH_<fingerprint>.json
# so this machine class hard-gates wall time and the scaling curve from
# now on. `make benchgate` re-measures just the suite wall pass and
# fails when it regressed >15% against the committed baseline — the
# same gate CI runs.
bench: build
	$(GO) test -run '^$$' -bench . -timeout 60m . ./internal/sm/ ./internal/sim/ ./internal/interconnect/ | $(GO) run ./cmd/benchjson -ledger .

# The gate measures the wall headline (one 1x pass) plus the zero-alloc
# hot-path benchmarks (enough iterations to amortize warm-up), the
# streamed issue path included: wall time gates unconditionally against
# this host class's ledger entry when one is committed and is skipped
# otherwise; allocs/op (deterministic per binary) gate everywhere,
# against any ledger entry when this class has none.
benchgate: build
	$(GO) test -run '^$$' -bench 'BenchmarkSuitePaperWall' -benchtime 1x -timeout 30m . > /tmp/bench_fresh.txt
	$(GO) test -run '^$$' -bench 'BenchmarkL1DAccess|BenchmarkPDPTSample|BenchmarkIssueStorePath|BenchmarkLanePushBatch|BenchmarkStealScheduleStep' -benchtime 10000x -timeout 30m . ./internal/sm/ ./internal/sim/ ./internal/interconnect/ >> /tmp/bench_fresh.txt
	$(GO) run ./cmd/benchjson -o /tmp/bench_fresh.json < /tmp/bench_fresh.txt
	$(GO) run ./cmd/benchgate -baselines . -fresh /tmp/bench_fresh.json -max-regress-pct 15

# Multi-core determinism smoke under the race detector: the same
# dlpsim run serially and at -cores 0 (auto: all host CPUs) with the
# invariant sweeps on, printed stats diffed byte for byte. Both runs
# ride two different workloads so a core-count-dependent divergence in
# either the baseline or the DLP machinery would surface.
scalesmoke: build
	$(GO) run -race ./cmd/dlpsim -app HS -policy dlp -selfcheck -cores 1 > /tmp/scalesmoke_c1.txt
	$(GO) run -race ./cmd/dlpsim -app HS -policy dlp -selfcheck -cores 0 > /tmp/scalesmoke_cN.txt
	cmp /tmp/scalesmoke_c1.txt /tmp/scalesmoke_cN.txt
	$(GO) run -race ./cmd/dlpsim -app BFS -policy baseline -selfcheck -cores 1 > /tmp/scalesmoke_b1.txt
	$(GO) run -race ./cmd/dlpsim -app BFS -policy baseline -selfcheck -cores 0 > /tmp/scalesmoke_bN.txt
	cmp /tmp/scalesmoke_b1.txt /tmp/scalesmoke_bN.txt
	@echo "scalesmoke: serial and all-core runs are byte-identical"

# Job-server smoke: start dlpserved on an ephemeral port, replay three
# committed conformance cases through the HTTP API with dlpload (the
# server's normalized stats must byte-match expected_stats.json), drain
# it with POST /shutdown, then run the reduced-scale concurrency soak —
# dedup storms, cancellation mix, graceful drain — under the race
# detector.
servesmoke: build
	$(GO) build -o /tmp/dlpserved ./cmd/dlpserved
	$(GO) build -o /tmp/dlpload ./cmd/dlpload
	rm -f /tmp/dlpserved.addr; \
	/tmp/dlpserved -addr 127.0.0.1:0 -addr-file /tmp/dlpserved.addr & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do [ -s /tmp/dlpserved.addr ] && break; sleep 0.1; done; \
	/tmp/dlpload -addr-file /tmp/dlpserved.addr -replay testdata/conform -run 'app-*' && \
	/tmp/dlpload -addr-file /tmp/dlpserved.addr -shutdown && \
	wait $$pid
	$(GO) test -race -short -run 'TestServeSoak|TestDedupStormSingleSimulation' ./internal/serve/

# Regenerate the committed reference outputs.
figures:
	$(GO) run ./cmd/paperfigs > paperfigs_output.txt
	$(GO) run ./cmd/ablate -quiet > ablate_output.txt

clean:
	$(GO) clean ./...
