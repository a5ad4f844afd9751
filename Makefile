# Standard workflows for the desmask reproduction.

GO ?= go

.PHONY: all build test test-short bench bench-json perfbench experiments csv verify fmt vet clean leakd

all: build test

build:
	$(GO) build ./...

# The leakage-assessment daemon (see README "The assessment service").
leakd:
	$(GO) build -o leakd ./cmd/leakd

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark artifacts:
#  - predecoded-core throughput: cycles/sec, ns/cycle and allocs/op for
#    untraced and traced full-DES runs (BENCH_predecode.json)
#  - sequential vs parallel batch trace acquisition (traces/sec + bit-identity)
#  - compiler optimization ablation (per-policy instruction/cycle/energy
#    counts for DES with and without -O)
#  - streaming TVLA acceptance run: 10k-trace fixed-vs-random DES per policy
#    at workers 1/4/16 (bit-identity, verdicts, traces/sec, constant memory
#    vs the materialized dpa.Collect baseline) (BENCH_tvla.json)
#  - gang-scheduled lockstep assessment vs the scalar path per policy
#    (traces/sec, speedup, t-vector bit-identity) (BENCH_gang.json)
#  - leakd under concurrent client load: per-second 200/429/504 curves,
#    cache-hit rate and latency percentiles (BENCH_leakd.json)
#  - full 48-bit key-recovery success rate vs trace count, unprotected vs
#    operand-shuffled (BENCH_keyrecovery.json)
bench-json:
	$(GO) run ./cmd/simbench -traces 64 -trials 10 \
		-o BENCH_parallel_traces.json -core-o BENCH_predecode.json
	$(GO) run ./cmd/simbench -gang 16 -traces 128 -max 12000 -workers 1 \
		-gang-o BENCH_gang.json
	$(GO) run ./cmd/optbench -o BENCH_compiler_opt.json
	$(GO) run ./cmd/tvla -bench -traces 10000 -max 12000 -o BENCH_tvla.json
	$(GO) run ./cmd/leakload -clients 64 -requests 512 -traces 32 \
		-concurrency 4 -queue 16 -o BENCH_leakd.json
	$(GO) run ./cmd/dpa-attack -curve 32,64,128,256 -o BENCH_keyrecovery.json

# The cost-per-verdict benchmark (perfbench/README.md): every workload once,
# seed 1, 10-second timed phase, end-to-end metrics. Each run exits 1 on a
# wrong verdict.
PERFBENCH_WORKLOADS = tvla-gang tvla-masked-scalar cpa-fullkey leakd-durable

perfbench:
	for w in $(PERFBENCH_WORKLOADS); do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# Regenerate every figure and table of the paper (text report + plots).
experiments:
	$(GO) run ./cmd/experiments -traces 256 -plot

# CSV series for external plotting.
csv:
	$(GO) run ./cmd/experiments -traces 256 -csv out

# The repository's verification artifacts.
verify:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -rf out
	$(GO) clean -testcache
