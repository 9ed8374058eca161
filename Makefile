# Mirrors the tier-1 verify command and CI. Plain `go` invocations work
# identically; this is convenience only.

GO ?= go

.PHONY: check fmt build vet test race bench fuzz loadtest loc

check: fmt build vet test

# fmt fails when gofmt would rewrite any file (CI's Format step).
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above need gofmt -w"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the experiment benchmark suite (E1-E10, F1). Everything
# else — end-to-end reaction metrics and the per-layer trace over the six
# declared workloads — is the BENCHMARK.json harness; see
# benchmark/README.md.
bench:
	$(GO) test -bench='^Benchmark(E[0-9]|F1)' -benchmem -run=^$$ .
	@echo "end-to-end workloads: bash benchmark/run.sh --workload refresh.10k --seed 1 --seconds 10 --trace 0"

# loc prints the line count of non-test Go outside benchmark/ (and the
# benchmark's build directory): the size a simplification is judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

# loadtest drives the change-feed load harness in its CI smoke shape:
# 100 concurrent subscribers against 5 seconds of continuous
# refresh/feedback churn. It exits non-zero if any stream gapped, a
# draining subscriber was evicted, or nothing was delivered. Longer
# local sessions: go run ./cmd/watchload -subscribers 5000 -duration 60s.
loadtest:
	$(GO) run ./cmd/watchload -smoke

# fuzz runs the equivalence fuzzers briefly — the same smokes CI runs:
# the sharded-resolve identity, the end-to-end tail identity (workers ×
# shards vs the one-shard, one-worker baseline), the integer FD kernel vs
# its string oracle, the carried Prepare + RePlan vs a fresh plan, the
# re-plan harness's roots slab (translated clean rows, dirty rows
# resolved in place) vs cold per-shard resolves and the sequential one, the
# change-feed resume property (no duplicate, out-of-order
# or torn deliveries across arbitrary publish/subscribe/drain/cancel
# interleavings), the WAL replay property (arbitrary bytes never
# panic the reader, corruption is detected, the healed log stays
# appendable) and the record codec property (no payload panics the
# decoder; an accepted one re-encodes to bytes that decode to the same
# record; a version decoded header-first then body agrees with the
# one-shot decode), the fuse over the one prepared group vs its
# string-keyed oracle, and the trust fixpoint over its flat layout —
# carried with the claim groups, credits hoisted at 1.0 for groups with
# one bucket, only groups with a choice re-voted — bit-equal to the
# per-group, sort.Slice oracle, also over a carried layout; Normalize's
# ASCII pass vs the token join, the bit-set Jaro kernel vs the
# Scratch-buffer one (with Jaro-Winkler's symmetry and the one-pass
# symmetric Monge-Elkan), the one-pass extraction kernels
# (Induce, Wrapper.Run) vs the multi-pass code kept as their oracle, and
# dataset.Parse's first-byte gate vs the try-every-parser function.
# Longer local sessions: go test -fuzz=FuzzSharded
# -fuzztime=5m ./internal/wrangletest (or -fuzz=FuzzStreamingRefresh,
# -fuzz=FuzzStreamingRePlan,
# -fuzz=FuzzRepairProfile ./internal/quality, -fuzz=FuzzPrepareCarry
# ./internal/er, -fuzz=FuzzWatchResume ./internal/serve,
# -fuzz=FuzzWALReplay ./internal/wal, -fuzz=FuzzDurableRecord
# ./internal/core, -fuzz=FuzzFusePrepared or -fuzz=FuzzTrustKernel
# ./internal/fusion, -fuzz=FuzzNormalize or -fuzz=FuzzJaroWinkler
# ./internal/text,
# -fuzz=FuzzWrapperRun ./internal/extract, -fuzz=FuzzParse
# ./internal/dataset).
fuzz:
	$(GO) test -fuzz=FuzzSharded -fuzztime=10s -run=^$$ ./internal/wrangletest
	$(GO) test -fuzz=FuzzStreamingRefresh -fuzztime=10s -run=^$$ ./internal/wrangletest
	$(GO) test -fuzz=FuzzStreamingRePlan -fuzztime=10s -run=^$$ ./internal/wrangletest
	$(GO) test -fuzz=FuzzRepairProfile -fuzztime=10s -run=^$$ ./internal/quality
	$(GO) test -fuzz=FuzzPrepareCarry -fuzztime=10s -run=^$$ ./internal/er
	$(GO) test -fuzz=FuzzWatchResume -fuzztime=10s -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s -run=^$$ ./internal/wal
	$(GO) test -fuzz=FuzzDurableRecord -fuzztime=10s -run=^$$ ./internal/core
	$(GO) test -fuzz=FuzzFusePrepared -fuzztime=10s -run=^$$ ./internal/fusion
	$(GO) test -fuzz=FuzzTrustKernel -fuzztime=10s -run=^$$ ./internal/fusion
	$(GO) test -fuzz=FuzzNormalize -fuzztime=10s -run=^$$ ./internal/text
	$(GO) test -fuzz=FuzzJaroWinkler -fuzztime=10s -run=^$$ ./internal/text
	$(GO) test -fuzz=FuzzWrapperRun -fuzztime=10s -run=^$$ ./internal/extract
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run=^$$ ./internal/dataset
