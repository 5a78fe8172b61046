#!/bin/sh
# check.sh — the repo's verification gate: build, vet, gofmt, the full
# test suite with the race detector on, short fuzzes of the similarity
# kernels, the prefix-filtered self-join (FuzzSelfJoin), the kNN index,
# the incremental query executor, the batch feature extractor, the
# distance baseline, the VQL parser, the CSV loader and the session
# import body (FuzzImport; each 10 s, in that order), ten race-detector runs of the shared artifacts (the kNN
# base, and the pristine executors concurrent sessions' pricers read)
# under concurrent sessions, the docs gate, and a one-shot benchmark
# smoke so the bench harness cannot rot. CI and pre-commit both run
# this.
#
# The race run executes every test on every pass (-shuffle is not a
# cacheable flag), among them the determinism, incremental-equivalence
# and detect-equivalence suites, the chaos suite and the cluster smoke,
# so no later step re-runs them.
#
# TestFences, in the test suite, asserts the values the benchmarks pin:
# the Fig 10 distances, the multi-view answer counts, the pricer's and
# the detector's work counts and an allocation bound. Wall time is
# gated in one place: `bench/run.sh compare`, against the parent commit
# on the same machine.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt would reformat:"
    echo "$unformatted"
    exit 1
fi

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# A crasher lands in the package's testdata/fuzz/ and is committed as a
# regression input, which the plain `go test` above then replays.
#
# -fuzzminimizetime 1x: by default the fuzzer spends up to 60 s
# minimizing each input with new coverage instead of fuzzing, so the
# four steps that carry the flag ran at 0 new execs/s for most of their
# 10 s (FuzzImport, whose every exec rebuilds a D1 session, after its
# first 3 s). One minimization exec per input keeps them fuzzing; a
# crasher is still written to testdata/fuzz, only less minimized.
echo "== fuzz: similarity kernels vs the string-level measures (10 s)"
go test -run '^$' -fuzz '^FuzzSimilarityKernels$' -fuzztime 10s -fuzzminimizetime 1x ./internal/stringsim

echo "== fuzz: token-id self-join vs the all-pairs reference (10 s)"
go test -run '^$' -fuzz '^FuzzSelfJoin$' -fuzztime 10s -fuzzminimizetime 1x ./internal/stringsim

echo "== fuzz: kNN id index vs the string-set reference (10 s)"
go test -run '^$' -fuzz '^FuzzNearest$' -fuzztime 10s ./internal/knn

echo "== fuzz: incremental query executor vs Execute (10 s)"
go test -run '^$' -fuzz '^FuzzIncrementalEval$' -fuzztime 10s ./internal/vql

echo "== fuzz: batch pair features vs the per-pair reference (10 s)"
go test -run '^$' -fuzz '^FuzzFeaturesOf$' -fuzztime 10s ./internal/em

echo "== fuzz: distance baseline vs Default (10 s)"
go test -run '^$' -fuzz '^FuzzBaseline$' -fuzztime 10s ./internal/distance

echo "== fuzz: VQL parse and print round trip (10 s)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/vql

echo "== fuzz: CSV load and save fixed point (10 s)"
go test -run '^$' -fuzz '^FuzzCSVRoundTrip$' -fuzztime 10s -fuzzminimizetime 1x ./internal/dataset

echo "== fuzz: session import body, the one rebuild path (10 s)"
go test -run '^$' -fuzz '^FuzzImport$' -fuzztime 10s -fuzzminimizetime 1x ./internal/web

echo "== shared kNN and basevis artifacts under concurrent sessions (-race, 10 runs)"
go test -race -count=10 -run '^(TestKnnBaseSharedAcrossSessions|TestDeterminismArtifactCacheConcurrent)$' ./internal/pipeline/

# bench/ is its own module, so the root `go test ./...` never builds it;
# its short tests (smoke run, compare gate, BENCHMARK.json declaration)
# keep the end-to-end benchmark compiling against the internal APIs.
echo "== end-to-end benchmark short tests (bench/ module)"
(cd bench && go test -short ./...)

echo "== loadgen smoke: self-contained cluster, 8 oracle-backed sessions"
loadout=$(mktemp)
go run ./cmd/loadgen -self 2 -sessions 8 -concurrency 8 -iters 1 -out "$loadout"
rm -f "$loadout"

echo "== docs gate (package docs + doc links)"
./scripts/docscheck.sh

# One iteration of each benchmark whose mechanism a test fences
# (TestFences, dataset.TestGetNoAllocs,
# service.TestRegistrySharedArtifactCache), and of the Clone-vs-Overlay
# comparison, so none can rot. The output is not parsed.
echo "== benchmark smoke (1 iteration)"
go test -run '^$' -bench 'BenchmarkFig10_ProgressQ1$|BenchmarkAnnotate/Workers1$|BenchmarkIterationPhases/Incremental$|BenchmarkTableOps/(NumericColumn|Scan)$|BenchmarkCloneVsOverlay|BenchmarkSessionSetup/Warm$|BenchmarkMultiView$' -benchmem -benchtime=1x .

echo "== OK"
