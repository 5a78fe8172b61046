#!/bin/sh
# check.sh — the repo's verification gate: build, vet, gofmt, the full
# test suite with the race detector on, short fuzzes of the similarity
# kernels, the kNN index, the incremental query executor, the batch
# feature extractor, the distance baseline and the VQL parser (each
# 10 s, in that order), the determinism +
# incremental equivalence suites (same seed and Workers=1 vs Workers=8
# sessions must be byte-identical, and at every session state the delta
# pricer and the maintained detectors must reproduce the full rebuild
# and the from-scratch detectors bit for bit), ten race-detector runs of the
# shared kNN artifact under concurrent sessions, and a one-shot
# benchmark smoke so the bench harness cannot rot. The smoke also
# guards the incremental engines' reason to exist: if
# BenchmarkAnnotate's Workers=1 ns/op or the Incremental
# iteration-phase detect_µs regresses to more than 2x the committed
# baseline (BENCH_pr3.json / BENCH_pr7.json), the check fails. The
# columnar dataset engine gets the same treatment via BENCH_pr8.json:
# table-ops ns/op must stay within 2x and the zero-allocation scan path
# must not start allocating. The shared artifact cache's reason to
# exist — a warm second-session setup — is guarded the same way via
# BENCH_pr9.json: BenchmarkSessionSetup/Warm must stay within 2x of the
# committed baseline. The multi-view session (DESIGN.md §13) is guarded
# by BENCH_pr10.json: BenchmarkMultiView's answers-to-convergence counts
# are deterministic (fixed seed/scale), so they must match the baseline
# exactly — any drift means cross-view pricing changed behavior. CI and
# pre-commit both run this.
#
# The deterministic guards (Scan's allocs/op, the multi-view counts and
# docscheck.sh) run before the first ns/op guard: a timing guard can fail
# on a slow or loaded machine, and set -e would then skip every check
# after it. The timing guards follow in their old order.
#
# Every guard prefers BENCH_baseline.json when it covers the benchmark:
# that file is written by `scripts/bench.sh --baseline-worktree`, which
# benches HEAD and the working tree in one script lifetime on THIS
# machine — the committed BENCH_prN.json numbers come from a box whose
# clock drifts ~25% between sessions, so a same-run baseline is the only
# fair ns/op comparison. BENCH_baseline.json is gitignored.
set -eu

cd "$(dirname "$0")/.."

# pick_baseline <bench-name> <committed-file>: prefer the same-machine
# same-run BENCH_baseline.json over the committed baseline when present
# and covering the benchmark.
pick_baseline() {
    if [ -f BENCH_baseline.json ] && grep -q "\"$1\"" BENCH_baseline.json; then
        echo BENCH_baseline.json
    else
        echo "$2"
    fi
}

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
echo "== fuzz: similarity kernels vs the string-level measures (10 s)"
go test -run '^$' -fuzz '^FuzzSimilarityKernels$' -fuzztime 10s ./internal/stringsim

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

echo "== determinism + incremental equivalence suites (-race)"
go test -race -count=1 -run 'TestDeterminism|TestIncremental|TestDetectEquivalence' ./internal/pipeline/

echo "== shared kNN artifact under concurrent sessions (-race, 10 runs)"
go test -race -count=10 -run '^TestKnnBaseSharedAcrossSessions$' ./internal/pipeline/

echo "== chaos suite: fault-injection kill-restart (-race, short mode)"
go test -race -short -count=1 -run 'TestChaos' ./internal/service/

echo "== cluster smoke: 2 shards + consistent-hash router (-race, short mode)"
go test -race -short -count=1 -run 'TestClusterSmoke' ./internal/cluster/

# bench/ is its own module, so the root `go test ./...` never builds it;
# its short tests (smoke run, compare gate, BENCHMARK.json declaration)
# keep the end-to-end benchmark compiling against the internal APIs.
echo "== end-to-end benchmark short tests (bench/ module)"
(cd bench && go test -short ./...)

echo "== loadgen smoke: self-contained cluster, 8 oracle-backed sessions"
loadout=$(mktemp)
go run ./cmd/loadgen -self 2 -sessions 8 -concurrency 8 -iters 1 -out "$loadout"
rm -f "$loadout"

echo "== table benchmark smoke (columnar engine, -benchmem)"
tsmoke=$(go test -run xxx -bench 'BenchmarkTableOps/NumericColumn$|BenchmarkTableOps/Scan$|BenchmarkCloneVsOverlay' -benchmem -benchtime=100x .)
echo "$tsmoke"

tfile=$(pick_baseline 'BenchmarkTableOps/NumericColumn' BENCH_pr8.json)
if [ -f "$tfile" ]; then
    sfile=$(pick_baseline 'BenchmarkTableOps/Scan' BENCH_pr8.json)
    abase=$(awk -F'"allocs/op": ' '/"BenchmarkTableOps\/Scan"/ {split($2, a, /[,}]/); print a[1]}' "$sfile")
    acur=$(echo "$tsmoke" | awk '$1 ~ /^BenchmarkTableOps\/Scan/ {for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") print $i}')
    if [ -n "$abase" ] && [ -n "$acur" ]; then
        echo "== alloc regression guard: Scan current ${acur} allocs/op vs baseline ${abase} allocs/op (${sfile})"
        awk -v c="$acur" -v b="$abase" 'BEGIN {
            if (c + 0 > 2 * b && c + 0 > 0) { printf "FAIL: scan allocs/op regressed (%s > 2 * %s) — the zero-allocation Get path is gone\n", c, b; exit 1 }
        }'
    else
        echo "== SKIP alloc regression guard: ${sfile} present but unparsable (baseline='${abase}', current='${acur}') — regenerate with scripts/bench.sh"
    fi
else
    echo "== SKIP table regression guards: no BENCH_pr8.json baseline in this checkout — generate one with scripts/bench.sh"
fi

echo "== multi-view benchmark smoke (cross-view pricing, deterministic counts)"
mvsmoke=$(go test -run xxx -bench 'BenchmarkMultiView$' -benchtime=1x .)
echo "$mvsmoke"

mvfile=$(pick_baseline 'BenchmarkMultiView' BENCH_pr10.json)
if [ -f "$mvfile" ]; then
    mbase=$(awk -F'"multi_answers": ' '/"BenchmarkMultiView"/ {split($2, a, /[,}]/); print a[1]}' "$mvfile")
    sbase=$(awk -F'"seq_answers": ' '/"BenchmarkMultiView"/ {split($2, a, /[,}]/); print a[1]}' "$mvfile")
    mcur=$(echo "$mvsmoke" | awk '$1 ~ /^BenchmarkMultiView/ {for (i = 3; i < NF; i++) if ($(i+1) == "multi_answers") print $i}')
    scur=$(echo "$mvsmoke" | awk '$1 ~ /^BenchmarkMultiView/ {for (i = 3; i < NF; i++) if ($(i+1) == "seq_answers") print $i}')
    if [ -n "$mbase" ] && [ -n "$mcur" ] && [ -n "$sbase" ] && [ -n "$scur" ]; then
        echo "== multi-view determinism guard: multi ${mcur} vs ${mbase}, seq ${scur} vs ${sbase} (current vs ${mvfile})"
        awk -v mc="$mcur" -v mb="$mbase" -v sc="$scur" -v sb="$sbase" 'BEGIN {
            if (mc + 0 != mb + 0 || sc + 0 != sb + 0) {
                printf "FAIL: multi-view answers-to-convergence moved (multi %s -> %s, seq %s -> %s) — these counts are deterministic, so cross-view pricing changed behavior; regenerate the baseline with scripts/bench.sh if intended\n", mb, mc, sb, sc
                exit 1
            }
        }'
    else
        echo "== SKIP multi-view guard: ${mvfile} present but unparsable (multi='${mbase}'/'${mcur}', seq='${sbase}'/'${scur}') — regenerate with scripts/bench.sh"
    fi
else
    echo "== SKIP multi-view guard: no BENCH_pr10.json baseline in this checkout — generate one with scripts/bench.sh"
fi

echo "== docs gate (package docs + doc links)"
./scripts/docscheck.sh

echo "== benchmark smoke (Fig 10 + Annotate + IterationPhases, 1 iteration)"
smoke=$(go test -run xxx -bench 'BenchmarkFig10|BenchmarkAnnotate/Workers1$|BenchmarkIterationPhases/Incremental$' -benchtime=1x .)
echo "$smoke"

afile=$(pick_baseline 'BenchmarkAnnotate/Workers1' BENCH_pr3.json)
if [ -f "$afile" ]; then
    baseline=$(awk -F'ns_per_op": ' '/"BenchmarkAnnotate\/Workers1"/ {split($2, a, /[,}]/); print a[1]}' "$afile")
    current=$(echo "$smoke" | awk '$1 ~ /^BenchmarkAnnotate\/Workers1/ {print $3}')
    if [ -n "$baseline" ] && [ -n "$current" ]; then
        echo "== annotate regression guard: current ${current} ns/op vs baseline ${baseline} ns/op (${afile})"
        awk -v c="$current" -v b="$baseline" 'BEGIN {
            if (c > 2 * b) { printf "FAIL: Annotate ns/op regressed more than 2x (%s > 2 * %s)\n", c, b; exit 1 }
        }'
    else
        echo "== SKIP annotate regression guard: ${afile} present but unparsable (baseline='${baseline}', current='${current}') — regenerate with scripts/bench.sh"
    fi
else
    echo "== SKIP annotate regression guard: no BENCH_pr3.json baseline in this checkout — generate one with scripts/bench.sh"
fi

dfile=$(pick_baseline 'BenchmarkIterationPhases/Incremental' BENCH_pr7.json)
if [ -f "$dfile" ]; then
    dbase=$(awk -F'"detect_µs": ' '/"BenchmarkIterationPhases\/Incremental"/ {split($2, a, /[,}]/); print a[1]}' "$dfile")
    dcur=$(echo "$smoke" | awk '$1 ~ /^BenchmarkIterationPhases\/Incremental/ {for (i = 3; i < NF; i++) if ($(i+1) == "detect_µs") print $i}')
    if [ -n "$dbase" ] && [ -n "$dcur" ]; then
        echo "== detect regression guard: current ${dcur} µs vs baseline ${dbase} µs (${dfile})"
        awk -v c="$dcur" -v b="$dbase" 'BEGIN {
            if (c > 2 * b) { printf "FAIL: incremental detect_µs regressed more than 2x (%s > 2 * %s)\n", c, b; exit 1 }
        }'
    else
        echo "== SKIP detect regression guard: ${dfile} present but unparsable (baseline='${dbase}', current='${dcur}') — regenerate with scripts/bench.sh"
    fi
else
    echo "== SKIP detect regression guard: no BENCH_pr7.json baseline in this checkout — generate one with scripts/bench.sh"
fi

if [ -f "$tfile" ]; then
    tbase=$(awk -F'ns_per_op": ' '/"BenchmarkTableOps\/NumericColumn"/ {split($2, a, /[,}]/); print a[1]}' "$tfile")
    tcur=$(echo "$tsmoke" | awk '$1 ~ /^BenchmarkTableOps\/NumericColumn/ {print $3}')
    if [ -n "$tbase" ] && [ -n "$tcur" ]; then
        echo "== table-ops regression guard: NumericColumn current ${tcur} ns/op vs baseline ${tbase} ns/op (${tfile})"
        awk -v c="$tcur" -v b="$tbase" 'BEGIN {
            if (c > 2 * b) { printf "FAIL: table-ops ns/op regressed more than 2x (%s > 2 * %s)\n", c, b; exit 1 }
        }'
    else
        echo "== SKIP table-ops regression guard: ${tfile} present but unparsable (baseline='${tbase}', current='${tcur}') — regenerate with scripts/bench.sh"
    fi
else
    echo "== SKIP table regression guards: no BENCH_pr8.json baseline in this checkout — generate one with scripts/bench.sh"
fi

echo "== session-setup benchmark smoke (artifact cache warm path)"
ssmoke=$(go test -run xxx -bench 'BenchmarkSessionSetup/Warm$' -benchtime=5x .)
echo "$ssmoke"

wfile=$(pick_baseline 'BenchmarkSessionSetup/Warm' BENCH_pr9.json)
if [ -f "$wfile" ]; then
    wbase=$(awk -F'ns_per_op": ' '/"BenchmarkSessionSetup\/Warm"/ {split($2, a, /[,}]/); print a[1]}' "$wfile")
    wcur=$(echo "$ssmoke" | awk '$1 ~ /^BenchmarkSessionSetup\/Warm/ {print $3}')
    if [ -n "$wbase" ] && [ -n "$wcur" ]; then
        echo "== warm-setup regression guard: current ${wcur} ns/op vs baseline ${wbase} ns/op (${wfile})"
        awk -v c="$wcur" -v b="$wbase" 'BEGIN {
            if (c > 2 * b) { printf "FAIL: warm session setup regressed more than 2x (%s > 2 * %s) — the artifact cache hit path is broken\n", c, b; exit 1 }
        }'
    else
        echo "== SKIP warm-setup regression guard: ${wfile} present but unparsable (baseline='${wbase}', current='${wcur}') — regenerate with scripts/bench.sh"
    fi
else
    echo "== SKIP warm-setup regression guard: no BENCH_pr9.json baseline in this checkout — generate one with scripts/bench.sh"
fi

echo "== OK"
