#!/bin/sh
# bench.sh — run the performance-tracking benchmarks and record their
# metrics as JSON (BENCH_pr7.json) so future changes can be compared
# against a committed baseline. BenchmarkAnnotate isolates the benefit
# engine hot path: the incremental delta pricer at Workers=1 vs
# Workers=8. BenchmarkIterationPhases/Incremental records the per-phase
# breakdown (detect/buildERG/annotate/select) of a four-iteration
# session over the maintained detection structures (detectdelta.go).
# Fig10 is the end-to-end progression smoke. The equivalence suites
# scripts/check.sh runs hold the delta pricer and the maintained
# detectors bit-identical to the full rebuild and the from-scratch
# detectors.
#
# BenchmarkTableOps and BenchmarkCloneVsOverlay (bench_table_test.go)
# cover the columnar dataset engine: raw cell scans, id-indexed reads,
# column extraction, sort, append, and the Clone-vs-Overlay comparison
# that justifies the copy-on-write layer. They run with -benchmem so the
# JSON records B/op and allocs/op alongside ns/op — the allocation
# counts are the regression surface scripts/check.sh gates on.
#
# BenchmarkSessionSetup (→ BENCH_pr9.json) measures session
# construction with the shared artifact cache (DESIGN.md §12) cold vs
# warm; the Warm ns/op is the second-session setup cost check.sh gates
# on, and the Cold/Warm ratio is what cross-session artifact sharing
# buys.
#
# BenchmarkMultiView (→ BENCH_pr10.json) runs the multi-view comparison
# of DESIGN.md §13 — one session serving the three-view D1 dashboard vs
# one dedicated session per view — and records answers-to-convergence of
# both arms. Those counts are deterministic (fixed seed and scale), so
# scripts/check.sh gates them by equality, immune to machine drift.
#
# After the go benches, cmd/loadgen storms a self-contained two-shard
# cluster (router + shared snapshot dir, all in one process) with 200
# concurrent oracle-backed sessions and writes BENCH_load.json: answer
# and iterate latency percentiles, 503 rejects, retries, per-shard
# session placement and the router's migration counters (DESIGN.md §9).
#
# Usage: scripts/bench.sh [output.json] [load-output.json] [setup-output.json] [multiview-output.json]
#        scripts/bench.sh --baseline-worktree
#
# --baseline-worktree is the honest way to compare against HEAD on a
# machine whose clock drifts between runs (this box drifts ~25% across
# sessions): it checks HEAD out into a scratch git worktree, runs every
# check.sh-gated benchmark there AND in the current tree within one
# script lifetime, writes HEAD's numbers to BENCH_baseline.json
# (gitignored), and prints old-vs-new side by side. check.sh prefers
# BENCH_baseline.json over the committed BENCH_prN.json when present.
set -eu

cd "$(dirname "$0")/.."

# The union of benchmarks check.sh gates on; --baseline-worktree runs
# exactly these in both trees.
gated='BenchmarkAnnotate/Workers1$|BenchmarkIterationPhases/Incremental$|BenchmarkTableOps/NumericColumn$|BenchmarkTableOps/Scan$|BenchmarkSessionSetup/Warm$|BenchmarkMultiView$'

# emit_json <raw-bench-output-file> <out.json> — shared awk emitter:
# ns/op plus every -benchmem and ReportMetric column, keyed by
# benchmark name with the -GOMAXPROCS suffix stripped.
emit_json() {
    awk -v out="$2" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    nsop[name] = $3
    for (i = 5; i < NF; i += 2) metric[name "." $(i+1)] = $i
    order[n++] = name
}
END {
    printf "{\n" > out
    printf "  \"generated_by\": \"scripts/bench.sh\",\n" >> out
    printf "  \"go_bench\": {\n" >> out
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s", name, nsop[name] >> out
        for (m in metric) {
            split(m, parts, ".")
            if (parts[1] == name) printf ", \"%s\": %s", parts[2], metric[m] >> out
        }
        printf "}%s\n", (i + 1 < n ? "," : "") >> out
    }
    printf "  }\n}\n" >> out
}
' "$1"
}

if [ "${1:-}" = "--baseline-worktree" ]; then
    head=$(git rev-parse --short HEAD)
    wt=$(mktemp -d)
    trap 'git worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"; git worktree prune >/dev/null 2>&1 || true' EXIT INT TERM
    git worktree add --detach --quiet "$wt" HEAD

    oldraw=$(mktemp) && newraw=$(mktemp)
    echo "== baseline: gated benchmarks at HEAD ($head) in scratch worktree"
    (cd "$wt" && go test -run xxx -bench "$gated" -benchmem -benchtime=2x -count=1 .) 2>&1 | tee "$oldraw"
    echo "== current: same benchmarks in the working tree"
    go test -run xxx -bench "$gated" -benchmem -benchtime=2x -count=1 . 2>&1 | tee "$newraw"

    emit_json "$oldraw" BENCH_baseline.json
    echo "wrote BENCH_baseline.json (HEAD $head) — check.sh now gates against it"

    echo "== old (HEAD) vs new (working tree), ns/op"
    awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (FNR == NR) { old[name] = $3 }
    else { new[name] = $3; if (!(name in seen)) { seen[name] = 1; order[n++] = name } }
}
END {
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name in old && old[name] + 0 > 0)
            printf "%-45s %14s -> %14s  (%.2fx)\n", name, old[name], new[name], new[name] / old[name]
        else
            printf "%-45s %14s -> %14s\n", name, "-", new[name]
    }
}
' "$oldraw" "$newraw"
    rm -f "$oldraw" "$newraw"
    exit 0
fi

out="${1:-BENCH_pr8.json}"
loadout="${2:-BENCH_load.json}"
setupout="${3:-BENCH_pr9.json}"
mvout="${4:-BENCH_pr10.json}"

raw=$(mktemp)
go test -run xxx -bench 'BenchmarkAnnotate|BenchmarkIterationPhases|BenchmarkFig10' -benchtime=1x -count=1 . 2>&1 | tee "$raw"
go test -run xxx -bench 'BenchmarkTableOps|BenchmarkCloneVsOverlay' -benchmem -count=1 . 2>&1 | tee -a "$raw"
emit_json "$raw" "$out"
rm -f "$raw"
echo "wrote $out"

echo "== session setup: artifact cache cold vs warm"
setupraw=$(mktemp)
go test -run xxx -bench 'BenchmarkSessionSetup' -benchtime=5x -count=1 . 2>&1 | tee "$setupraw"
emit_json "$setupraw" "$setupout"
rm -f "$setupraw"
echo "wrote $setupout"

echo "== multi-view dashboard: one session vs per-view sequential"
mvraw=$(mktemp)
go test -run xxx -bench 'BenchmarkMultiView$' -benchtime=1x -count=1 . 2>&1 | tee "$mvraw"
emit_json "$mvraw" "$mvout"
rm -f "$mvraw"
echo "wrote $mvout"

echo "== cluster load: 200 concurrent sessions over 2 in-process shards"
go run ./cmd/loadgen -self 2 -sessions 200 -concurrency 200 -iters 2 -out "$loadout"
echo "wrote $loadout"
