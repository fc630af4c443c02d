#!/usr/bin/env bash
# Pre-PR gate: build with sanitizers + -Werror, run the sadapt-check
# static analysis suite over sources and committed artifacts, then run
# the analysis-labeled tests. See ROADMAP.md ("Pre-PR gate").
#
#   tools/run_checks.sh [build-dir] [tsan-build-dir]
#
# Exits nonzero on the first failing stage. The final stage rebuilds
# the threading- and store-labeled suites under ThreadSanitizer in its
# own tree.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-checks}"

echo "== configure ($build_dir: SADAPT_SANITIZE=address,undefined SADAPT_WERROR=ON)"
cmake -B "$build_dir" -S "$repo_root" \
    -DSADAPT_SANITIZE=address,undefined -DSADAPT_WERROR=ON > /dev/null

echo "== build (ASan+UBSan)"
cmake --build "$build_dir" -j "$(nproc)" > /dev/null

echo "== sadapt_check: sources (lint), models, specs, journals, stores"
"$build_dir/tools/sadapt_check" all \
    --root "$repo_root" \
    --src "$repo_root/src" \
    --model "$repo_root/tests/data/analysis/good.model" \
    --specs "$repo_root/tests/data/analysis/good_specs.txt" \
    --journal "$repo_root/tests/data/analysis/good.journal" \
    --store "$repo_root/tests/data/analysis/good.store" \
    --baseline "$repo_root/tools/sadapt_check.baseline"

# The analysis suite (including the lint rules' own tests) and the
# obs suite run under the ASan+UBSan build above.
echo "== ctest -L analysis|obs (ASan+UBSan)"
ctest --test-dir "$build_dir" -L 'analysis|obs' --output-on-failure \
    -j "$(nproc)"

# Trace-container gate: the container, its column view and the golden
# fingerprint pin. An out-of-bounds column read or a changed digest
# fails here by test name under the sanitizers.
echo "== ctest -L trace (ASan+UBSan)"
ctest --test-dir "$build_dir" -L trace --output-on-failure \
    -j "$(nproc)"

# Replay-order gate: the golden replay digests and the event-tree
# differential tests. A reordered event, a changed barrier release or
# rescale, or a moved floating-point accumulation fails here by test
# name, under the same sanitized build.
echo "== ctest -L replay (ASan+UBSan)"
ctest --test-dir "$build_dir" -L replay --output-on-failure \
    -j "$(nproc)"

# Persistent-store gate: the record-log crash-recovery, EpochStore
# cache-contract and warm-start determinism suite, plus the
# kill-and-rerun drill of a parallel sweep, under the same sanitized
# build.
echo "== ctest -L store"
ctest --test-dir "$build_dir" -L store --output-on-failure \
    -j "$(nproc)"

# Serving gate: the multi-tenant control server's contract — merged
# journal/metrics byte-identical at any --sessions window and worker
# count, the golden serve pins and the session-interleaving
# regression — under the same sanitized build.
echo "== ctest -L serving"
ctest --test-dir "$build_dir" -L serving --output-on-failure \
    -j "$(nproc)"

# jobs=N determinism gate: sweeps (EpochDb, metrics, journal, store
# files) and serve's session workers must match their serial runs
# byte for byte under the sanitized build too; the same suite reruns
# under TSan below.
echo "== ctest -L threading (ASan+UBSan)"
ctest --test-dir "$build_dir" -L threading --output-on-failure \
    -j "$(nproc)"

# Repeat gate: the whole suite, five times over, as parallel as the
# host allows. Every case must own its scratch files, so a shared
# path or an order dependence between cases shows up here as a
# failure instead of as a rare flake on the default ctest -j path.
echo "== ctest --repeat until-fail:5 (ASan+UBSan)"
ctest --test-dir "$build_dir" -j"$(nproc)" --repeat until-fail:5 \
    --output-on-failure

# Perf-regression gate (opt-in: SADAPT_BENCH_TREND=1). Re-measures
# the replay hot path at the committed baseline's pinned scale knobs
# (best-of-3 runs) and gates it against bench/baselines with
# bench_trend. Sanitizers skew timing, so the measurement gets its own
# plain-flags tree. The
# byte-deterministic parts of the gate (baseline self-check,
# slowed-fixture rejection) always run via the obs-labeled ctest
# stages above.
if [[ "${SADAPT_BENCH_TREND:-0}" != "0" ]]; then
    bench_dir="${SADAPT_BENCH_BUILD_DIR:-$repo_root/build-bench}"
    echo "== configure ($bench_dir: plain flags for timing)"
    cmake -B "$bench_dir" -S "$repo_root" > /dev/null
    echo "== build replay_speed + serve_traffic + bench_trend"
    cmake --build "$bench_dir" -j "$(nproc)" \
        --target replay_speed serve_traffic bench_trend > /dev/null
    trend_dir="$bench_dir/bench-trend"
    rm -rf "$trend_dir"
    mkdir -p "$trend_dir/models"
    echo "== replay_speed + serve_traffic x3 (pinned scale: 1.0 / 8 samples / 5 reps)"
    for i in 1 2 3; do
        mkdir -p "$trend_dir/run$i"
        (cd "$trend_dir/run$i" &&
            SPARSEADAPT_BENCH_SCALE=1.0 SPARSEADAPT_SAMPLES=8 \
            SPARSEADAPT_JOBS=1 SPARSEADAPT_REPS=5 \
            SPARSEADAPT_MODEL_DIR="$trend_dir/models" \
            "$bench_dir/bench/replay_speed" > /dev/null)
        (cd "$trend_dir/run$i" &&
            SPARSEADAPT_BENCH_SCALE=1.0 SPARSEADAPT_SAMPLES=8 \
            SPARSEADAPT_JOBS=1 SPARSEADAPT_REPS=5 \
            SPARSEADAPT_MODEL_DIR="$trend_dir/models" \
            "$bench_dir/bench/serve_traffic" > /dev/null)
    done
    echo "== bench_trend vs bench/baselines"
    "$bench_dir/tools/bench_trend" \
        --baseline "$repo_root/bench/baselines" \
        --threshold "${SADAPT_BENCH_THRESHOLD:-50}" \
        "$trend_dir"
fi

# ThreadSanitizer gate for the parallel sweep engine: TSan excludes
# ASan, so it gets its own build tree, and only the threading- and
# store-labeled suites (parallelFor units, jobs=N determinism and the
# kill-and-rerun drill of a jobs=4 sweep) need rebuilding.
tsan_dir="${2:-$repo_root/build-tsan}"
echo "== configure ($tsan_dir: SADAPT_SANITIZE=thread SADAPT_WERROR=ON)"
cmake -B "$tsan_dir" -S "$repo_root" \
    -DSADAPT_SANITIZE=thread -DSADAPT_WERROR=ON > /dev/null

echo "== build sadapt_parallel_tests + sadapt_store_tests (TSan)"
cmake --build "$tsan_dir" -j "$(nproc)" \
    --target sadapt_parallel_tests sadapt_store_tests > /dev/null

echo "== ctest -L threading|store (TSan)"
ctest --test-dir "$tsan_dir" -L 'threading|store' --output-on-failure \
    -j "$(nproc)"

echo "== all checks passed"
