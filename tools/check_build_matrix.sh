#!/usr/bin/env bash
# Builds and tests the full configuration matrix:
#
#   plain          default flags (what `cmake -B build` gives you)
#   werror         -Werror (XREFINE_WERROR=ON)
#   asan-ubsan     AddressSanitizer (XREFINE_SANITIZE=address) — UBSan runs
#                  as a separate config because the two flags are mutually
#                  exclusive in XREFINE_SANITIZE
#   ubsan          UndefinedBehaviorSanitizer (XREFINE_SANITIZE=undefined)
#   tsan           ThreadSanitizer (XREFINE_SANITIZE=thread); this is the
#                  config that gives tests/concurrency_test.cc its teeth
#   debug-locks    runtime lock-rank checker (XREFINE_DEBUG_LOCKS=ON, Debug)
#                  — tests/lock_rank_test.cc's death tests prove inverted
#                  acquisition aborts, and the full suite proves the real
#                  lock order never trips the checker
#   fuzz-regress   Debug + ASan corpus replay: the fuzz_*_regress runners
#                  replay tests/fuzz_corpora/ (seeds AND committed
#                  crashers) plus their mutation loops with live DCHECKs
#                  and heap poisoning — the strongest no-libFuzzer gate
#                  over the decode surfaces
#   thread-safety  Clang -Wthread-safety as errors (XREFINE_THREAD_SAFETY=ON)
#                  — skipped with a note when clang++ is not installed,
#                  since the option FATAL_ERRORs under other compilers
#
# Each config configures into build-matrix/<name>, builds everything, and
# runs ctest. Any failure aborts the script (set -e), so a green exit means
# the whole matrix passed.
#
# Usage: tools/check_build_matrix.sh [--quick]
#   --quick  plain + tsan only (the two configs that catch the most)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
MATRIX_DIR="$ROOT/build-matrix"
JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"; shift
  local dir="$MATRIX_DIR/$name"
  echo "=== [$name] configure: $* ==="
  cmake -B "$dir" -S "$ROOT" "$@" >/dev/null
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS" >/dev/null
  echo "=== [$name] ctest ==="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" >/dev/null)
  echo "=== [$name] OK ==="
}

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

run_config plain
if [ "$QUICK" -eq 0 ]; then
  run_config werror -DXREFINE_WERROR=ON
  run_config asan -DXREFINE_SANITIZE=address
  run_config ubsan -DXREFINE_SANITIZE=undefined
  # Lock-rank checker: Debug so XR_DCHECKs are live alongside the ranked
  # mutexes; lock_rank_test's death tests need the checker compiled in, and
  # the rest of the suite doubles as the pass-through proof that the
  # documented order holds on every path the tests drive.
  run_config debug-locks -DXREFINE_DEBUG_LOCKS=ON -DCMAKE_BUILD_TYPE=Debug
fi
run_config tsan -DXREFINE_SANITIZE=thread

# Fuzz corpus replay under ASan with live DCHECKs: only the fuzz_*_regress
# ctest targets, but in the config where a stale crasher would actually
# bite — every seed and committed crasher replays plus 600 deterministic
# mutations each.
fuzz_regress() {
  local dir="$MATRIX_DIR/fuzz-regress"
  echo "=== [fuzz-regress] configure ==="
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
      -DXREFINE_SANITIZE=address >/dev/null
  echo "=== [fuzz-regress] build ==="
  cmake --build "$dir" -j "$JOBS" >/dev/null
  echo "=== [fuzz-regress] ctest (fuzz_*_regress) ==="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" \
      -R '^fuzz_.*_regress$' >/dev/null)
  echo "=== [fuzz-regress] OK ==="
}
fuzz_regress

# Store-backed serving smoke under TSan: the parallel-query bench drives
# 1/2/4/8 threads through the StoreBackedIndexSource's posting-list cache
# and the pager underneath it — the exact lock interplay the annotations
# model, so it must come up clean under the race detector.
echo "=== [tsan] bench_parallel_queries smoke ==="
(cd "$MATRIX_DIR/tsan" && ./bench/bench_parallel_queries >/dev/null)
echo "=== [tsan] bench smoke OK ==="

# Buffer-pool contention stress under TSan: uniform/hot/single-page access
# patterns from 1-8 threads exercise the sharded page table, the
# single-flight miss protocol, and eviction racing pins — the paths where a
# latch-striping bug would be a data race rather than a wrong answer. The
# binary self-checks page stamps and exits non-zero on corruption.
echo "=== [tsan] bench_pager_stress ==="
(cd "$MATRIX_DIR/tsan" && ./bench/bench_pager_stress >/dev/null)
echo "=== [tsan] pager stress OK ==="

# Scan-path smoke under TSan: concurrent SLCA scans against one shared
# StoreBackedIndexSource — galloping probes over pinned flat lists, blocked
# record decodes racing through the single-flight cache. The binary also
# cross-checks Scan Eager against Indexed Lookup Eager on every query and
# exits non-zero on divergence, so this doubles as a correctness gate in
# the matrix. (The codec itself —
# posting_blocks_test — runs in every config's ctest pass, including the
# asan and ubsan legs.)
echo "=== [tsan] bench_scan smoke ==="
(cd "$MATRIX_DIR/tsan" && ./bench/bench_scan --quick >/dev/null)
echo "=== [tsan] scan smoke OK ==="

# DAG-compression equivalence leg: bench_dag_scale --quick builds each
# corpus twice (uncompressed tree, streaming DAG), gates on byte-identical
# SLCA results across both corpora under all three algorithms, then times
# the DAG path — under TSan for the shared-structure query phase, and (full
# matrix only) under ASan, where an out-of-bounds child-pool or text-arena
# index in the hash-consing layer would actually trap. The dedicated
# equivalence suites (slca_property_test, dag_document_test) already run in
# every config's ctest pass; this smoke adds the generator-built corpora at
# bench scale.
echo "=== [tsan] bench_dag_scale smoke ==="
(cd "$MATRIX_DIR/tsan" && ./bench/bench_dag_scale --quick \
    --out dag_smoke.json >/dev/null)
echo "=== [tsan] dag scale smoke OK ==="
if [ "$QUICK" -eq 0 ]; then
  echo "=== [asan] bench_dag_scale smoke ==="
  (cd "$MATRIX_DIR/asan" && ./bench/bench_dag_scale --quick \
      --out dag_smoke.json >/dev/null)
  echo "=== [asan] dag scale smoke OK ==="
fi

# Prepare-path smoke under TSan: rule generation over the shared
# VocabularyIndex snapshot (built once, read concurrently by engines) and
# the TinyLFU-advised posting-list cache, whose sketch shares the cache
# latch. --quick keeps the vocabularies small; the point is the locking,
# not the timings.
echo "=== [tsan] bench_rule_generation smoke ==="
(cd "$MATRIX_DIR/tsan" && ./bench/bench_rule_generation --quick >/dev/null)
echo "=== [tsan] rule-generation smoke OK ==="

# Serving smoke under TSan: a real daemon process on an ephemeral port
# (result cache ON — the xrefine_serve default), driven over TCP by the
# load driver — accept loop, session readers, worker pool, admission gate,
# result cache (reader-thread inline hits racing worker-thread fills), and
# metrics all racing for real. The driver's repeated-query phase runs a
# depth-8 pipelined window against the live daemon and exits non-zero on
# any transport error, any dropped/malformed frame, or any response whose
# payload is not byte-identical to the serial pass and the cold/coalesced/
# cached cross-check. The daemon must shut down cleanly on SIGTERM (a TSan
# report turns its exit status non-zero too).
echo "=== [tsan] server smoke ==="
(
  cd "$MATRIX_DIR/tsan"
  rm -f server_smoke.out
  ./tools/xrefine_serve --dblp 150 --workers 2 > server_smoke.out 2>&1 &
  SERVE_PID=$!
  PORT=""
  for _ in $(seq 1 150); do
    PORT="$(sed -n 's/^listening on port \([0-9]*\)$/\1/p' server_smoke.out)"
    [ -n "$PORT" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "xrefine_serve died during startup:"; cat server_smoke.out; exit 1
    fi
    sleep 0.2
  done
  if [ -z "$PORT" ]; then
    echo "xrefine_serve never reported its port"; kill "$SERVE_PID"; exit 1
  fi
  ./bench/bench_server_load --port "$PORT" --quick --pipeline-depth 8 \
      --out server_smoke.json >/dev/null
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
)
echo "=== [tsan] server smoke OK ==="

if command -v clang++ >/dev/null 2>&1; then
  run_config thread-safety \
      -DCMAKE_CXX_COMPILER=clang++ -DXREFINE_THREAD_SAFETY=ON
else
  echo "=== [thread-safety] SKIPPED: clang++ not found; the annotations" \
       "compile to no-ops under GCC, so only Clang can enforce them ==="
fi

echo "build matrix: all configs passed"
