#!/usr/bin/env bash
# Continuous-integration driver. Mirrors .github/workflows/ci.yml so the
# full gate runs locally with one command:
#
#   scripts/ci.sh            # all stages
#   scripts/ci.sh build      # tier-1 build + full ctest
#   scripts/ci.sh tsan       # ThreadSanitizer build + tsan-labelled suites
#   scripts/ci.sh asan       # ASan+UBSan build + chaos/bitid-labelled suites
#   scripts/ci.sh perf       # <10 s hot-path bench smoke (perf label)
#
# Build trees: build/ (tier-1 + perf), build-tsan/ (ThreadSanitizer) and
# build-asan/ (Address+UndefinedBehaviorSanitizer).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

configure() { # <build-dir> [extra cmake args...]
  local dir="$1"; shift
  if [ ! -f "$dir/CMakeCache.txt" ]; then
    # ccache (when present) makes warm CI rebuilds near-instant; the
    # workflow persists its directory across runs via actions/cache.
    local launcher=()
    if command -v ccache >/dev/null 2>&1; then
      launcher=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
    fi
    cmake -B "$dir" -DCMAKE_BUILD_TYPE=Release "${launcher[@]}" "$@"
  fi
}

stage_build() {
  echo "==> tier-1: build + full test suite"
  configure build
  cmake --build build -j "$JOBS"
  # Everything except the perf smoke (run separately so a loaded CI
  # machine failing the timing gate does not mask a correctness failure).
  ctest --test-dir build -LE perf --output-on-failure
}

stage_tsan() {
  echo "==> tsan: ThreadSanitizer build + tsan-labelled suites"
  configure build-tsan -DSWIFTSIM_TSAN=ON
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan -L tsan --output-on-failure
}

stage_asan() {
  echo "==> asan: ASan+UBSan build + chaos- and bitid-labelled suites"
  configure build-asan -DSWIFTSIM_ASAN=ON
  cmake --build build-asan -j "$JOBS"
  # The chaos label covers fault injection, the livelock/watchdog fixtures,
  # the malformed-input tables, and the §16 crash-recovery gates
  # (journal/torn-tail suites, the supervisor crash matrix, and the
  # chaos_recovery_smoke / chaos_supervise_smoke SIGKILL-and-resume
  # benches, which self-skip with exit 77 where fork/kill is unavailable)
  # — the inputs most likely to surface memory errors. The bitid label adds
  # the bit-identity suites of the driver's set-bit walks (golden digests,
  # the crossbar differential test, the scheduler live-set rows), where a
  # shift by 64 or an off-by-one word would otherwise go unnoticed.
  ctest --test-dir build-asan -L 'chaos|bitid' --output-on-failure
}

stage_perf() {
  echo "==> perf: bench smoke (hot-path throughput + memo exactness +"
  echo "          DSE sweep + trace compaction + persistent-service gates)"
  configure build
  cmake --build build -j "$JOBS" --target swiftsim_bench swiftsimd
  # perf_dse_smoke and perf_service_smoke self-skip (exit 77) on hosts
  # with < 4 hardware threads, where their speedup gates are
  # meaningless. perf_trace_smoke times nothing (bytes/instr and cache
  # reload identity only) but goes through the same --smoke skip.
  ctest --test-dir build -L perf --output-on-failure
}

case "${1:-all}" in
  build) stage_build ;;
  tsan)  stage_tsan ;;
  asan)  stage_asan ;;
  perf)  stage_perf ;;
  all)   stage_build; stage_tsan; stage_asan; stage_perf ;;
  *) echo "usage: $0 [build|tsan|asan|perf|all]" >&2; exit 2 ;;
esac
