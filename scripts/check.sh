#!/usr/bin/env bash
# Verify gates for the repo.
#
# `lint` builds the repo-native static analyzer (tools/vorlint) and runs
# it over src/ and tools/: determinism rules (DET-*), concurrency rules
# (CONC-*), and header hygiene (HYG-1), with per-rule counts in a summary
# table.  When clang-tidy is installed it also runs over the exported
# compile_commands.json; otherwise it prints a skip note.
#
# The sanitizer gate builds the asan-ubsan and tsan presets and runs
# ctest under each.  The ASan/UBSan run covers the whole suite, with
# `assert` live (the asan-ubsan preset compiles without NDEBUG, as do the
# bench-region, codec-diff and rpc-soak gates built from it); the TSan
# run covers the concurrency-bearing suites (thread pool, scheduler,
# SORP, IVSP, shootout, incremental, determinism, ranked mutex) — the
# full suite under TSan is an order of magnitude slower for no extra
# thread coverage.  The tsan preset also compiles with
# VOR_LOCK_ORDER_CHECK=ON, so every svc/rpc/obs mutex runs the runtime
# lock-order witness (util::RankedMutex): a rank breach aborts with the
# held-stack dump instead of deadlocking under the race detector.  That
# flag rides along into the `soak` and `rpc-soak` gates below, which
# build from the same preset.
#
# `bench-smoke` builds the plain tree and runs `bench_smoke --smoke`
# (bench/bench_smoke.cpp): a 1M-request streaming replay whose peak-RSS
# growth must stay within 8 MB, a 15-byte trace declaring a 1 GiB section
# that both trace readers must reject within the same 8 MB, and the SORP
# stress solve (SORP engages, victims > 0, one usage build, abandoned dry
# runs > 0, the sorp.* metrics schema present).
# Performance is e2ebench's job (BENCHMARK.json); this gate checks
# invariants only.
#
# `bench-region` builds bench_smoke under the asan-ubsan preset and runs
# `--region-smoke`: a 50k-request region-skewed scale trace solved
# monolithically and region-sharded, checking shard-plan formation,
# candidate-evaluation reduction, resolution, byte-identical schedules
# across (regions x threads) combinations, and equal abandoned dry runs
# across thread counts — with the memory and UB checkers watching the
# parallel shard path.
#
# `soak` builds vorctl under the tsan preset and replays a short trace
# through `vorctl serve` with concurrent producers plus the background
# cycle clock — from CSV, streaming from a vor-bin binary trace, and
# with region-sharded SORP at each close; any race report fails the gate
# (TSan exits non-zero).
#
# `codec-diff` builds vorctl under the asan-ubsan preset and proves the
# vor-bin codec lossless end-to-end: encode -> decode -> re-encode must
# be byte-identical for a trace, a schedule, and a service snapshot,
# and a binary-trace serve must commit byte-identical schedules to the
# CSV-trace serve.
#
# `rpc-soak` exercises the vor-rpc/1 socket front-end under both
# sanitizers: a tsan-built `vorctl serve --listen` takes a 4-connection
# `vorctl load` replay over loopback (accept thread + connection pool +
# intake producers all under the race detector) and the committed
# schedule must be byte-identical to a plain file replay of the same
# trace; then the asan-ubsan test binary runs the adversarial frame
# suite (truncation/bit-flip sweeps, hostile length prefixes, malformed
# bytes over a real socket) with the memory checkers watching.
#
# `all` runs lint first (cheapest gate, fails fastest), then the
# sanitizer builds, then the bench smokes, then the codec diff, then the
# soaks.
#
# Usage: scripts/check.sh [lint|asan-ubsan|tsan|bench-smoke|bench-region|codec-diff|soak|rpc-soak|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=${JOBS:-$(nproc)}
which=${1:-all}

# Build trees must never be committed; .gitignore covers build*/ but a
# forced add would slip past it, so fail fast if any are tracked.  The
# same goes for generated build metadata: a committed or symlinked
# compile_commands.json and a stale in-source CMakeCache.txt both break
# fresh configures in confusing ways.
echo "==> check no build trees are git-tracked"
if tracked=$(git ls-files 'build*/' 'build*' 'compile_commands.json' \
    'CMakeCache.txt' 'CMakeFiles/' | head -20) && [[ -n "${tracked}" ]]; then
  echo "error: build artifacts are git-tracked:" >&2
  echo "${tracked}" >&2
  echo "fix with: git rm -r --cached <path>" >&2
  exit 1
fi
if [[ -e CMakeCache.txt || -d CMakeFiles ]]; then
  echo "error: stale in-source configure at the repo root (CMakeCache.txt/" >&2
  echo "CMakeFiles) shadows out-of-source builds" >&2
  echo "fix with: rm -rf CMakeCache.txt CMakeFiles" >&2
  exit 1
fi
if [[ -L compile_commands.json && ! -e compile_commands.json ]]; then
  echo "error: compile_commands.json is a dangling symlink (its build tree" >&2
  echo "is gone); remove or re-point it" >&2
  echo "fix with: rm compile_commands.json" >&2
  exit 1
fi

run_preset() {
  local preset=$1
  shift
  echo "==> configure ${preset}"
  cmake --preset "${preset}"
  echo "==> build ${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==> ctest ${preset}"
  ctest --preset "${preset}" -j "${jobs}" "$@"
}

lint() {
  echo "==> configure build (default preset)"
  cmake -S . -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "==> build vorlint"
  cmake --build build -j "${jobs}" --target vorlint
  echo "==> vorlint src tools"
  ./build/tools/vorlint/vorlint src tools
  echo "==> vorlint --format json smoke"
  # The JSON rendering is what CI dashboards consume; make sure it stays
  # parseable (python ships everywhere this script runs).
  ./build/tools/vorlint/vorlint --format json src tools \
    | python3 -c 'import json,sys; json.load(sys.stdin)'
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy (compile_commands.json from build/)"
    # shellcheck disable=SC2046
    clang-tidy -p build --quiet $(git ls-files 'src/**/*.cpp' 'tools/*.cpp')
  else
    echo "==> clang-tidy not installed; skipping (vorlint gate still ran)"
  fi
}

bench_smoke() {
  echo "==> configure build (default preset)"
  cmake -S . -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "==> build bench_smoke"
  cmake --build build -j "${jobs}" --target bench_smoke
  echo "==> bench_smoke --smoke"
  ./build/bench/bench_smoke --smoke
}

bench_region() {
  echo "==> configure asan-ubsan"
  cmake --preset asan-ubsan >/dev/null
  echo "==> build bench_smoke (asan-ubsan)"
  cmake --build --preset asan-ubsan -j "${jobs}" --target bench_smoke
  echo "==> bench_smoke --region-smoke (asan-ubsan)"
  ./build-asan-ubsan/bench/bench_smoke --region-smoke
}

codec_diff() {
  echo "==> configure asan-ubsan"
  cmake --preset asan-ubsan >/dev/null
  echo "==> build vorctl (asan-ubsan)"
  cmake --build --preset asan-ubsan -j "${jobs}" --target vorctl
  local workdir
  workdir=$(mktemp -d)
  trap 'rm -rf "${workdir}"' RETURN
  local vorctl=./build-asan-ubsan/tools/vorctl
  echo "==> generate codec fixtures"
  "${vorctl}" gen-scenario --storages 5 --users 4 --catalog 30 \
    --capacity-gb 5 --seed 23 \
    --out "${workdir}/scenario.json" --trace-out "${workdir}/trace.csv"
  "${vorctl}" solve "${workdir}/scenario.json" \
    --out "${workdir}/schedule.json" >/dev/null

  echo "==> trace: csv -> bin -> csv -> bin byte-identity"
  "${vorctl}" convert "${workdir}/trace.csv" "${workdir}/trace.vorb"
  "${vorctl}" convert "${workdir}/trace.vorb" "${workdir}/trace2.csv"
  "${vorctl}" convert "${workdir}/trace2.csv" "${workdir}/trace2.vorb"
  cmp "${workdir}/trace.vorb" "${workdir}/trace2.vorb"

  echo "==> schedule: json -> bin -> json -> bin byte-identity"
  "${vorctl}" convert "${workdir}/schedule.json" "${workdir}/schedule.vorb"
  "${vorctl}" convert "${workdir}/schedule.vorb" "${workdir}/schedule2.json"
  "${vorctl}" convert "${workdir}/schedule2.json" "${workdir}/schedule2.vorb"
  cmp "${workdir}/schedule.vorb" "${workdir}/schedule2.vorb"
  cmp "${workdir}/schedule.json" "${workdir}/schedule2.json"

  echo "==> snapshot: json -> bin -> json -> bin byte-identity"
  "${vorctl}" serve "${workdir}/scenario.json" --cycle 21600 \
    --trace "${workdir}/trace.csv" --producers 2 \
    --snapshot "${workdir}/snapshot.json" >/dev/null
  "${vorctl}" convert "${workdir}/snapshot.json" "${workdir}/snapshot.vorb"
  "${vorctl}" convert "${workdir}/snapshot.vorb" "${workdir}/snapshot2.json"
  "${vorctl}" convert "${workdir}/snapshot2.json" "${workdir}/snapshot2.vorb"
  cmp "${workdir}/snapshot.vorb" "${workdir}/snapshot2.vorb"
  cmp "${workdir}/snapshot.json" "${workdir}/snapshot2.json"

  echo "==> serve: binary trace commits bytes identical to csv trace"
  "${vorctl}" serve "${workdir}/scenario.json" --cycle 21600 \
    --trace "${workdir}/trace.csv" --producers 3 \
    --out "${workdir}/served-csv.json" >/dev/null
  "${vorctl}" serve "${workdir}/scenario.json" --cycle 21600 \
    --trace "${workdir}/trace.vorb" --producers 3 \
    --out "${workdir}/served-bin.json" >/dev/null
  cmp "${workdir}/served-csv.json" "${workdir}/served-bin.json"
  echo "==> codec diff clean (all round trips byte-identical)"
}

soak() {
  echo "==> configure tsan"
  cmake --preset tsan >/dev/null
  echo "==> build vorctl (tsan)"
  cmake --build --preset tsan -j "${jobs}" --target vorctl
  local workdir
  workdir=$(mktemp -d)
  trap 'rm -rf "${workdir}"' RETURN
  local vorctl=./build-tsan/tools/vorctl
  echo "==> generate soak scenario + trace"
  "${vorctl}" gen-scenario --storages 6 --users 4 --catalog 40 \
    --capacity-gb 5 --seed 11 \
    --out "${workdir}/scenario.json" --trace-out "${workdir}/trace.csv"
  echo "==> vorctl serve under tsan (4 producers + background clock)"
  # TSAN_OPTIONS keeps the default non-zero exit on any report; halt on
  # the first one so the failure is easy to read.
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
    "${vorctl}" serve "${workdir}/scenario.json" \
    --trace "${workdir}/trace.csv" --cycle 21600 --producers 4 \
    --clock-ms 5 --snapshot "${workdir}/snapshot.json"
  echo "==> vorctl serve under tsan (streaming binary trace)"
  # Same interleaving with the chunked binary TraceStream feeding the
  # intake, so the streaming reader itself runs under the race detector.
  "${vorctl}" convert "${workdir}/trace.csv" "${workdir}/trace.vorb"
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
    "${vorctl}" serve "${workdir}/scenario.json" \
    --trace "${workdir}/trace.vorb" --cycle 21600 --producers 4 \
    --clock-ms 5 --snapshot "${workdir}/snapshot-bin.json"
  echo "==> vorctl serve under tsan (region-sharded sorp at cycle close)"
  # Region-sharded SORP runs one worker per shard inside each cycle
  # close, concurrently with the intake producers and the clock; this
  # serve pushes that fan-out through the race detector.
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
    "${vorctl}" serve "${workdir}/scenario.json" \
    --trace "${workdir}/trace.csv" --cycle 21600 --producers 4 \
    --clock-ms 5 --regions auto --threads 4 \
    --snapshot "${workdir}/snapshot-region.json"
  echo "==> soak clean (no tsan reports)"
}

rpc_soak() {
  echo "==> configure tsan"
  cmake --preset tsan >/dev/null
  echo "==> build vorctl (tsan)"
  cmake --build --preset tsan -j "${jobs}" --target vorctl
  local workdir
  workdir=$(mktemp -d)
  trap 'rm -rf "${workdir}"' RETURN
  local vorctl=./build-tsan/tools/vorctl
  echo "==> generate rpc soak scenario + trace"
  "${vorctl}" gen-scenario --storages 6 --users 4 --catalog 40 \
    --capacity-gb 5 --seed 29 \
    --out "${workdir}/scenario.json" --trace-out "${workdir}/trace.csv"
  echo "==> reference file replay (tsan)"
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
    "${vorctl}" serve "${workdir}/scenario.json" \
    --trace "${workdir}/trace.csv" --cycle 21600 --producers 2 \
    --out "${workdir}/sched-file.json" >/dev/null
  echo "==> vorctl serve --listen under tsan, 4-connection vorctl load"
  # The server's accept thread, connection pool, and the service's
  # intake shards all run under the race detector while four client
  # connections submit concurrently over loopback.
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
    "${vorctl}" serve "${workdir}/scenario.json" \
    --listen 127.0.0.1:0 --port-file "${workdir}/port" \
    --out "${workdir}/sched-rpc.json" >/dev/null &
  local server_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "${workdir}/port" ]] && break
    sleep 0.1
  done
  [[ -s "${workdir}/port" ]] || { echo "error: server wrote no port" >&2
    kill "${server_pid}" 2>/dev/null; exit 1; }
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
    "${vorctl}" load --connect "127.0.0.1:$(cat "${workdir}/port")" \
    --trace "${workdir}/trace.csv" --cycle 21600 --connections 4 \
    --shutdown >/dev/null
  wait "${server_pid}"
  echo "==> rpc replay commits bytes identical to file replay"
  cmp "${workdir}/sched-file.json" "${workdir}/sched-rpc.json"
  echo "==> configure asan-ubsan"
  cmake --preset asan-ubsan >/dev/null
  echo "==> build vor_tests (asan-ubsan)"
  cmake --build --preset asan-ubsan -j "${jobs}" --target vor_tests
  echo "==> adversarial frame suite under asan-ubsan"
  ./build-asan-ubsan/tests/vor_tests --gtest_filter='Rpc*'
  echo "==> rpc soak clean (no reports, schedules byte-identical)"
}

case "${which}" in
  lint)        lint ;;
  asan-ubsan)  run_preset asan-ubsan ;;
  tsan)        run_preset tsan ;;
  bench-smoke) bench_smoke ;;
  bench-region) bench_region ;;
  codec-diff)  codec_diff ;;
  soak)        soak ;;
  rpc-soak)    rpc_soak ;;
  all)
    lint
    run_preset asan-ubsan
    run_preset tsan
    bench_smoke
    bench_region
    codec_diff
    soak
    rpc_soak
    ;;
  *)
    echo "usage: scripts/check.sh [lint|asan-ubsan|tsan|bench-smoke|bench-region|codec-diff|soak|rpc-soak|all]" >&2
    exit 2
    ;;
esac

echo "==> all gates green"
