#!/usr/bin/env bash
# Local mirror of the tier-1 verify (and of .github/workflows/ci.yml):
# configure + build + ctest (default mode also runs the perfbench unit tests
# and compiles perfbench/).
#
# Usage: scripts/check.sh [Release|Debug] [--sanitize|--tsan|--thread-safety|--tidy]
#   --sanitize builds into build-sanitize/ with ASan+UBSan
#   (-DHABF_SANITIZE=ON), which races/overflow-checks the concurrent
#   sharded build and pooled query fan-out paths.
#   --tsan builds into build-tsan/ with ThreadSanitizer (-DHABF_TSAN=ON)
#   and runs the concurrency suites (ctest labels `tsan` and
#   `static_analysis`) under it. The two sanitizers are mutually exclusive
#   per build tree.
#   --thread-safety builds into build-clang/ with clang++ and
#   -DHABF_THREAD_SAFETY=ON (-Werror on -Wthread-safety[-beta]), then runs
#   the `static_analysis` ctest label (wrapper runtime suite + the
#   negative-compile matrix of tests/static_analysis/). Requires clang++.
#   --tidy additionally runs clang-tidy (the curated .clang-tidy baseline)
#   over every src/ TU via the build tree's compile_commands.json.
#   Requires clang-tidy.
#
# Every mode also greps src/ for raw std synchronization primitives: all
# locking goes through util/annotated_sync.h (DESIGN.md §9) so the Clang
# thread-safety analysis sees every acquisition. The grep keeps GCC-only
# environments honest, where the annotations themselves compile to nothing.
set -euo pipefail

cd "$(dirname "$0")/.."

# --- annotated-sync policy gate (DESIGN.md §9) -------------------------------
# Raw primitives hide acquisitions from the analysis, so they are banned in
# src/ outside the wrapper header itself. Runs first: it needs no toolchain
# and catches the violation whatever mode follows.
raw_sync_pattern='std::(mutex|shared_mutex|timed_mutex|recursive_mutex|condition_variable|lock_guard|unique_lock|shared_lock|scoped_lock)'
if raw_hits=$(grep -rnE "${raw_sync_pattern}" src/ \
                --include='*.h' --include='*.cc' \
              | grep -v '^src/util/annotated_sync\.h:'); then
  echo "error: raw std synchronization primitives in src/ — use the" >&2
  echo "annotated wrappers from util/annotated_sync.h (DESIGN.md §9):" >&2
  echo "${raw_hits}" >&2
  exit 1
fi

build_type="Release"
build_dir="build"
mode="default"
run_tidy=0
extra_flags=()
for arg in "$@"; do
  case "$arg" in
    --sanitize)
      if [ "${mode}" != "default" ]; then
        echo "--sanitize/--tsan/--thread-safety are mutually exclusive" >&2
        exit 1
      fi
      build_dir="build-sanitize"
      build_type="Debug"
      mode="sanitize"
      extra_flags=(-DHABF_SANITIZE=ON)
      ;;
    --tsan)
      if [ "${mode}" != "default" ]; then
        echo "--sanitize/--tsan/--thread-safety are mutually exclusive" >&2
        exit 1
      fi
      build_dir="build-tsan"
      build_type="Debug"
      mode="tsan"
      extra_flags=(-DHABF_TSAN=ON)
      ;;
    --thread-safety)
      if [ "${mode}" != "default" ]; then
        echo "--sanitize/--tsan/--thread-safety are mutually exclusive" >&2
        exit 1
      fi
      build_dir="build-clang"
      mode="thread-safety"
      extra_flags=(-DHABF_THREAD_SAFETY=ON)
      ;;
    --tidy) run_tidy=1 ;;
    Release|Debug) build_type="$arg" ;;
    *)
      echo "usage: $0 [Release|Debug] [--sanitize|--tsan|--thread-safety] [--tidy]" >&2
      exit 1
      ;;
  esac
done

if [ "${mode}" = "thread-safety" ]; then
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "error: --thread-safety needs clang++ on PATH (thread-safety" >&2
    echo "analysis is a Clang extension; CI's static-analysis job runs it)" >&2
    exit 1
  fi
  export CC=clang CXX=clang++
fi
if [ "${run_tidy}" = 1 ] && ! command -v clang-tidy >/dev/null 2>&1; then
  echo "error: --tidy needs clang-tidy on PATH (CI's static-analysis job" >&2
  echo "runs it over compile_commands.json)" >&2
  exit 1
fi

# The +-expansion keeps `set -u` happy on bash < 4.4 when the array is empty.
cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${build_type}" \
  ${extra_flags[@]+"${extra_flags[@]}"}
cmake --build "${build_dir}" -j "$(nproc)"

if [ "${run_tidy}" = 1 ]; then
  # The curated .clang-tidy baseline (bugprone/performance/concurrency/
  # readability-container-size-empty, warnings as errors) over every src/
  # TU. compile_commands.json is always exported (CMakeLists.txt).
  mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
  clang-tidy -p "${build_dir}" --quiet "${tidy_sources[@]}"
fi

if [ "${mode}" = "default" ]; then
  # The benchmark's own logic (metric names against BENCHMARK.json, the
  # error tally, percentile support): plain Python, from the repo root.
  python3 -m unittest discover -s perfbench -p 'test_*.py'
  # The benchmark's C++ uses the library's API: compile it (Release only,
  # its own tree) so a change that breaks it fails here.
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench -j "$(nproc)"
fi

cd "${build_dir}"
if [ "${mode}" = "thread-safety" ]; then
  # The build above already proved src/ clean under -Werror=thread-safety;
  # the label adds the wrapper runtime suite and the negative-compile
  # matrix proving the analysis still rejects violations.
  ctest --output-on-failure -j "$(nproc)" -L static_analysis
  exit 0
fi
if [ "${mode}" = "tsan" ]; then
  # TSan is ~5-20x slower, so this tree runs the suites that exercise the
  # concurrency surface instead of the full matrix (the default and ASan
  # trees cover the rest): the `tsan` and `static_analysis` ctest labels,
  # assigned per test binary in CMakeLists.txt. second_deadlock_stack gives
  # usable reports for lock-order findings.
  TSAN_OPTIONS="second_deadlock_stack=1" ctest --output-on-failure \
    -j "$(nproc)" -L 'tsan|static_analysis'
  exit 0
fi
# Explicit parallelism: temp-path races between test cases only show up when
# ctest actually runs them concurrently.
ctest --output-on-failure -j "$(nproc)"
# The CLI suite writes real files; rerun it highly parallel and repeated so
# a reintroduced shared-temp-path race fails here instead of flaking in CI.
ctest --output-on-failure -j 8 --repeat until-fail:2 -R CliTest
