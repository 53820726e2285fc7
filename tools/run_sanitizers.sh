#!/usr/bin/env bash
# Build and run the test suite under ThreadSanitizer and
# AddressSanitizer(+UBSan). Extra arguments are forwarded to ctest,
# e.g. to check only the concurrency suites quickly:
#
#   tools/run_sanitizers.sh -R 'ThreadPool|SweepDeterminism|Fuzz'
#
# or just the inference engine's suites (-R matches gtest suite names,
# e.g. FlatForest.FuzzBitIdenticalToScalar, not test file names):
#
#   tools/run_sanitizers.sh -R 'FlatForest|RandomForest|Trainer'
#
# or the fleet-serving path (request queue, kernel memos and the
# forest hot-swap, sharded server, shed controller, wire protocol and
# the epoll net server — close to the set CI runs under its scoped TSan
# leg):
#
#   tools/run_sanitizers.sh -R 'RequestQueue|KernelMemo|OnlineSwap|FleetServer|FleetServerSharded|FleetDeterminism|SessionManager|ShedController|Wire|NetServer|Telemetry'
#
# A single sanitizer can be selected with --only (used by CI, where
# TSan and ASan run as separate jobs):
#
#   tools/run_sanitizers.sh --only asan -R 'FleetServer'
#
# Each sanitizer gets its own build tree (build-tsan/, build-asan/) so
# the regular build/ stays untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

only=""
if [[ "${1:-}" == "--only" ]]; then
    only="${2:?--only needs 'tsan' or 'asan'}"
    case "$only" in
        tsan|asan) ;;
        *) echo "error: --only expects 'tsan' or 'asan', got '$only'" >&2
           exit 2 ;;
    esac
    shift 2
fi

jobs=$(nproc 2>/dev/null || echo 2)

run_one() {
    local name="$1" flag="$2"
    shift 2
    echo "=== ${name}: configure + build ==="
    cmake -B "build-${name}" -S . "-D${flag}=ON" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "build-${name}" -j "${jobs}"
    echo "=== ${name}: ctest ==="
    ctest --test-dir "build-${name}" --output-on-failure -j "${jobs}" "$@"
}

[[ -z "$only" || "$only" == tsan ]] && run_one tsan GPUPM_TSAN "$@"
[[ -z "$only" || "$only" == asan ]] && run_one asan GPUPM_ASAN "$@"
echo "=== sanitizers clean ==="
