#!/usr/bin/env bash
# Local CI entrypoint: one command that runs every correctness gate this
# repo defines (see DESIGN.md, "Correctness tooling").
#
#   1. format check      clang-format --dry-run over src/ and tests/
#   2. default build     RDP_WERROR=ON + full ctest suite
#   3. lint              determinism-contract checks (DESIGN.md §15):
#                        rdp_lint over every src/ file and ctest -L lint
#                        (fixture regressions for each rdp-* check)
#   4. clang-tidy        over src/ via the exported compile_commands.json
#   5. scalar build      RDP_SIMD=scalar build + full ctest suite (the
#                        portable fallback backend must pass everything the
#                        native-SIMD build passes, bit for bit)
#   6. release build     CMAKE_BUILD_TYPE=Release (-O3) + ctest -L simd,
#                        -L golden, -L parallel, -L router and -L
#                        objective: the determinism contract must survive
#                        GCC's -O3 vectorizer too, and so must the maze
#                        search's tie certificate, which compares doubles
#                        for equality, and the pin-slot objective kernels'
#                        bitwise match with their per-chunk oracles; then a
#                        Release RDP_SIMD=scalar build + ctest -L golden,
#                        -L simd, -L router and -L objective (the scalar
#                        backend at -O3 must still give the pinned digests,
#                        and the goal-directed maze search, whose keys add
#                        and multiply, must still match the heap's paths
#                        in a build without FMA)
#   7. sanitizer matrix  address, undefined, address;undefined -> ctest -L sanitize
#                        thread                                -> ctest -L parallel
#                        plus explicit ASan+UBSan passes: ctest -L recover
#                        (fault injection), ctest -L router (reused router
#                        scratch, maze search equivalence),
#                        ctest -L poisson (spectral
#                        kernels), ctest -L objective (pin-slot
#                        gradients and their oracles), ctest -L
#                        simd (vector backends / stable_exp / kernel
#                        equivalence), and ctest -L persist (durable
#                        checkpoint format + crash/resume kill-point
#                        matrix, router and RUDY congestion, DESIGN.md §16),
#                        and ctest -L parse (the streaming design reader
#                        against the iostream oracle on 10,000 seeded
#                        mutants, DESIGN.md §18)
#                        The default build also runs ctest -L golden
#                        (pinned end-to-end output digests) and ctest -L
#                        bench (bench_e2e smoke: the traced link against
#                        the wrapped layer symbols).
#
# Any failing step fails the script (non-zero exit). Tools missing from the
# host (clang-format / clang-tidy) skip their step with a notice so the
# script stays usable on gcc-only machines — the rdp_lint gate and the test
# gates always run. With --strict a missing tool is a FAILED gate instead
# of a notice: CI hosts that are supposed to have the full Clang toolchain
# must not pass by silently skipping it.
#
# Usage: ./run_checks.sh [--fast] [--strict]
#   --fast     skip the sanitizer matrix (format + build + tests + lint +
#              tidy only)
#   --strict   missing clang-format/clang-tidy fails the run instead of
#              skipping with a notice

set -u

cd "$(dirname "$0")"

FAST=0
STRICT=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        --strict) STRICT=1 ;;
        *)
            echo "unknown option '$arg' (usage: ./run_checks.sh [--fast] [--strict])" >&2
            exit 2
            ;;
    esac
done

JOBS=$(nproc 2>/dev/null || echo 2)
FAILURES=()

note() { printf '\n==== %s ====\n' "$*"; }
record_failure() { FAILURES+=("$1"); printf '!!!! FAILED: %s\n' "$1"; }

# A ctest label that selects zero tests is a silently skipped gate (e.g. a
# suite renamed without its label moving along). Fail loudly instead.
require_label() {
    local dir="$1" label="$2"
    local n
    n=$(ctest --test-dir "$dir" -L "$label" -N 2>/dev/null |
        sed -n 's/.*Total Tests: //p')
    if [[ -z "$n" || "$n" -eq 0 ]]; then
        record_failure "label '$label' selects no tests in $dir"
        return 1
    fi
}

# A tool the host lacks: notice by default, failed gate under --strict.
missing_tool() {
    if [[ "$STRICT" == 1 ]]; then
        record_failure "$1 unavailable (--strict)"
    else
        echo "$1 not found: skipping (run with --strict to fail instead)"
    fi
}

# ---- 1. format check (skip when clang-format is unavailable) --------------
# tests/lint_fixtures holds deliberately-bad code the lint checks must fire
# on (lint input, not source), so it stays outside the format gate.
note "format check"
if command -v clang-format >/dev/null 2>&1; then
    mapfile -t SOURCES < <(find src tests tools/rdp-lint \
                               \( -name '*.cpp' -o -name '*.hpp' \) \
                               -not -path '*/lint_fixtures/*' | sort)
    if ! clang-format --dry-run -Werror "${SOURCES[@]}"; then
        record_failure "clang-format"
    fi
else
    missing_tool "clang-format"
fi

# ---- 2. default build (warnings as errors) + full test suite --------------
note "default build (RDP_WERROR=ON) + ctest"
if cmake -B build-checks -S . -DRDP_WERROR=ON >/dev/null &&
   cmake --build build-checks -j "$JOBS"; then
    require_label build-checks sanitize
    require_label build-checks parallel
    require_label build-checks recover
    require_label build-checks router
    require_label build-checks poisson
    require_label build-checks simd
    require_label build-checks persist
    require_label build-checks golden
    require_label build-checks bench
    require_label build-checks parse
    require_label build-checks objective
    if ! ctest --test-dir build-checks --output-on-failure -j "$JOBS"; then
        record_failure "default ctest"
    fi
else
    record_failure "default build"
fi

# ---- 3. lint: the static determinism contract (DESIGN.md §15) -------------
# Two layers, neither silently absent:
#   a. rdp_lint (built above) over every src/ source file
#   b. ctest -L lint — fixture regressions proving each rdp-* check still
#      fires on its bad fixture and stays silent on its good twin
note "lint (determinism contract)"
RDP_LINT_BIN=build-checks/tools/rdp-lint/rdp_lint
if [[ -x "$RDP_LINT_BIN" ]]; then
    mapfile -t LINT_SOURCES < <(find src \( -name '*.cpp' -o -name '*.hpp' \) |
                                sort)
    if ! "$RDP_LINT_BIN" "${LINT_SOURCES[@]}"; then
        record_failure "rdp_lint (determinism contract)"
    fi
else
    record_failure "rdp_lint binary missing ($RDP_LINT_BIN)"
fi
if require_label build-checks lint; then
    if ! ctest --test-dir build-checks -L lint --output-on-failure \
               -j "$JOBS"; then
        record_failure "lint fixture tests (ctest -L lint)"
    fi
fi

# ---- 4. clang-tidy over src/ (skip when unavailable) ----------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
    if [[ -f build-checks/compile_commands.json ]]; then
        mapfile -t TIDY_SOURCES < <(find src -name '*.cpp' | sort)
        if ! clang-tidy -p build-checks --quiet "${TIDY_SOURCES[@]}"; then
            record_failure "clang-tidy"
        fi
    else
        record_failure "clang-tidy (no compile_commands.json)"
    fi
else
    missing_tool "clang-tidy"
fi

# ---- 5. forced-scalar SIMD backend + full test suite ----------------------
# The scalar backend is the portability fallback for hosts without AVX2/
# NEON; it must pass the full suite, and the determinism tests inside it
# must see the same bits the native-SIMD build produces.
note "scalar SIMD backend (RDP_SIMD=scalar) + ctest"
if cmake -B build-scalar -S . -DRDP_SIMD=scalar >/dev/null &&
   cmake --build build-scalar -j "$JOBS"; then
    if ! ctest --test-dir build-scalar --output-on-failure -j "$JOBS"; then
        record_failure "scalar-backend ctest"
    fi
else
    record_failure "scalar-backend build"
fi

# ---- 6. -O3 release build: simd, golden, parallel and router labels ------
# The default build is RelWithDebInfo (-O2). At -O3 GCC's vectorizer
# rewrites more loops (DESIGN.md §14); the cross-backend, golden-digest and
# thread-count contracts must hold there as well, and the maze search must
# still return the binary-heap reference's paths (DESIGN.md §17).
note "release build (CMAKE_BUILD_TYPE=Release) + ctest -L simd/golden/parallel/router/objective"
if cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
   cmake --build build-release -j "$JOBS"; then
    for label in simd golden parallel router objective; do
        if require_label build-release "$label"; then
            if ! ctest --test-dir build-release -L "$label" \
                       --output-on-failure -j "$JOBS"; then
                record_failure "release build ctest -L $label"
            fi
        fi
    done
else
    record_failure "release build"
fi

# The scalar backend at -O3: GCC may fuse or vectorize the portable
# fallback's loops differently from the native backend's (DESIGN.md §14),
# and the golden digests must hold there too. The maze search's keys and
# tie certificate (DESIGN.md §17) must also hold in a build without FMA,
# and so must the objective kernels' match with their oracles.
note "release scalar build (Release, RDP_SIMD=scalar) + ctest -L golden/simd/router/objective"
if cmake -B build-release-scalar -S . -DCMAKE_BUILD_TYPE=Release \
         -DRDP_SIMD=scalar >/dev/null &&
   cmake --build build-release-scalar -j "$JOBS"; then
    for label in golden simd router objective; do
        if require_label build-release-scalar "$label"; then
            if ! ctest --test-dir build-release-scalar -L "$label" \
                       --output-on-failure -j "$JOBS"; then
                record_failure "release scalar build ctest -L $label"
            fi
        fi
    done
else
    record_failure "release scalar build"
fi

# ---- 7. sanitizer matrix --------------------------------------------------
if [[ "$FAST" == 0 ]]; then
    sanitize_config() {
        local preset="$1" label="$2"
        local dir="build-san-${preset//;/-}"
        note "sanitizer: $preset (ctest -L $label)"
        if cmake -B "$dir" -S . -DRDP_SANITIZE="$preset" >/dev/null &&
           cmake --build "$dir" -j "$JOBS"; then
            if require_label "$dir" "$label"; then
                if ! ctest --test-dir "$dir" -L "$label" \
                           --output-on-failure -j "$JOBS"; then
                    record_failure "sanitizer $preset"
                fi
            fi
        else
            record_failure "sanitizer $preset build"
        fi
    }
    sanitize_config "address" "sanitize"
    sanitize_config "undefined" "sanitize"
    sanitize_config "address;undefined" "sanitize"

    # Fault injection under ASan+UBSan: every recovery path (rollbacks,
    # demand fallbacks, degradations) must be memory- and UB-clean. The
    # recover label is part of the sanitize set above; this explicit pass
    # keeps the gate visible even if the label sets drift apart.
    note "fault injection under ASan+UBSan (ctest -L recover)"
    if require_label build-san-address-undefined recover; then
        if ! ctest --test-dir build-san-address-undefined -L recover \
                   --output-on-failure -j "$JOBS"; then
            record_failure "fault injection (asan+ubsan)"
        fi
    fi

    # Routing under ASan+UBSan: the router scratch reused across calls
    # (resized grids, RRR wave buffers) and the maze search's padded
    # window and bucket ring must be memory- and UB-clean.
    note "routing under ASan+UBSan (ctest -L router)"
    if require_label build-san-address-undefined router; then
        if ! ctest --test-dir build-san-address-undefined \
                   -L router --output-on-failure -j "$JOBS"; then
            record_failure "routing (asan+ubsan)"
        fi
    fi

    # Spectral kernels under ASan+UBSan: the planned FFT/DCT layer is dense
    # index arithmetic (bit-reversal permutes, half-spectrum pack/unpack,
    # blocked transposes) — exactly the code ASan catches off-by-ones in.
    note "spectral kernels under ASan+UBSan (ctest -L poisson)"
    if require_label build-san-address-undefined poisson; then
        if ! ctest --test-dir build-san-address-undefined -L poisson \
                   --output-on-failure -j "$JOBS"; then
            record_failure "spectral kernels (asan+ubsan)"
        fi
    fi

    # Objective kernels under ASan+UBSan: the pin-slot writes, the CSR
    # gather and the lane-per-net WA batches (short last batches) index
    # flat per-pin buffers, where an off-by-one is silent in a plain build.
    note "objective kernels under ASan+UBSan (ctest -L objective)"
    if require_label build-san-address-undefined objective; then
        if ! ctest --test-dir build-san-address-undefined -L objective \
                   --output-on-failure -j "$JOBS"; then
            record_failure "objective kernels (asan+ubsan)"
        fi
    fi

    # SIMD layer under ASan+UBSan: the vector loads/stores around chunk
    # tails (maskload/partial stores, padded scratch rows, interleaved
    # twiddle tables) are exactly where an off-by-one reads past a buffer.
    note "SIMD kernels under ASan+UBSan (ctest -L simd)"
    if require_label build-san-address-undefined simd; then
        if ! ctest --test-dir build-san-address-undefined -L simd \
                   --output-on-failure -j "$JOBS"; then
            record_failure "simd kernels (asan+ubsan)"
        fi
    fi

    # Durable checkpointing under ASan+UBSan: the snapshot (de)serializer
    # walks hostile bytes (corruption tests feed it flipped and truncated
    # buffers), and the crash/resume matrix re-runs the whole kill-point
    # harness against sanitized binaries.
    note "durable checkpointing under ASan+UBSan (ctest -L persist)"
    if require_label build-san-address-undefined persist; then
        if ! ctest --test-dir build-san-address-undefined -L persist \
                   --output-on-failure -j "$JOBS"; then
            record_failure "durable checkpointing (asan+ubsan)"
        fi
    fi

    # The design reader under ASan+UBSan: a streaming tokenizer over a
    # refilled buffer, fed truncated, flipped and oversized lines by the
    # seeded mutation harness, is exactly where a read runs past a line.
    note "design reader under ASan+UBSan (ctest -L parse)"
    if require_label build-san-address-undefined parse; then
        if ! ctest --test-dir build-san-address-undefined -L parse \
                   --output-on-failure -j "$JOBS"; then
            record_failure "design reader (asan+ubsan)"
        fi
    fi

    sanitize_config "thread" "parallel"
else
    note "sanitizer matrix skipped (--fast)"
fi

# ---- summary --------------------------------------------------------------
note "summary"
if ((${#FAILURES[@]})); then
    printf 'FAILED gates (%d):\n' "${#FAILURES[@]}"
    printf '  - %s\n' "${FAILURES[@]}"
    exit 1
fi
echo "all gates passed"
