#!/usr/bin/env sh
# Staged strict-build matrix (CI; also handy locally before a PR). Stages
# run in order and the script exits nonzero at the first failing stage
# (fail-fast), printing a per-stage summary either way:
#
#   werror      whole tree under -Wall -Wextra -Werror
#   asan-ubsan  ASan+UBSan build, tier1 + kernels + policies + properties
#               suites under it                          (CSQ_SKIP_ASAN=1)
#   tsan        TSan build, `ctest -L parallel`, `-L serve`, `-L durable`
#               and `-L policies` under it               (CSQ_SKIP_TSAN=1)
#   chaos       `ctest -L chaos` (armed fault sites: the degradation ladder
#               and serve's degrade/shed paths) in the asan-ubsan tree
#                                                        (CSQ_SKIP_CHAOS=1)
#   serve       csq_serve end-to-end under ASan: SIGTERM mid-load must drain
#               cleanly (exit 0) and flush the metrics file
#                                                        (CSQ_SKIP_SERVE=1)
#   durable     `ctest -L durable` (journal/checkpoint/crash suites,
#               fault-injected journal drill included) under ASan, then the
#               end-to-end SIGKILL harness tools/chaos_crash.sh against the
#               ASan binaries
#                                                        (CSQ_SKIP_DURABLE=1)
#   obs         `ctest -L obs` under the TSan build (counter/span thread
#               safety), plus a -DCSQ_OBS=OFF -Werror build proving the
#               compiled-out configuration stays warning-free
#                                                        (CSQ_SKIP_OBS=1)
#   portable    -DCSQ_NATIVE_KERNELS=OFF build with normal flags: the golden
#               pins (ChainPins and Fig 3-6 at relative tolerances 1e-12 /
#               1e-6; SimPins, all three tables, exact), the Coxian fit's,
#               the LU inverse's, the busy periods' and the PH moments'
#               references, the RNG stream's known answers and draw counts,
#               and the sweep determinism suite must pass without the
#               native per-file flags
#   bench       fresh guarded-benchmark run vs newest committed BENCH_*.json;
#               fails if BM_AnalyzeCscq (+10%), BM_AnalyzeBatch30 (+15%) or
#               the 1-thread sweep panel (+15%) regresses, or if
#               BM_JournalAppend blows its absolute 5 µs/request cap
#                                                        (CSQ_SKIP_BENCH=1)
#   clang-tidy  src/ against .clang-tidy, if clang-tidy is installed
#   csq-lint    project invariants: one repo scan that must exit 0 with
#               no findings on stdout, under a 2s wall-clock budget
#   perfbench   perfbench/ configured standalone (as perfbench/run.py does)
#               and csq_perfbench built, not run: the frozen harness links
#               `csq` and includes src/ headers by path, so a build change
#               that breaks that contract fails here
#
# usage: tools/check_warnings.sh [build-dir] [tsan-build-dir] [asan-build-dir]
#        (defaults: build-werror, build-tsan, build-asan; the portable
#        stage builds in build-portable, the perfbench stage in
#        build-perfbench)
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-werror"}
tsan_dir=${2:-"$repo_root/build-tsan"}
asan_dir=${3:-"$repo_root/build-asan"}

summary=""
note() {
  summary="${summary}check_warnings: $1
"
  printf 'check_warnings: %s\n' "$1"
}
finish() {
  printf '\n===== check_warnings summary =====\n%s' "$summary"
}
fail() {
  note "FAIL  $1"
  finish
  exit 1
}

# --- stage 1: -Werror -------------------------------------------------------
cmake -B "$build_dir" -S "$repo_root" -DCSQ_WERROR=ON >/dev/null || fail "werror (configure)"
cmake --build "$build_dir" -j || fail "werror (build)"
note "PASS  werror      (no warnings under -Wall -Wextra -Werror)"

# --- stage 2: ASan + UBSan --------------------------------------------------
if [ "${CSQ_SKIP_ASAN:-0}" = "1" ]; then
  note "SKIP  asan-ubsan  (CSQ_SKIP_ASAN=1)"
else
  cmake -B "$asan_dir" -S "$repo_root" -DCSQ_SANITIZE=ON -DCSQ_WERROR=ON >/dev/null \
    || fail "asan-ubsan (configure)"
  cmake --build "$asan_dir" -j || fail "asan-ubsan (build)"
  (cd "$asan_dir" && ctest -L tier1 --output-on-failure) || fail "asan-ubsan (tier1 suite)"
  # The kernel-equivalence suite rides in tier1, but run it by label too so
  # a relabel can never silently drop the restrict-pointer kernels from the
  # ASan net (they are the code most worth running under it).
  (cd "$asan_dir" && ctest -L kernels --output-on-failure) || fail "asan-ubsan (kernels suite)"
  # Same insurance for the policy zoo and the property suite: both ride in
  # tier1, but run them by label so a relabel can never silently drop the
  # newest policies' event loops from the ASan net.
  (cd "$asan_dir" && ctest -L policies --output-on-failure) || fail "asan-ubsan (policies suite)"
  (cd "$asan_dir" && ctest -L properties --output-on-failure) || fail "asan-ubsan (properties suite)"
  note "PASS  asan-ubsan  (tier1 + kernels + policies + properties suites clean under ASan+UBSan)"
fi

# --- stage 3: TSan ----------------------------------------------------------
if [ "${CSQ_SKIP_TSAN:-0}" = "1" ]; then
  note "SKIP  tsan        (CSQ_SKIP_TSAN=1)"
else
  cmake -B "$tsan_dir" -S "$repo_root" -DCSQ_TSAN=ON -DCSQ_WERROR=ON >/dev/null \
    || fail "tsan (configure)"
  cmake --build "$tsan_dir" -j --target csq_parallel_tests || fail "tsan (build)"
  (cd "$tsan_dir" && ctest -L parallel --output-on-failure) || fail "tsan (parallel suite)"
  # The server's submit/worker/drain handshake is the other cross-thread
  # surface: run the serve suite (soak included) under the same build. The
  # serve label also carries the sh tests that exec the csq_serve binary, so
  # build both targets.
  cmake --build "$tsan_dir" -j --target csq_serve_tests csq_serve \
    || fail "tsan (serve build)"
  (cd "$tsan_dir" && ctest -L serve --output-on-failure) || fail "tsan (serve suite)"
  # The journal sits on the submit/finish seam (append under the server lock,
  # fsync batching): run the durable suite under the same build. The crash
  # drills exec csq_serve/csq_cli, so build those too.
  cmake --build "$tsan_dir" -j --target csq_durable_tests csq_cli \
    || fail "tsan (durable build)"
  (cd "$tsan_dir" && ctest -L durable --output-on-failure) || fail "tsan (durable suite)"
  # The policy suite's determinism tests replicate across thread counts on
  # the worker pool, so its cross-thread hand-offs belong under TSan too.
  cmake --build "$tsan_dir" -j --target csq_policies_tests \
    || fail "tsan (policies build)"
  (cd "$tsan_dir" && ctest -L policies --output-on-failure) || fail "tsan (policies suite)"
  note "PASS  tsan        (parallel + serve + durable + policies suites clean under ThreadSanitizer)"
fi

# --- stage 4: chaos (fault injection under ASan+UBSan) ----------------------
# Fault sites are compiled into every build, so the chaos suites already ran
# in stage 2's tier1 pass; run them by label too, so a relabel can never
# silently drop them from the ASan net.
if [ "${CSQ_SKIP_CHAOS:-0}" = "1" ]; then
  note "SKIP  chaos       (CSQ_SKIP_CHAOS=1)"
elif [ "${CSQ_SKIP_ASAN:-0}" = "1" ]; then
  note "SKIP  chaos       (needs the asan stage's build)"
else
  (cd "$asan_dir" && ctest -L chaos --output-on-failure) || fail "chaos (chaos suite)"
  note "PASS  chaos       (fault-injected ladder and serve paths clean under ASan+UBSan)"
fi

# --- stage 5: serve (SIGTERM drain end-to-end under ASan) --------------------
if [ "${CSQ_SKIP_SERVE:-0}" = "1" ]; then
  note "SKIP  serve       (CSQ_SKIP_SERVE=1)"
elif [ "${CSQ_SKIP_ASAN:-0}" = "1" ]; then
  note "SKIP  serve       (needs the asan stage's build)"
else
  cmake --build "$asan_dir" -j --target csq_serve || fail "serve (build)"
  serve_tmp=$(mktemp -d)
  # Drip a mixed request stream (valid analyzes + hostile lines) and SIGTERM
  # the server mid-load. The drain contract: every admitted request is still
  # answered, the metrics file is flushed, and the exit code is 0 — under
  # ASan, so a leaked worker or use-after-drain fails the stage too.
  (
    i=0
    while [ "$i" -lt 40 ]; do
      printf '{"id":"s%d","op":"analyze","rho_s":0.5,"rho_l":0.5}\n' "$i"
      printf 'not json\n'
      i=$((i + 1))
      sleep 0.05
    done
  ) | "$asan_dir/tools/csq_serve" --workers 2 \
        --metrics="$serve_tmp/metrics.json" > "$serve_tmp/responses.ndjson" &
  serve_pid=$!
  sleep 1
  kill -TERM "$serve_pid" 2>/dev/null
  wait "$serve_pid"
  serve_rc=$?
  [ "$serve_rc" -eq 0 ] || fail "serve (SIGTERM drain exited $serve_rc, want 0)"
  grep -q 'serve.requests.admitted' "$serve_tmp/metrics.json" \
    || fail "serve (metrics file missing serve.requests.admitted)"
  grep -q '"ok":true' "$serve_tmp/responses.ndjson" \
    || fail "serve (no successful responses before the drain)"
  grep -q '"ok":false' "$serve_tmp/responses.ndjson" \
    || fail "serve (hostile lines produced no error responses)"
  rm -rf "$serve_tmp"
  note "PASS  serve       (SIGTERM mid-load drained cleanly under ASan, metrics flushed)"
fi

# --- stage 6: durable (crash-safety suites + SIGKILL harness) ----------------
if [ "${CSQ_SKIP_DURABLE:-0}" = "1" ]; then
  note "SKIP  durable     (CSQ_SKIP_DURABLE=1)"
elif [ "${CSQ_SKIP_ASAN:-0}" = "1" ]; then
  note "SKIP  durable     (needs the asan stage's build)"
else
  # Journal/checkpoint unit suites plus the in-process fork/exec crash drills,
  # all under ASan so recovery-path leaks and buffer slips fail the stage.
  cmake --build "$asan_dir" -j --target csq_durable_tests csq_serve csq_cli \
    || fail "durable (build)"
  (cd "$asan_dir" && ctest -L durable --output-on-failure) || fail "durable (suite)"
  # End-to-end: SIGKILL the real binaries mid-load and mid-sweep, recover,
  # and hold the exactly-once / byte-identity / resume-identical contracts.
  "$repo_root/tools/chaos_crash.sh" "$asan_dir" || fail "durable (chaos_crash.sh)"
  note "PASS  durable     (ctest -L durable + SIGKILL chaos harness clean under ASan)"
fi

# --- stage 7: obs (thread safety + compiled-out build) -----------------------
if [ "${CSQ_SKIP_OBS:-0}" = "1" ]; then
  note "SKIP  obs         (CSQ_SKIP_OBS=1)"
else
  if [ "${CSQ_SKIP_TSAN:-0}" = "1" ]; then
    note "SKIP  obs-tsan    (needs the tsan stage's build)"
  else
    # Counters are bumped from pool workers and spans close concurrently:
    # run the obs suite under the TSan build from stage 3.
    cmake --build "$tsan_dir" -j --target csq_obs_tests || fail "obs (tsan build)"
    (cd "$tsan_dir" && ctest -L obs --output-on-failure) || fail "obs (suite under TSan)"
  fi
  # The zero-overhead contract: the whole tree (including the obs suite,
  # which branches on obs::compiled_in()) must build warning-free with the
  # macros compiled out.
  obs_off_dir="$repo_root/build-obs-off"
  cmake -B "$obs_off_dir" -S "$repo_root" -DCSQ_OBS=OFF -DCSQ_WERROR=ON >/dev/null \
    || fail "obs (CSQ_OBS=OFF configure)"
  cmake --build "$obs_off_dir" -j || fail "obs (CSQ_OBS=OFF build)"
  (cd "$obs_off_dir" && ctest -L obs --output-on-failure) || fail "obs (suite with obs off)"
  note "PASS  obs         (TSan-clean counters/spans; CSQ_OBS=OFF builds and passes)"
fi

# --- stage 8: portable (native kernels off, same bits) ------------------------
# Every other stage builds the solver and simulator hot files with
# -march=native -ffp-contract=off. The pinned figures, the Coxian fit's,
# the LU inverse's, the busy periods' and the PH moments' references and the
# sweep determinism suite must also pass in a build without those flags. ChainPins and the figure pins
# compare at a relative tolerance, so they are not a bit check; SimPins
# compare every field with EXPECT_EQ, so passing them here and in the
# default build is an exact native-vs-portable check of the simulator's
# samplers and event loop. The other native-vs-scalar bit check is
# LuReference in the default build (lu.cc native, the reference in the test
# file not). The closed-form Coxian fit has no native flags, and its
# std::fma calls round correctly in either build; CoxianFitReference checks
# its verdicts and accuracy against the retired grid scan, in both builds.
# BusyPeriodReference and PhaseTypeReference hold the closed-form busy
# periods and PhaseType's back-substituted moments (dist/phase_type.cc is a
# native file) to 16 ulp of the jet composition and the dense inverse.
# RngStream pins the generator's first outputs and the words one sample
# consumes, so a SimPins failure here can be told from a stream change.
portable_dir="$repo_root/build-portable"
cmake -B "$portable_dir" -S "$repo_root" -DCSQ_NATIVE_KERNELS=OFF -DCSQ_WERROR=ON >/dev/null \
  || fail "portable (configure)"
cmake --build "$portable_dir" -j --target csq_golden_tests csq_tests \
  || fail "portable (build)"
(cd "$portable_dir" && ctest -L golden --output-on-failure) || fail "portable (golden suite)"
(cd "$portable_dir" && ctest -R '^(CoxianFitReference|LuReference|BusyPeriodReference|PhaseTypeReference|SweepDeterminism|RngStream)\.' \
  --output-on-failure) || fail "portable (fit, LU, busy-period and PH references + sweep determinism + RNG stream)"
note "PASS  portable    (golden and sim pins, fit, LU, busy-period and PH references, sweep determinism, RNG stream with CSQ_NATIVE_KERNELS=OFF)"

# --- stage 9: bench (perf regression gate) -----------------------------------
if [ "${CSQ_SKIP_BENCH:-0}" = "1" ]; then
  note "SKIP  bench       (CSQ_SKIP_BENCH=1)"
else
  # A fresh run of the guarded benchmarks against the newest committed
  # BENCH_*.json snapshot: tools/bench_compare.py fails the stage when any
  # guard exceeds its own budget (BM_AnalyzeCscq +10%, BM_AnalyzeBatch30
  # +15%, the 1-thread sweep panel +15%, BM_SimulateOnePoint/100000 +15%,
  # BM_JournalAppend 5 µs absolute).
  # Uses the plain `build` tree — the
  # sanitizer builds above would measure the sanitizer, and the werror tree
  # does not enable benchmarks by default.
  bench_dir="$repo_root/build"
  cmake -B "$bench_dir" -S "$repo_root" >/dev/null || fail "bench (configure)"
  cmake --build "$bench_dir" -j --target perf_solver || fail "bench (build)"
  bench_tmp=$(mktemp)
  "$repo_root/tools/bench_json.sh" "$bench_dir" "$bench_tmp" \
    --benchmark_filter='BM_Analyze.*|BM_Journal.*|BM_SweepPanel30Points/threads:1/|BM_SimulateOnePoint/100000$' \
    --benchmark_min_time=2 \
    || { rm -f "$bench_tmp"; fail "bench (run)"; }
  python3 "$repo_root/tools/bench_compare.py" "$bench_tmp" \
    || { rm -f "$bench_tmp"; fail "bench (guarded benchmark regressed vs committed baseline)"; }
  rm -f "$bench_tmp"
  note "PASS  bench       (guarded benchmarks within budget vs committed baseline)"
fi

# --- stage 10: clang-tidy (optional tool) ------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is exported by the werror configure above.
  find "$repo_root/src" -name '*.cc' -print0 \
    | xargs -0 clang-tidy -p "$build_dir" --quiet --warnings-as-errors='*' \
    || fail "clang-tidy"
  note "PASS  clang-tidy  (src/ clean against .clang-tidy)"
else
  note "SKIP  clang-tidy  (not installed)"
fi

# --- stage 11: csq_lint -----------------------------------------------------
cmake --build "$build_dir" -j --target csq_lint || fail "csq-lint (build)"
# One text scan: exit 0 and an empty stdout (findings print one per line),
# with the full-tree run held to a 2-second wall-clock budget.
lint_start=$(date +%s%N 2>/dev/null || date +%s)
lint_stdout=$("$build_dir/tools/csq_lint" --root "$repo_root")
lint_rc=$?
lint_end=$(date +%s%N 2>/dev/null || date +%s)
[ "$lint_rc" -eq 0 ] && [ -z "$lint_stdout" ] \
  || { printf '%s\n' "$lint_stdout"; fail "csq-lint (repo scan exited $lint_rc)"; }
case "$lint_start" in
  *[!0-9]*) : ;;  # date without %N support: skip the budget check
  *)
    lint_ms=$(( (lint_end - lint_start) / 1000000 ))
    [ "$lint_ms" -le 2000 ] \
      || fail "csq-lint (cold scan took ${lint_ms}ms, budget 2000ms)"
    ;;
esac
note "PASS  csq-lint    (repo clean in <2s)"

# --- stage 12: perfbench (the benchmark harness still builds) ----------------
perfbench_dir="$repo_root/build-perfbench"
cmake -B "$perfbench_dir" -S "$repo_root/perfbench" >/dev/null || fail "perfbench (configure)"
cmake --build "$perfbench_dir" -j --target csq_perfbench || fail "perfbench (build)"
note "PASS  perfbench   (standalone perfbench/ configures and csq_perfbench builds)"

finish
