#!/usr/bin/env bash
# The repository's one-command CI gate:
#   1. configure + build + full ctest suite (the tier-1 check of ROADMAP.md),
#      an nm check that each lane-width variant object of the LLG kernels
#      defines one global symbol and no weak ones, then the magnetics
#      suites re-run under SWSIM_KERNEL_REF=1 — the scalar reference
#      oracle — so a fused-kernel bug cannot hide behind the
#      identical-by-construction default path (docs/PERFORMANCE.md).
#   2. a ThreadSanitizer build of the parallel-evaluation engine tests,
#      run directly, to catch data races in the thread pool / scheduler /
#      result cache.
#   3. an Address+UBSan build of the robustness tests (fault injection,
#      scheduler timeouts/retries, cache corruption) — the failure paths
#      are exactly where lifetime bugs hide — of the engine's successful
#      batches (a `prepare` batch, then row jobs that capture the caller's
#      buffers by reference), of the JSON writer with the
#      outputs built on it, of the CLI argument parser, of the serve
#      daemon (its tunables file and endpoint checks cast parsed numbers),
#      and of the LLG kernels (slot-indexed buffers: a wrong neighbour
#      slot reads past the end instead of into a vacuum cell; the SSE2
#      variant's neighbour reads are plain loads ASan instruments).
#   4. an observability smoke run: a traced + metered batch over the fault
#      example, then `swsim trace-check` / `swsim stats` validate the
#      dumps the run produced — the trace JSON and metrics JSON must parse
#      under instrumented, multi-threaded, partially-failing load.
#   5. a bench-pipeline smoke: `swsim bench run --quick` on two bench
#      targets, the emitted BENCH_*.json self-compare clean through
#      `swsim bench gate`, and a deliberately deflated baseline must make
#      the gate FAIL (exit non-zero) — the regression detector detects.
#      (Solver and serve timing is swbench's job: swbench/README.md.)
#   6. a serve smoke: a real `swsim serve` daemon on a Unix socket, probed
#      by concurrent `swsim client --verify` tenants (served bytes must
#      equal locally recomputed CLI bytes), a per-tenant injected fault, a
#      warm-cache re-request proven by healthz counters, and a SIGTERM
#      drain with an in-flight request that must complete (docs/SERVING.md).
#   7. a chaos smoke: the daemon starts over a crash-littered cache dir
#      (corrupt spill entry + orphaned tmp file) and must report both
#      recovered; a seeded `swsim client --chaos` storm must end every
#      exchange terminally (0 hung); an expired deadline must come back as
#      a deadline-exceeded rejection (client exit 5) without engine work;
#      and the daemon must still SIGTERM-drain clean afterwards
#      (docs/ROBUSTNESS.md).
#   8. a serve-telemetry smoke: a traced daemon + traced client round trip
#      merged into one timeline by `swsim trace merge` and validated by
#      `swsim trace-check` (flow events across two pids); the request log
#      must carry the client's trace id; and SIGQUIT must dump the flight
#      recorder without killing the daemon (docs/OBSERVABILITY.md).
#   9. a physics-telemetry smoke: a served micromag job watched live by
#      `swsim probe tail` (frames must stream while the solve runs and the
#      daemon's healthz must account for them); a local run whose
#      swsim.profile/1 dump carries a physics block with a real
#      converged_at; and an `--early-stop` run that must save integration
#      steps while producing exactly the same logic truth table as the
#      full-length run (docs/OBSERVABILITY.md §8).
#
# Usage: scripts/check.sh [build-dir]           (default: build)
# Env:   SWSIM_CHECK_SKIP_TSAN=1 skips stage 2 (e.g. toolchains without
#        libtsan).
#        SWSIM_CHECK_SKIP_ASAN=1 skips stage 3 (toolchains without libasan).
#        SWSIM_CHECK_SKIP_BENCH=1 skips stage 5.
#        SWSIM_CHECK_SKIP_SERVE=1 skips stages 6-9.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== stage 1: build + ctest (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . -DSWSIM_WERROR=ON >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# The AVX2 and AVX-512 objects are compiled for instruction sets the host
# may lack. An inline function or template instance emitted there as a
# weak symbol could be the copy the linker keeps for baseline callers,
# so each variant object must define its entry point and nothing else
# global (src/mag/kernels/fused_block.h).
for obj in "${BUILD_DIR}"/src/mag/CMakeFiles/swsim_mag.dir/kernels/fused_*.cpp.o; do
  syms="$(nm --defined-only "${obj}")"
  globals="$(awk '$2 ~ /^[A-Z]$/' <<<"${syms}" | grep -c . || true)"
  weak="$(awk '$2 ~ /^[VWvwu]$/' <<<"${syms}" | grep -c . || true)"
  if [[ "${globals}" != 1 || "${weak}" != 0 ]]; then
    echo "stage 1: ${obj} defines ${globals} global and ${weak} weak" \
         "symbols (want 1 and 0):" >&2
    nm --defined-only -C "${obj}" | awk '$2 !~ /^[a-z]$/' >&2
    exit 1
  fi
done

echo "== stage 1b: magnetics suites under the scalar reference oracle =="
KREF_TESTS=(test_mag_kernels test_mag_llg test_mag_simulation
            test_integration_micromag)
for t in "${KREF_TESTS[@]}"; do
  SWSIM_KERNEL_REF=1 "${BUILD_DIR}/tests/${t}"
done

if [[ "${SWSIM_CHECK_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== stage 2: TSan skipped (SWSIM_CHECK_SKIP_TSAN=1) =="
else
  TSAN_DIR="${BUILD_DIR}-tsan"
  TSAN_TESTS=(test_engine_pool test_engine_cache test_engine_determinism
              test_engine_resilience test_engine_cache_concurrent
              test_mag_kernels
              test_obs_trace test_obs_metrics test_obs_log
              test_obs_determinism
              test_obs_physics
              test_serve_admission test_serve_server
              test_serve_codec test_serve_chaos test_serve_slo
              test_serve_probe_stream)

  echo "== stage 2: ThreadSanitizer engine tests (${TSAN_DIR}) =="
  cmake -B "${TSAN_DIR}" -S . \
    -DSWSIM_TSAN=ON -DSWSIM_BUILD_BENCH=OFF -DSWSIM_BUILD_EXAMPLES=OFF \
    >/dev/null
  cmake --build "${TSAN_DIR}" -j "${JOBS}" --target "${TSAN_TESTS[@]}"
  for t in "${TSAN_TESTS[@]}"; do
    # halt_on_error: any race fails the run, not just the report.
    TSAN_OPTIONS="halt_on_error=1" "${TSAN_DIR}/tests/${t}"
  done
fi

if [[ "${SWSIM_CHECK_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== stage 3: ASan+UBSan skipped (SWSIM_CHECK_SKIP_ASAN=1) =="
else
  ASAN_DIR="${BUILD_DIR}-asan"
  # The engine's determinism suite runs the success path: a `prepare`
  # batch, then row jobs writing into the caller's buffers by reference.
  # The JSON writer and its callers ride along: the writer escapes
  # client-supplied strings (tenant names, trace ids) into every output.
  # So do the parsers of outside input: the serve protocol, the CLI
  # arguments and the daemon's tunables file. The LLG kernel suites run
  # here for their slot arithmetic: the solver buffers hold magnetic cells
  # only, so a wrong neighbour slot is an out-of-bounds read. ASan does
  # not see inside the AVX2/AVX-512 hardware gathers, so
  # KernelBitExact.EveryLaneWidthMatchesSse2AndReference runs the SSE2
  # variant here too, whose neighbour reads are plain loads, and
  # KernelPlan.NeighbourTableMapsEverySlot bounds every table entry.
  ASAN_TESTS=(test_robust_status test_robust_watchdog test_robust_fault
              test_engine_resilience test_engine_pool test_engine_cache
              test_engine_determinism test_obs_json test_serve_protocol test_obs_metrics
              test_obs_trace test_obs_profile test_bench_harness
              test_cli_args test_serve_server
              test_mag_kernels test_mag_simulation)

  echo "== stage 3: ASan+UBSan robustness tests (${ASAN_DIR}) =="
  cmake -B "${ASAN_DIR}" -S . \
    -DSWSIM_ASAN=ON -DSWSIM_BUILD_BENCH=OFF -DSWSIM_BUILD_EXAMPLES=OFF \
    >/dev/null
  cmake --build "${ASAN_DIR}" -j "${JOBS}" --target "${ASAN_TESTS[@]}"
  for t in "${ASAN_TESTS[@]}"; do
    # Any leak, lifetime error, or UB report fails the run outright.
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
      UBSAN_OPTIONS="halt_on_error=1" "${ASAN_DIR}/tests/${t}"
  done
fi

echo "== stage 4: traced batch + dump validation =="
OBS_DIR="${BUILD_DIR}/obs-smoke"
mkdir -p "${OBS_DIR}"
# A batch with injected faults, every sink armed: trace, metrics, JSONL
# event log. The run itself must stay exit-0 (keep-going mode), and each
# dump must validate with the reader subcommands.
"${BUILD_DIR}/cli/swsim" batch examples/batch_faults.txt --jobs 2 \
  --inject "throw:job 15,divergence:job 17" \
  --out "${OBS_DIR}/batch.csv" --report "${OBS_DIR}/failures.csv" \
  --trace-out "${OBS_DIR}/trace.json" \
  --metrics-out "${OBS_DIR}/metrics.json" \
  --log-json "${OBS_DIR}/events.jsonl" --log-level debug
"${BUILD_DIR}/cli/swsim" trace-check "${OBS_DIR}/trace.json"
"${BUILD_DIR}/cli/swsim" stats "${OBS_DIR}/metrics.json" >/dev/null
# The injected failures must have produced structured error events.
grep -q '"event": *"job_failed"\|"event":"job_failed"' \
  "${OBS_DIR}/events.jsonl" || {
  echo "stage 4: expected a job_failed event in events.jsonl" >&2
  exit 1
}

if [[ "${SWSIM_CHECK_SKIP_BENCH:-0}" == "1" ]]; then
  echo "== stage 5: bench pipeline skipped (SWSIM_CHECK_SKIP_BENCH=1) =="
else
  echo "== stage 5: bench run --quick + regression gate =="
  BENCH_DIR="${BUILD_DIR}/bench-smoke"
  rm -rf "${BENCH_DIR}"
  mkdir -p "${BENCH_DIR}/baseline" "${BENCH_DIR}/current"
  # Two quick targets with timed cases: the Fig. 2 interference sweep and
  # the Table II XOR truth table. --quick keeps this to seconds.
  "${BUILD_DIR}/cli/swsim" bench run fig2_interference table2_xor \
    --quick --out-dir "${BENCH_DIR}/current" \
    --bin-dir "${BUILD_DIR}/bench" >/dev/null
  test -s "${BENCH_DIR}/current/BENCH_fig2_interference.json"
  test -s "${BENCH_DIR}/current/BENCH_table2_xor.json"
  # Self-comparison: a run gated against itself has zero regressions.
  cp "${BENCH_DIR}/current/"BENCH_*.json "${BENCH_DIR}/baseline/"
  "${BUILD_DIR}/cli/swsim" bench gate --baseline "${BENCH_DIR}/baseline" \
    --current "${BENCH_DIR}/current"
  # Deflate the baseline medians to ~0 and kill its noise estimate: every
  # case is now an apparent slowdown, and the gate MUST fail.
  sed -i -E 's/"median": *[0-9.eE+-]+/"median":1e-12/g; s/"mad": *[0-9.eE+-]+/"mad":0/g' \
    "${BENCH_DIR}/baseline/"BENCH_*.json
  if "${BUILD_DIR}/cli/swsim" bench gate --baseline "${BENCH_DIR}/baseline" \
      --current "${BENCH_DIR}/current" --tolerance 0.5 --mad-k 0 \
      >/dev/null 2>&1; then
    echo "stage 5: gate passed against a deflated baseline (should FAIL)" >&2
    exit 1
  fi
  echo "stage 5: gate correctly failed on the deflated baseline"
fi

if [[ "${SWSIM_CHECK_SKIP_SERVE:-0}" == "1" ]]; then
  echo "== stage 6: serve smoke skipped (SWSIM_CHECK_SKIP_SERVE=1) =="
else
  echo "== stage 6: serve daemon smoke =="
  SERVE_DIR="${BUILD_DIR}/serve-smoke"
  rm -rf "${SERVE_DIR}"
  mkdir -p "${SERVE_DIR}"
  SOCK="${SERVE_DIR}/serve.sock"
  SWSIM="${BUILD_DIR}/cli/swsim"

  # A per-tenant injected fault: only the client named "faulty" fails.
  "${SWSIM}" serve --socket "${SOCK}" --jobs 2 \
    --request-log "${SERVE_DIR}/requests.jsonl" \
    --cache-dir "${SERVE_DIR}/cache" \
    --inject "throw:faulty" > "${SERVE_DIR}/serve.log" 2>&1 &
  SERVE_PID=$!
  trap 'kill "${SERVE_PID}" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    "${SWSIM}" client --socket "${SOCK}" hello >/dev/null 2>&1 && break
    sleep 0.1
  done

  # Concurrent tenants, each verifying served bytes == locally recomputed
  # CLI bytes (the client recomputes through the shared workload specs and
  # byte-compares; any mismatch is exit 1).
  VERIFY_PIDS=()
  for i in 1 2 3 4; do
    "${SWSIM}" client --socket "${SOCK}" --client "tenant${i}" --id "${i}" \
      truthtable maj --verify > "${SERVE_DIR}/tenant${i}.txt" 2>&1 &
    VERIFY_PIDS+=($!)
  done
  for pid in "${VERIFY_PIDS[@]}"; do wait "${pid}"; done
  grep -q "verify OK" "${SERVE_DIR}/tenant1.txt"

  # The faulty tenant's request fails remotely (exit 1) without touching
  # anyone else. It must be a yield — yields bypass the cache, so its jobs
  # actually run and hit the injected per-tenant fault.
  if "${SWSIM}" client --socket "${SOCK}" --client faulty yield maj \
      --trials 200 > "${SERVE_DIR}/faulty.txt" 2>&1; then
    echo "stage 6: the injected per-tenant fault did not fail" >&2
    exit 1
  fi

  # Warm cache: the maj table is already paid for, so a repeat request
  # must raise cache hits while jobs_executed stays put.
  health() {
    "${SWSIM}" client --socket "${SOCK}" healthz |
      grep -o "\"${1}\":[0-9]*" | head -1 | cut -d: -f2
  }
  JOBS_BEFORE="$(health jobs_executed)"
  HITS_BEFORE="$(health hits)"
  "${SWSIM}" client --socket "${SOCK}" --client repeat truthtable maj \
    >/dev/null
  JOBS_AFTER="$(health jobs_executed)"
  HITS_AFTER="$(health hits)"
  if [[ "${JOBS_AFTER}" != "${JOBS_BEFORE}" || \
        "${HITS_AFTER}" -le "${HITS_BEFORE}" ]]; then
    echo "stage 6: warm-cache repeat re-solved (jobs ${JOBS_BEFORE} -> \
${JOBS_AFTER}, hits ${HITS_BEFORE} -> ${HITS_AFTER})" >&2
    exit 1
  fi

  # Graceful drain: SIGTERM with a request in flight. The in-flight client
  # must complete normally (exit 0) and the daemon must exit 0.
  "${SWSIM}" client --socket "${SOCK}" --client inflight yield maj \
    --trials 100000 > "${SERVE_DIR}/inflight.txt" 2>&1 &
  INFLIGHT_PID=$!
  sleep 0.3
  kill -TERM "${SERVE_PID}"
  wait "${INFLIGHT_PID}"
  wait "${SERVE_PID}"
  trap - EXIT
  grep -q "yield" "${SERVE_DIR}/inflight.txt"
  test ! -e "${SOCK}" || { echo "stage 6: socket not unlinked" >&2; exit 1; }
  # The request log accounted for every request: the failed tenant, the
  # warm repeat, and the drained in-flight yield all have JSONL lines.
  grep -q '"client":"faulty".*"code":"internal"' "${SERVE_DIR}/requests.jsonl"
  grep -q '"client":"repeat".*"code":"ok"' "${SERVE_DIR}/requests.jsonl"
  grep -q '"client":"inflight".*"type":"yield".*"code":"ok"' \
    "${SERVE_DIR}/requests.jsonl"
  echo "stage 6: serve smoke passed"
fi

if [[ "${SWSIM_CHECK_SKIP_SERVE:-0}" == "1" ]]; then
  echo "== stage 7: chaos smoke skipped (SWSIM_CHECK_SKIP_SERVE=1) =="
else
  echo "== stage 7: chaos transport + crash-recovery smoke =="
  CHAOS_DIR="${BUILD_DIR}/chaos-smoke"
  rm -rf "${CHAOS_DIR}"
  mkdir -p "${CHAOS_DIR}/cache"
  SOCK="${CHAOS_DIR}/chaos.sock"
  SWSIM="${BUILD_DIR}/cli/swsim"

  # Litter the cache dir the way a crash does: a torn spill entry and a
  # tmp file that never reached its atomic rename. Startup must quarantine
  # the one and remove the other, and say so.
  printf 'definitely not a spill file' > "${CHAOS_DIR}/cache/00ff.swc"
  printf 'partial write' > "${CHAOS_DIR}/cache/dead.swc.tmp.4242"
  "${SWSIM}" serve --socket "${SOCK}" --jobs 2 \
    --cache-dir "${CHAOS_DIR}/cache" \
    --idle-timeout 5 --frame-timeout 1 \
    > "${CHAOS_DIR}/serve.log" 2>&1 &
  SERVE_PID=$!
  trap 'kill "${SERVE_PID}" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    "${SWSIM}" client --socket "${SOCK}" hello >/dev/null 2>&1 && break
    sleep 0.1
  done
  grep -q "cache recovery: 1 scanned, 0 healthy, 1 quarantined, 1 tmp" \
    "${CHAOS_DIR}/serve.log"
  test -e "${CHAOS_DIR}/cache/quarantine/00ff.swc"
  test ! -e "${CHAOS_DIR}/cache/dead.swc.tmp.4242"

  # A seeded hostile storm: torn frames, garbage, oversized prefixes,
  # vanishing clients. Exit 0 == every exchange ended terminally (a hung
  # session is the only failure), and the printed summary must agree.
  "${SWSIM}" client --socket "${SOCK}" --client storm \
    --chaos "seed=7,count=16,slow-byte-s=0.005" truthtable maj \
    > "${CHAOS_DIR}/storm.txt"
  grep -q " 0 hung" "${CHAOS_DIR}/storm.txt"

  # A request that cannot finish inside its budget comes back as a
  # deadline-exceeded rejection: the dedicated client exit code 5 and a
  # rejected_deadline healthz counter (the queued-shed-without-engine-work
  # half of this contract is pinned by ServeServer.QueuedDeadline* in
  # ctest and the engine_jobs_during_shed bench scalar).
  health() {
    "${SWSIM}" client --socket "${SOCK}" healthz |
      grep -o "\"${1}\":[0-9]*" | head -1 | cut -d: -f2
  }
  HURRIED_RC=0
  "${SWSIM}" client --socket "${SOCK}" --client hurried \
    --deadline 0.05 yield maj --trials 100000 \
    > "${CHAOS_DIR}/hurried.txt" 2>&1 || HURRIED_RC=$?
  if [[ "${HURRIED_RC}" -ne 5 ]]; then
    echo "stage 7: expected exit 5 for a deadline-exceeded request," \
         "got ${HURRIED_RC}" >&2
    exit 1
  fi
  # The client can give up (exit 5) a beat before the server finishes
  # accounting the rejection, so give the counter a moment to land.
  REJECTED=0
  for _ in $(seq 50); do
    REJECTED="$(health rejected_deadline)"
    [[ "${REJECTED:-0}" -ge 1 ]] && break
    sleep 0.1
  done
  if [[ "${REJECTED:-0}" -lt 1 ]]; then
    echo "stage 7: deadline rejection not visible in healthz" >&2
    exit 1
  fi

  # After the storm the daemon still answers honestly and drains clean.
  "${SWSIM}" client --socket "${SOCK}" --client after truthtable maj \
    --verify > "${CHAOS_DIR}/after.txt" 2>&1
  grep -q "verify OK" "${CHAOS_DIR}/after.txt"
  kill -TERM "${SERVE_PID}"
  wait "${SERVE_PID}"
  trap - EXIT
  test ! -e "${SOCK}" || { echo "stage 7: socket not unlinked" >&2; exit 1; }
  echo "stage 7: chaos smoke passed"
fi

if [[ "${SWSIM_CHECK_SKIP_SERVE:-0}" == "1" ]]; then
  echo "== stage 8: serve telemetry smoke skipped (SWSIM_CHECK_SKIP_SERVE=1) =="
else
  echo "== stage 8: serve telemetry smoke (traces, slo, flight recorder) =="
  TELEM_DIR="${BUILD_DIR}/telemetry-smoke"
  rm -rf "${TELEM_DIR}"
  mkdir -p "${TELEM_DIR}"
  SOCK="${TELEM_DIR}/telemetry.sock"
  SWSIM="${BUILD_DIR}/cli/swsim"

  "${SWSIM}" serve --socket "${SOCK}" --jobs 2 \
    --idle-timeout 30 --frame-timeout 5 \
    --trace-out "${TELEM_DIR}/server_trace.json" \
    --request-log "${TELEM_DIR}/requests.jsonl" \
    > "${TELEM_DIR}/serve.log" 2>&1 &
  SERVE_PID=$!
  trap 'kill "${SERVE_PID}" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    "${SWSIM}" client --socket "${SOCK}" hello >/dev/null 2>&1 && break
    sleep 0.1
  done

  # A traced request: the client stamps the trace context, the server
  # continues the same flow, and both sides echo/record the timing split.
  "${SWSIM}" client --socket "${SOCK}" --client tracer \
    --trace-id smoke-trace --trace-out "${TELEM_DIR}/client_trace.json" \
    truthtable maj --timing > "${TELEM_DIR}/traced.txt" 2>&1
  grep -q "client: timing: queue" "${TELEM_DIR}/traced.txt"

  # Per-tenant SLO accounting is visible over the wire.
  "${SWSIM}" client --socket "${SOCK}" healthz > "${TELEM_DIR}/healthz.txt"
  grep -q '"slo"' "${TELEM_DIR}/healthz.txt"
  grep -q '"tracer"' "${TELEM_DIR}/healthz.txt"

  # SIGQUIT dumps the flight recorder into the request log without taking
  # the daemon down: it must keep answering afterwards.
  kill -QUIT "${SERVE_PID}"
  DUMPED=0
  for _ in $(seq 50); do
    grep -q '"flight_recorder":"begin"' "${TELEM_DIR}/requests.jsonl" \
      2>/dev/null && { DUMPED=1; break; }
    sleep 0.1
  done
  if [[ "${DUMPED}" -ne 1 ]]; then
    echo "stage 8: SIGQUIT did not dump the flight recorder" >&2
    exit 1
  fi
  "${SWSIM}" client --socket "${SOCK}" hello >/dev/null

  # Drain so the server writes its trace file, then merge both sides into
  # one timeline and validate it: the merged trace must span two processes
  # and still carry the flow arrows that tie client to solver.
  kill -TERM "${SERVE_PID}"
  wait "${SERVE_PID}"
  trap - EXIT
  test -s "${TELEM_DIR}/server_trace.json"
  test -s "${TELEM_DIR}/client_trace.json"
  "${SWSIM}" trace merge --out "${TELEM_DIR}/merged_trace.json" \
    "${TELEM_DIR}/client_trace.json" "${TELEM_DIR}/server_trace.json"
  "${SWSIM}" trace-check "${TELEM_DIR}/merged_trace.json" \
    > "${TELEM_DIR}/trace_check.txt"
  grep -q "trace OK" "${TELEM_DIR}/trace_check.txt"
  if grep -q " 0 flow events" "${TELEM_DIR}/trace_check.txt"; then
    echo "stage 8: merged trace carries no flow events" >&2
    exit 1
  fi
  grep -q "across 2 processes" "${TELEM_DIR}/trace_check.txt"

  # The request log carries the client's trace id end to end.
  grep -q '"trace_id":"smoke-trace"' "${TELEM_DIR}/requests.jsonl"
  echo "stage 8: serve telemetry smoke passed"
fi

if [[ "${SWSIM_CHECK_SKIP_SERVE:-0}" == "1" ]]; then
  echo "== stage 9: physics telemetry smoke skipped (SWSIM_CHECK_SKIP_SERVE=1) =="
else
  echo "== stage 9: physics telemetry smoke (probe stream, convergence) =="
  PROBE_DIR="${BUILD_DIR}/probe-smoke"
  rm -rf "${PROBE_DIR}"
  mkdir -p "${PROBE_DIR}"
  SOCK="${PROBE_DIR}/probe.sock"
  SWSIM="${BUILD_DIR}/cli/swsim"

  "${SWSIM}" serve --socket "${SOCK}" --jobs 2 \
    --idle-timeout 30 --frame-timeout 5 \
    > "${PROBE_DIR}/serve.log" 2>&1 &
  SERVE_PID=$!
  trap 'kill "${SERVE_PID}" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    "${SWSIM}" client --socket "${SOCK}" hello >/dev/null 2>&1 && break
    sleep 0.1
  done

  # A live subscriber first, then the job: lock-in frames must stream out
  # of the daemon *while* the LLG solve is running, and the tail must see
  # its bounded stream through to the terminal marker.
  "${SWSIM}" probe tail --socket "${SOCK}" --max-frames 6 \
    > "${PROBE_DIR}/tail.txt" 2>&1 &
  TAIL_PID=$!
  sleep 0.3
  "${SWSIM}" client --socket "${SOCK}" --client probesmoke \
    micromag maj --early-stop --deadline 300 \
    > "${PROBE_DIR}/served.txt" 2>&1
  grep -q "verdict: PASS" "${PROBE_DIR}/served.txt"
  wait "${TAIL_PID}"
  grep -q "stream ended (done): 6 frames" "${PROBE_DIR}/tail.txt"
  grep -Eq "O[12] window [0-9]+ .* A [0-9.]+" "${PROBE_DIR}/tail.txt"

  # The daemon accounted for the stream and holds no subscriber open.
  "${SWSIM}" client --socket "${SOCK}" healthz > "${PROBE_DIR}/healthz.txt"
  grep -q '"probe":{"active":0' "${PROBE_DIR}/healthz.txt"
  grep -q '"streams":1' "${PROBE_DIR}/healthz.txt"
  kill -TERM "${SERVE_PID}"
  wait "${SERVE_PID}"
  trap - EXIT

  # Full-length local run: the profile's physics block must carry a real
  # convergence time for the detection probes (-1 would mean "never").
  "${SWSIM}" micromag --jobs "${JOBS}" \
    --profile-out "${PROBE_DIR}/profile.json" \
    > "${PROBE_DIR}/full.txt" 2>&1
  grep -q '"physics"' "${PROBE_DIR}/profile.json"
  grep -q '"converged_at": *[0-9]' "${PROBE_DIR}/profile.json"

  # Early stop must actually save integration steps, and the saved steps
  # must be free: the detected logic table is identical to the full run.
  "${SWSIM}" micromag --jobs "${JOBS}" --early-stop \
    > "${PROBE_DIR}/early.txt" 2>&1
  SAVED="$(grep -o 'early stop saved [0-9]*' "${PROBE_DIR}/early.txt" \
           | awk '{print $4}')"
  if [[ -z "${SAVED}" || "${SAVED}" -eq 0 ]]; then
    echo "stage 9: --early-stop saved no integration steps" >&2
    exit 1
  fi
  for f in full early; do
    grep -E '^[01] ' "${PROBE_DIR}/${f}.txt" \
      | awk '{print $1, $2, $3, $6, $7, $8, $9}' > "${PROBE_DIR}/${f}.logic"
  done
  if ! diff -u "${PROBE_DIR}/full.logic" "${PROBE_DIR}/early.logic"; then
    echo "stage 9: --early-stop changed the detected logic" >&2
    exit 1
  fi
  echo "stage 9: physics telemetry smoke passed"
fi

echo "== all checks passed =="
