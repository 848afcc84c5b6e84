#!/usr/bin/env bash
# CI driver: the exact sequence the GitHub workflow runs, kept as a
# script so it can be reproduced locally with ./scripts/ci.sh.
#
#   0. Cited evidence: every results/ file and source path that
#      README.md, EXPERIMENTS.md or docs/ cite must exist
#   1. Release build + full test suite
#   2. Observability smoke: --stats-json / --sample-interval /
#      --trace-out output must parse and carry the expected keys, and
#      the CLI's single-run paths (live, --record, --trace of the
#      recording, --trace of a packed container) must agree
#   3. Throughput smoke: a short policy sweep that prints Minst/s;
#      the numbers are informational — the stage gates only on the
#      bench exiting cleanly
#   4. Time-parallel smoke: chunked single runs, trace replay and
#      sweeps must be bit-identical across worker counts, carry the
#      time_slicing provenance, and the validation bench must
#      produce its error table end-to-end
#   5. trace_pack smoke: pack a synthetic benchmark into an EMTC
#      container, verify its CRCs, prove that verify *fails* on a
#      flipped byte, import the committed ChampSim fixture, and run
#      a 2x2 catalog sweep whose JSON must parse
#   6. Service smoke: start the emissary_serve daemon, run a mixed
#      synthetic + packed-trace catalog sweep twice (the second must
#      be served >= 90% from the content-addressed result cache),
#      validate every reply with json_check, prove malformed input
#      comes back as a structured error, and check a clean SIGTERM
#      shutdown
#   7. Benchmark reference check: bench/e2e/run.sh --self-test
#      compares one Fig. 5 row under two policies at full windows
#      bit for bit against the committed reference (and proves a
#      perturbed value trips the check), then --smoke runs every
#      benchmark workload at tiny windows with its exactness and
#      determinism checks
#   8. AddressSanitizer build + full test suite
#   9. ThreadSanitizer build + the "threaded" test label
#
# An optional "lto" stage rebuilds Release with EMISSARY_LTO=ON and
# reruns the suite (the GitHub workflow runs it as its own job).
#
# Stages can be selected: ./scripts/ci.sh release smoke throughput
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${CI_JOBS:-$(nproc)}"
STAGES="${*:-evidence release smoke throughput timeparallel tracepack service bench asan tsan}"

run_stage() { echo; echo "=== ci: $* ==="; }

configure_build_test() {
    local dir="$1"; shift
    cmake -B "$dir" -S . "$@" >/dev/null
    cmake --build "$dir" -j "$JOBS"
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" "${CTEST_ARGS[@]}"
}

for stage in $STAGES; do
    case "$stage" in
    evidence)
        run_stage "cited results/ files and source paths exist"
        # A cited path starts a line or follows a space, backtick or
        # parenthesis, so output paths like /tmp/bench/x.json do not
        # count.
        missing=0
        while read -r path; do
            [ -e "$path" ] ||
                { echo "cited but missing: $path" >&2; missing=1; }
        done < <(grep -ohE \
            '(^|[ `(])(src|tools|bench|tests|scripts|results)/[A-Za-z0-9_./-]+\.[a-z]+' \
            README.md EXPERIMENTS.md docs/*.md |
            sed -E 's/^[ `(]//' | sort -u)
        [ "$missing" -eq 0 ] || exit 1
        echo "evidence OK"
        ;;
    release)
        run_stage "Release build + tests"
        CTEST_ARGS=()
        configure_build_test build-ci-release \
            -DCMAKE_BUILD_TYPE=Release
        ;;
    smoke)
        run_stage "observability smoke run"
        [ -x build-ci-release/tools/emissary_sim ] ||
            { echo "run the release stage first" >&2; exit 1; }
        out="$(mktemp -d)"
        build-ci-release/tools/emissary_sim \
            --benchmark verilator --policy "EMISSARY" \
            --instructions 200000 \
            --stats-json "$out/run.json" --sample-interval 50000 \
            --trace-out "$out/trace.jsonl" >/dev/null
        build-ci-release/tools/json_check "$out/run.json" \
            metrics.ipc counters.l2.inst_misses \
            samples.interval config.measure_instructions
        # Every JSONL event line must parse too.
        while IFS= read -r line; do
            printf '%s' "$line" >"$out/event.json"
            build-ci-release/tools/json_check "$out/event.json" \
                event cycle
        done < <(head -100 "$out/trace.jsonl")
        # Unknown flags must fail loudly.
        if build-ci-release/tools/emissary_sim --no-such-flag \
            2>/dev/null; then
            echo "unknown flag did not fail" >&2; exit 1
        fi
        # One run four ways: live, teeing its stream to an EMTR file,
        # that recording replayed, and a packed container of the same
        # stream at --time-chunks 1. All must report the same cycles
        # and counters, and recording must not change any metric.
        run_one() {
            local name="$1"; shift
            build-ci-release/tools/emissary_sim --policy "P(8):S&E" \
                --instructions 300000 --warmup 100000 \
                --stats-json "$out/$name.json" "$@" >/dev/null
        }
        # Prints one top-level object of a pretty-printed run JSON.
        block() {
            awk -v open="  \"$2\": {" \
                '$0 == open {on = 1} on {print} on && /^  }/ {exit}' \
                "$out/$1.json"
        }
        run_one plain --benchmark tomcat
        run_one record --benchmark tomcat --record "$out/tomcat.emtr"
        run_one replay --trace "$out/tomcat.emtr"
        build-ci-release/tools/trace_pack pack "$out/tomcat.emtc" \
            --benchmark tomcat --records 500000 >/dev/null
        run_one packed --trace "$out/tomcat.emtc" --time-chunks 1
        for run in record replay packed; do
            [ "$(block plain counters)" = "$(block "$run" counters)" ] &&
                [ "$(block plain metrics | grep '"cycles"')" = \
                  "$(block "$run" metrics | grep '"cycles"')" ] ||
                { echo "$run run differs from the live run" >&2
                  exit 1; }
        done
        [ "$(block plain metrics)" = "$(block record metrics)" ] ||
            { echo "--record changed the run's metrics" >&2; exit 1; }
        rm -rf "$out"
        echo "smoke OK"
        ;;
    throughput)
        run_stage "throughput smoke + flight recorder + bench gate"
        [ -x build-ci-release/bench/bench_fig5_policy_sweep ] ||
            { echo "run the release stage first" >&2; exit 1; }
        # Short window, three workloads, one worker: finishes in a few
        # seconds anywhere. The sweep JSON, the flight-recorder Chrome
        # trace and the bench_gate report land in ci-artifacts/ (the
        # GitHub workflow uploads the directory). bench_gate runs in
        # warn mode — CI machines differ too much from the machine
        # that recorded results/BENCH_throughput.json for a hard gate
        # (docs/performance.md) — but its self-test, which must catch
        # a synthetically halved throughput, is strict.
        art=build-ci-release/ci-artifacts
        mkdir -p "$art"
        EMISSARY_JOBS=1 \
        EMISSARY_BENCHMARKS=tomcat,kafka,verilator \
        EMISSARY_BENCH_INSTRUCTIONS=200000 \
        EMISSARY_BENCH_JSON="$art" \
        EMISSARY_PERF_TRACE="$art/fig5_flight_trace.json" \
            build-ci-release/bench/bench_fig5_policy_sweep \
            >"$art/fig5_smoke.txt"
        grep -E 'throughput \((runs/sec|Minst/s)\)' \
            "$art/fig5_smoke.txt" ||
            { echo "no throughput rows in sweep output" >&2; exit 1; }
        # The flight trace must be valid JSON, and the sweep JSON must
        # carry the phase totals, cell histogram and provenance.
        build-ci-release/tools/json_check \
            "$art/fig5_flight_trace.json"
        build-ci-release/tools/json_check \
            "$art/fig5_policy_sweep_sweep.json" \
            timing.phases.measure_seconds \
            timing.cell_wall_histogram.total \
            provenance.git_sha
        build-ci-release/tools/bench_gate \
            --measured "$art/fig5_policy_sweep_sweep.json" \
            --report "$art/bench_gate_report.json"
        build-ci-release/tools/bench_gate \
            --measured "$art/fig5_policy_sweep_sweep.json" \
            --self-test
        build-ci-release/tools/json_check \
            "$art/bench_gate_report.json" status ratio tolerance
        # The same short sweep fused: one trace pass per workload
        # drives all policy lanes. The sweep JSON must say so, and
        # the gate (warn mode, like above) sees the fused numbers so
        # its report tracks the engine the big sweeps actually use.
        mkdir -p "$art/fused"
        EMISSARY_FUSED=1 \
        EMISSARY_JOBS=1 \
        EMISSARY_BENCHMARKS=tomcat,kafka,verilator \
        EMISSARY_BENCH_INSTRUCTIONS=200000 \
        EMISSARY_BENCH_JSON="$art/fused" \
            build-ci-release/bench/bench_fig5_policy_sweep \
            >"$art/fig5_fused_smoke.txt"
        grep -q 'scheduling: fused' "$art/fig5_fused_smoke.txt" ||
            { echo "fused sweep did not report fused scheduling" >&2
              exit 1; }
        build-ci-release/tools/json_check \
            "$art/fused/fig5_policy_sweep_sweep.json" \
            mode timing.phases.measure_seconds provenance.git_sha
        build-ci-release/tools/bench_gate \
            --measured "$art/fused/fig5_policy_sweep_sweep.json" \
            --report "$art/bench_gate_fused_report.json"
        # On the baseline machine (opt-in: CI machines are too
        # variable to publish baselines), append the measured sweep
        # as the new results/BENCH_throughput.json history entry.
        if [ "${CI_APPEND_BASELINE:-0}" != 0 ]; then
            build-ci-release/tools/bench_gate \
                --measured "$art/fig5_policy_sweep_sweep.json" \
                --append --note "${CI_APPEND_NOTE:-ci throughput \
stage append}"
        fi
        echo "throughput smoke OK"
        ;;
    timeparallel)
        run_stage "time-parallel chunked replay smoke"
        sim=build-ci-release/tools/emissary_sim
        [ -x "$sim" ] ||
            { echo "run the release stage first" >&2; exit 1; }
        out="$(mktemp -d)"
        # Single chunked run: the stats JSON must carry the slicing
        # knobs, and the printed metrics must be bit-identical at
        # any worker count (the determinism contract).
        "$sim" --benchmark tomcat --policy "EMISSARY" \
            --instructions 400000 --time-chunks 4 --jobs 1 \
            --stats-json "$out/tp1.json" >"$out/tp_j1.txt"
        "$sim" --benchmark tomcat --policy "EMISSARY" \
            --instructions 400000 --time-chunks 4 --jobs 4 \
            --stats-json "$out/tp4.json" >"$out/tp_j4.txt"
        build-ci-release/tools/json_check "$out/tp1.json" \
            metrics.ipc config.time_chunks \
            config.chunk_warmup_records
        diff "$out/tp_j1.txt" "$out/tp_j4.txt" ||
            { echo "chunked run differs across worker counts" >&2
              exit 1; }
        # Chunked trace replay: pack a container, chunk it, and
        # check worker-count determinism there too.
        build-ci-release/tools/trace_pack pack "$out/tomcat.emtc" \
            --benchmark tomcat --records 500000 >/dev/null
        "$sim" --trace "$out/tomcat.emtc" --policy "EMISSARY" \
            --instructions 300000 --warmup 100000 \
            --time-chunks 4 --jobs 1 \
            --stats-json "$out/trace1.json" >"$out/trace_j1.txt"
        "$sim" --trace "$out/tomcat.emtc" --policy "EMISSARY" \
            --instructions 300000 --warmup 100000 \
            --time-chunks 4 --jobs 4 >"$out/trace_j4.txt"
        build-ci-release/tools/json_check "$out/trace1.json" \
            metrics.ipc config.time_chunks workload.path
        diff "$out/trace_j1.txt" "$out/trace_j4.txt" ||
            { echo "chunked trace run differs across worker counts" \
                >&2; exit 1; }
        # Chunked sweep: the sweep JSON must carry the top-level
        # time_parallel clause and per-cell execution provenance.
        "$sim" --benchmarks tomcat,kafka --policies "TPLRU,EMISSARY" \
            --instructions 200000 --time-chunks 2 --jobs 2 \
            --stats-json "$out/sweep.json" >/dev/null
        build-ci-release/tools/json_check "$out/sweep.json" \
            time_parallel.time_chunks time_parallel.chunked_columns
        grep -q '"execution": "time_parallel"' "$out/sweep.json" ||
            { echo "sweep JSON lacks time_parallel provenance" >&2
              exit 1; }
        # --record needs one sequential pass and must refuse chunks.
        if "$sim" --benchmark tomcat --record "$out/no.emtr" \
            --instructions 100000 --time-chunks 2 2>/dev/null; then
            echo "--time-chunks with --record did not fail" >&2
            exit 1
        fi
        # Validation-bench subset: a small suite at a reduced window
        # just proves the harness runs end-to-end; the committed
        # error table (results/timeparallel_validation.txt) is
        # regenerated at full scale on the baseline machine, so the
        # error gate is informational here (CI hosts differ).
        EMISSARY_BENCHMARKS=tomcat,kafka \
        EMISSARY_BENCH_INSTRUCTIONS=1000000 \
        EMISSARY_VALIDATION_OUT="$out/tp_validation.txt" \
            build-ci-release/bench/bench_timeparallel_validation \
            >"$out/tp_validation_stdout.txt" || true
        grep -q 'L2I MPKI err max' "$out/tp_validation.txt" ||
            { echo "validation bench wrote no error table" >&2
              exit 1; }
        rm -rf "$out"
        echo "time-parallel smoke OK"
        ;;
    tracepack)
        run_stage "trace_pack + catalog smoke"
        pack=build-ci-release/tools/trace_pack
        [ -x "$pack" ] ||
            { echo "run the release stage first" >&2; exit 1; }
        out="$(mktemp -d)"
        # Pack a synthetic benchmark and check the container.
        "$pack" pack "$out/tomcat.emtc" \
            --benchmark tomcat --records 100000
        "$pack" info "$out/tomcat.emtc" >/dev/null
        "$pack" verify "$out/tomcat.emtc"
        # Corruption must not verify: flip one payload byte.
        cp "$out/tomcat.emtc" "$out/bad.emtc"
        printf '\xff' |
            dd of="$out/bad.emtc" bs=1 seek=2000 conv=notrunc \
                status=none
        if "$pack" verify "$out/bad.emtc" 2>/dev/null; then
            echo "verify accepted a corrupt container" >&2; exit 1
        fi
        # The committed ChampSim fixture must import.
        "$pack" import-champsim tests/data/tiny.champsim \
            "$out/tiny.emtc" --name tiny
        "$pack" verify "$out/tiny.emtc"
        # A catalog sweep over the packed trace + a live synthetic
        # workload must produce parseable sweep JSON.
        cat >"$out/catalog.json" <<EOF
{"schema": "emissary.catalog.v1",
 "workloads": [
   {"name": "kafka", "synthetic": {"profile": "kafka"}},
   {"name": "tomcat.packed", "trace": {"path": "tomcat.emtc"}}]}
EOF
        build-ci-release/tools/emissary_sim \
            --catalog "$out/catalog.json" \
            --policies "TPLRU,EMISSARY" \
            --instructions 200000 \
            --stats-json "$out/sweep.json" >/dev/null
        build-ci-release/tools/json_check "$out/sweep.json" \
            schema runs
        rm -rf "$out"
        echo "trace_pack smoke OK"
        ;;
    service)
        run_stage "sweep service smoke"
        serve=build-ci-release/tools/emissary_serve
        client=build-ci-release/tools/emissary_client
        [ -x "$serve" ] && [ -x "$client" ] ||
            { echo "run the release stage first" >&2; exit 1; }
        out="$(mktemp -d)"
        # A mixed catalog: one live synthetic workload plus a packed
        # trace, swept under two policies.
        build-ci-release/tools/trace_pack pack "$out/tomcat.emtc" \
            --benchmark tomcat --records 100000 >/dev/null
        cat >"$out/request.json" <<EOF
{"schema": "emissary.request.v1", "op": "sweep", "id": "ci-sweep",
 "catalog": {"schema": "emissary.catalog.v1",
   "workloads": [
     {"name": "kafka", "synthetic": {"profile": "kafka"}},
     {"name": "tomcat.packed",
      "trace": {"path": "$out/tomcat.emtc"}}]},
 "policies": ["TPLRU", "EMISSARY"],
 "config": {"warmup_instructions": 50000,
            "measure_instructions": 200000}}
EOF
        "$serve" --port 0 --port-file "$out/port" \
            --cache-dir "$out/cache" >"$out/serve.log" &
        serve_pid=$!
        for _ in $(seq 100); do
            [ -s "$out/port" ] && break
            sleep 0.1
        done
        [ -s "$out/port" ] ||
            { echo "daemon did not start" >&2; exit 1; }
        "$client" --port-file "$out/port" --ping >/dev/null
        # Cold sweep: every cell simulated and stored.
        "$client" --port-file "$out/port" \
            --request "$out/request.json" >"$out/reply_cold.json"
        build-ci-release/tools/json_check "$out/reply_cold.json" \
            schema cache.misses sweep.runs \
            sweep.provenance.git_sha
        # Warm sweep: the same request must be served >= 90% from
        # the content-addressed cache (here: 100%).
        "$client" --port-file "$out/port" \
            --request "$out/request.json" \
            --min-cached-fraction 0.9 >"$out/reply_warm.json"
        build-ci-release/tools/json_check "$out/reply_warm.json" \
            schema cache.hits
        # Malformed input: a structured emissary.error.v1 reply
        # (client exit 2), daemon stays up.
        printf 'not json' >"$out/bad.json"
        rc=0
        "$client" --port-file "$out/port" --request "$out/bad.json" \
            --raw >"$out/reply_error.json" || rc=$?
        [ "$rc" -eq 2 ] ||
            { echo "malformed request not rejected (rc=$rc)" >&2
              exit 1; }
        build-ci-release/tools/json_check "$out/reply_error.json" \
            schema field error
        "$client" --port-file "$out/port" --stats >"$out/stats.json"
        build-ci-release/tools/json_check "$out/stats.json" \
            jobs_completed bad_requests queue_depth \
            latency.p99_ms cache.hits
        # Clean SIGTERM shutdown: in-flight work drained, exit 0.
        kill -TERM "$serve_pid"
        wait "$serve_pid" ||
            { echo "daemon exited nonzero on SIGTERM" >&2; exit 1; }
        grep -q "emissary_serve: stopped" "$out/serve.log" ||
            { echo "daemon did not report a clean stop" >&2
              exit 1; }
        rm -rf "$out"
        echo "service smoke OK"
        ;;
    bench)
        run_stage "benchmark reference self-test + smoke"
        # run.sh builds its own Release tree (build-bench/) with the
        # harness target. Both steps exit nonzero on any mismatch
        # with the reference or any failed check.
        bash bench/e2e/run.sh --self-test
        bash bench/e2e/run.sh --smoke
        echo "bench OK"
        ;;
    lto)
        run_stage "Release + LTO build + tests"
        CTEST_ARGS=()
        configure_build_test build-ci-lto \
            -DCMAKE_BUILD_TYPE=Release \
            -DEMISSARY_LTO=ON
        ;;
    asan)
        run_stage "AddressSanitizer build + tests"
        CTEST_ARGS=()
        configure_build_test build-ci-asan \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DEMISSARY_SANITIZE=address
        ;;
    tsan)
        run_stage "ThreadSanitizer build + threaded tests"
        CTEST_ARGS=(-L threaded)
        configure_build_test build-ci-tsan \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DEMISSARY_SANITIZE=thread
        ;;
    *)
        echo "unknown stage '$stage'" >&2; exit 1
        ;;
    esac
done

echo
echo "=== ci: all stages passed ==="
