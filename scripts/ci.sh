#!/usr/bin/env bash
# CI driver: the exact sequence the GitHub workflow runs, kept as a
# script so it can be reproduced locally with ./scripts/ci.sh.
#
#   0. Cited evidence: every results/ file and source path that
#      README.md, EXPERIMENTS.md or docs/ cite must exist; a cited
#      glob must match a file, a <placeholder> never does, and a
#      brace citation such as src/x/{a,b}.cc names every member
#   0b. Build provenance ("buildsha"): in a throwaway clone, a new
#      commit and then an edit to a tracked file must each reach
#      core::buildInfo's sha at the next build, without a reconfigure
#   1. Release build (whole-program IPO where the toolchain has it)
#      + full test suite
#   2. Observability smoke: --stats-json / --sample-interval /
#      --trace-out output must parse and carry the expected keys,
#      bad flags must exit 2 and --trace of a file that is not an
#      EMTC container exit 1 naming it, a bad --policy or
#      --l1i-policy exit 1 before --record writes a file, the CLI's
#      single-run paths (live, --record, --trace of the recording,
#      --trace of a packed container) must agree, one-worker sweeps
#      whose rows predict
#      inline and share one prediction stream must give the same
#      TPLRU cells, a short one-worker fig5 bench
#      sweep, plain and fused, must write a parseable flight trace
#      and sweep JSON within its deadline, and a fused emissary_sim
#      sweep must print and write its monitor lanes' IPC,
#      starvation and speedup as n/a (null in JSON), and a one-worker
#      fused Fig. 5 sweep must finish within its deadline, equal the
#      same sweep on four workers (its rows live on one worker and
#      replayed on four) and trace one lane job per monitor cell,
#      some P(N) member lanes sharing their leader's replay
#   3. Time-parallel smoke: chunked single runs, trace replay and
#      sweeps must be bit-identical across worker counts and carry
#      the time_slicing provenance, the one-worker runs must finish
#      within their deadlines, and the mode validation bench must
#      pass its gates on a two-workload subset
#   4. trace_pack smoke: pack a synthetic benchmark into an EMTC
#      container, verify its CRCs, prove that verify *fails* on a
#      flipped byte, import the committed ChampSim fixture, and run
#      a 2x2 catalog sweep whose JSON must parse
#   5. Service smoke: out-of-range numeric flags of emissary_serve and
#      emissary_client must exit 1 before a daemon or a connection
#      starts; start the emissary_serve daemon, run a mixed
#      synthetic + packed-trace catalog sweep twice (the second must
#      be served >= 90% from the content-addressed result cache),
#      validate every reply with json_check, prove malformed input
#      comes back as a structured error, and check a clean SIGTERM
#      shutdown
#   6. Benchmark reference check: bench/e2e/run.sh --self-test
#      compares one Fig. 5 row under two policies at full windows
#      bit for bit against the committed reference (and proves a
#      perturbed value trips the check), then --smoke runs every
#      benchmark workload at tiny windows with its exactness and
#      determinism checks
#   7. AddressSanitizer + UBSan build (with libstdc++ assertions)
#      + full test suite
#   8. ThreadSanitizer build + the "threaded" test label
#
# Stages can be selected: ./scripts/ci.sh release smoke
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${CI_JOBS:-$(nproc)}"
STAGES="${*:-evidence buildsha release smoke timeparallel tracepack service bench asan tsan}"

run_stage() { echo; echo "=== ci: $* ==="; }

# Run "$@" with a deadline of $1 seconds, named $2 in the failure
# message. Used on one-worker runs: there a wrong job order in the
# pool would hang rather than fail, so a run that outlives about ten
# times its usual time fails the stage instead of stalling it (on a
# 4-vCPU host, Release: the fig5 sweep takes 2.0 s, each chunked run
# 0.15-0.19 s).
deadline() {
    local seconds="$1" name="$2" rc=0
    shift 2
    timeout "$seconds" "$@" || rc=$?
    if [ "$rc" -eq 124 ]; then
        echo "$name did not finish in ${seconds} s (scheduling" \
            "deadlock?)" >&2
        exit 1
    fi
    return "$rc"
}

# Print each path a brace citation names, one per line:
# src/x/{a,b}.cc gives src/x/a.cc and src/x/b.cc. Any other path
# prints as it is.
expand_braces() {
    local pattern='^([^{]*)[{]([^{}]*)[}](.*)$' head tail alt
    local -a alts
    if [[ "$1" =~ $pattern ]]; then
        head="${BASH_REMATCH[1]}" tail="${BASH_REMATCH[3]}"
        IFS=, read -ra alts <<<"${BASH_REMATCH[2]}"
        for alt in "${alts[@]}"; do
            expand_braces "$head$alt$tail"
        done
    else
        printf '%s\n' "$1"
    fi
}

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
        # count. A glob must match at least one file; a <placeholder>
        # names none; every member of a brace citation must exist.
        missing=0
        while read -r cited; do
            while read -r path; do
                [[ "$path" != *'<'* ]] && compgen -G "$path" >/dev/null ||
                    { echo "cited but missing: $path" >&2; missing=1; }
            done < <(expand_braces "$cited")
        done < <(grep -ohE \
            '(^|[ `(])(src|tools|bench|tests|scripts|results)/[A-Za-z0-9_./*<>{},-]+\.([a-z*]+|[{][a-z,]+[}])' \
            README.md EXPERIMENTS.md docs/*.md |
            sed -E 's/^[ `(]//' | sort -u)
        [ "$missing" -eq 0 ] || exit 1
        echo "evidence OK"
        ;;
    buildsha)
        run_stage "build_sha follows the commit at build time"
        # Configure a throwaway clone once, then build only the sha
        # target after each change and read the header it writes.
        tmp="$(mktemp -d)"
        git clone -q . "$tmp/src"
        cmake -S "$tmp/src" -B "$tmp/build" >/dev/null
        stamped() {
            cmake --build "$tmp/build" --target emissary_git_sha >/dev/null
            sed -n 's/^#define EMISSARY_GIT_SHA "\(.*\)"$/\1/p' \
                "$tmp/build/src/core/git_sha.hh"
        }
        expect_sha() {
            local got
            got="$(stamped)"
            [ "$got" = "$1" ] ||
                { echo "$2: build stamps '$got', want '$1'" >&2; exit 1; }
        }
        expect_sha "$(git -C "$tmp/src" rev-parse --short=12 HEAD)" \
            "clean clone"
        git -C "$tmp/src" -c user.name=ci -c user.email=ci@localhost \
            commit -q --allow-empty -m "empty commit"
        sha="$(git -C "$tmp/src" rev-parse --short=12 HEAD)"
        expect_sha "$sha" "after a new commit"
        echo >>"$tmp/src/README.md"
        expect_sha "$sha-dirty" "after editing a tracked file"
        rm -rf "$tmp"
        echo "buildsha OK"
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
        # Unknown flags, and 32-bit knobs past 2^32 - 1, must fail
        # loudly with exit 2 instead of wrapping ($bad word-splits
        # into flag and value).
        for bad in --no-such-flag "--sampled-sets 4294967296" \
            "--sampled-sets 3" "--time-chunks 4294967298"; do
            rc=0
            build-ci-release/tools/emissary_sim $bad \
                >/dev/null 2>&1 || rc=$?
            [ "$rc" -eq 2 ] ||
                { echo "'$bad' did not exit 2 (rc=$rc)" >&2; exit 1; }
        done
        # Every trace is an EMTC container: --trace of any other file
        # (here 64 zero bytes) is an input error, exit 1, in the EMTC
        # reader's error naming the file.
        head -c 64 /dev/zero >"$out/not_a_container"
        rc=0
        build-ci-release/tools/emissary_sim --trace "$out/not_a_container" \
            >/dev/null 2>"$out/trace_error.txt" || rc=$?
        [ "$rc" -eq 1 ] &&
            grep -qF "EMTC: $out/not_a_container:" "$out/trace_error.txt" ||
            { echo "--trace of a non-container: rc=$rc, want 1 and" \
                "an error naming the file" >&2; exit 1; }
        # A bad L2 or L1I policy is an input error, exit 1, found
        # before --record opens its container: no file is left.
        for flag in --policy --l1i-policy; do
            rc=0
            build-ci-release/tools/emissary_sim --benchmark tomcat \
                --record "$out/junk.emtc" "$flag" "P(0):X" \
                >/dev/null 2>&1 || rc=$?
            [ "$rc" -eq 1 ] && [ ! -e "$out/junk.emtc" ] ||
                { echo "--record with a bad $flag: rc=$rc, want 1" \
                    "and no container written" >&2; exit 1; }
        done
        # One run four ways: live, teeing its stream to an EMTC
        # container, that recording replayed, and a packed container
        # of the same stream at --time-chunks 1. All must report the
        # same cycles and counters, and recording must not change any
        # metric.
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
        run_one record --benchmark tomcat --record "$out/recorded.emtc"
        run_one replay --trace "$out/recorded.emtc"
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
        # Shared against inline branch prediction: a row with one
        # pass predicts inline (on one worker it generates live), and
        # a row with three reads the outcomes its build job predicted
        # once. Both sweeps run on one worker, and their TPLRU cells
        # must agree bit for bit.
        predict_sweep() {
            local name="$1" policies="$2"
            deadline 20 "one-worker $name-prediction sweep" \
                build-ci-release/tools/emissary_sim \
                --benchmarks tomcat,verilator --policies "$policies" \
                --instructions 200000 --warmup 50000 --jobs 1 \
                --stats-json "$out/$name.json" \
                --perf-trace "$out/${name}_trace.json" >/dev/null
        }
        # The benchmark and metrics of every TPLRU run of a sweep JSON.
        tplru_metrics() {
            awk '/^      "benchmark": / { bench = $2 }
                 /^      "policy": / { tplru = $2 == "\"TPLRU\"," }
                 /^      "metrics": \{/ { on = tplru }
                 on { print bench, $0 }
                 on && /^      \}/ { on = 0 }' "$out/$1.json"
        }
        predict_sweep inline TPLRU
        predict_sweep shared "TPLRU,P(8):S&E,LRU"
        grep -Eq '"predicted_blocks": ?[1-9]' "$out/shared_trace.json" &&
            ! grep -Eq '"predicted_blocks": ?[1-9]' \
                "$out/inline_trace.json" ||
            { echo "prediction stream not shared exactly on the" \
                "three-pass rows" >&2; exit 1; }
        [ -n "$(tplru_metrics inline)" ] &&
            [ "$(tplru_metrics inline)" = "$(tplru_metrics shared)" ] ||
            { echo "shared prediction changed the TPLRU cells" >&2
              exit 1; }
        rm -rf "$out"
        # A short fig5 bench sweep exercises the grid benches'
        # artifact hooks: EMISSARY_BENCH_JSON, EMISSARY_PERF_TRACE
        # and, run again, EMISSARY_FUSED. The outputs land in
        # ci-artifacts/, which the GitHub workflow uploads.
        art=build-ci-release/ci-artifacts
        mkdir -p "$art/fused"
        fig5() {
            deadline 20 "one-worker fig5 smoke sweep" \
                env EMISSARY_JOBS=1 EMISSARY_BENCH_INSTRUCTIONS=200000 \
                EMISSARY_BENCHMARKS=tomcat,kafka,verilator "$@" \
                build-ci-release/bench/bench_fig5_policy_sweep
        }
        fig5 EMISSARY_BENCH_JSON="$art" \
            EMISSARY_PERF_TRACE="$art/fig5_flight_trace.json" \
            >"$art/fig5_smoke.txt"
        fig5 EMISSARY_FUSED=1 EMISSARY_BENCH_JSON="$art/fused" \
            >"$art/fig5_fused_smoke.txt"
        grep -qE 'throughput \((runs/sec|Minst/s)\)' \
            "$art/fig5_smoke.txt" ||
            { echo "no throughput rows in sweep output" >&2; exit 1; }
        build-ci-release/tools/json_check \
            "$art/fig5_flight_trace.json"
        build-ci-release/tools/json_check \
            "$art/fig5_policy_sweep_sweep.json" \
            timing.phases.measure_seconds \
            timing.cell_wall_histogram.total provenance.git_sha
        grep -q 'scheduling: fused' "$art/fig5_fused_smoke.txt" ||
            { echo "fused sweep did not report fused scheduling" >&2
              exit 1; }
        build-ci-release/tools/json_check \
            "$art/fused/fig5_policy_sweep_sweep.json" \
            mode timing.phases.measure_seconds provenance.git_sha
        # Monitor lanes keep no clock: a fused sweep prints their IPC,
        # starvation and speedup as n/a and writes "ipc": null for
        # them, while its timing lane (TPLRU) prints numbers.
        build-ci-release/tools/emissary_sim --benchmarks tomcat \
            --policies "TPLRU,P(8):S&E,LRU" --instructions 200000 \
            --fused --stats-json "$art/fused_sweep.json" \
            >"$art/fused_sweep.txt"
        awk '/sweep wall-clock/ { exit }
             $1 == "tomcat" {
                 ++rows
                 na = ($3 == "n/a") + ($6 == "n/a") + ($7 == "n/a")
                 if (na != ($2 == "TPLRU" ? 0 : 3)) bad = 1
             }
             END { exit bad || rows != 3 }' "$art/fused_sweep.txt" ||
            { echo "fused sweep table: monitor timing is not n/a" >&2
              exit 1; }
        awk '/"execution":/ { monitor = /fused_monitor/ }
             /"ipc":/ { ++runs; if (/null/ != monitor) bad = 1 }
             END { exit bad || runs != 3 }' "$art/fused_sweep.json" ||
            { echo "fused sweep JSON: ipc null on a run other than" \
                "the monitors" >&2; exit 1; }
        # Monitor lanes are pool jobs that the timing pass queues from
        # inside its own job: on one worker they must not stall, and
        # they must give the results of four workers. The flight trace
        # holds one lane slice per monitor cell; some P(N) member lanes
        # share their leader's replay (shared_with), not all. One
        # timing pass reads each row, so the two sweeps fall on either
        # side of the row-source rule: on one worker the two passes
        # share it and each row generates live; on four, two workers
        # are spare and each row packs beside its pass. Their metrics
        # must still be equal.
        fig5_policies="TPLRU,M:0,M:R(1/32),M:S&E,M:S&E&R(1/32)"
        for n in 2 6 10 14; do
            fig5_policies+=",P($n):S&E,P($n):S&E&R(1/32)"
        done
        run_metrics() {
            awk '/^      "metrics": \{/ { on = 1 } on { print }
                 on && /^      \}/ { on = 0 }' "$1"
        }
        deadline 5 "one-worker fused lane sweep" \
            build-ci-release/tools/emissary_sim \
            --benchmarks tomcat,verilator --policies "$fig5_policies" \
            --instructions 200000 --warmup 50000 --fused --jobs 1 \
            --stats-json "$art/fused_lanes_j1.json" \
            --perf-trace "$art/fused_lanes_trace.json" >/dev/null
        build-ci-release/tools/emissary_sim \
            --benchmarks tomcat,verilator --policies "$fig5_policies" \
            --instructions 200000 --warmup 50000 --fused --jobs 4 \
            --stats-json "$art/fused_lanes_j4.json" >/dev/null
        [ -n "$(run_metrics "$art/fused_lanes_j1.json")" ] &&
            [ "$(run_metrics "$art/fused_lanes_j1.json")" = \
              "$(run_metrics "$art/fused_lanes_j4.json")" ] ||
            { echo "fused lane sweep differs between 1 and 4 workers" \
                >&2; exit 1; }
        sources() {
            grep -o '"source": "[a-z]*"' "$1" | sort | uniq -c |
                awk '{ printf "%s %s;", $1, $3 }'
        }
        [ "$(sources "$art/fused_lanes_j1.json")" = '26 "live";' ] &&
            [ "$(sources "$art/fused_lanes_j4.json")" = '26 "replay";' ] ||
            { echo "fused lane sweep sources: $(sources \
                "$art/fused_lanes_j1.json") at 1 worker, $(sources \
                "$art/fused_lanes_j4.json") at 4 (want 26 live," \
                "26 replay)" >&2; exit 1; }
        lanes=$(grep -o '"name":"lane"' "$art/fused_lanes_trace.json" |
            wc -l)
        shared=$(grep -o '"shared_with":' "$art/fused_lanes_trace.json" |
            wc -l)
        # 2 rows x 12 monitor lanes, of which 2 x 6 are P(N) members.
        [ "$lanes" -eq 24 ] && [ "$shared" -gt 0 ] &&
            [ "$shared" -lt 12 ] ||
            { echo "fused lane trace: $lanes lane slices, $shared" \
                "shared (want 24, and 1-11 shared)" >&2; exit 1; }
        echo "smoke OK"
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
        deadline 2 "one-worker chunked synthetic run" \
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
        deadline 2 "one-worker chunked trace run" \
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
        # The same container as a one-row catalog sweep. The grid
        # streams EMTC rows chunk by chunk, so its sweep JSON must say
        # "source": "stream", the row must repeat exactly at any
        # worker count, and its cycles must be the chunked --trace
        # run's above.
        cat >"$out/catalog.json" <<EOF
{"schema": "emissary.catalog.v1",
 "workloads": [{"name": "tomcat.packed",
                "trace": {"path": "tomcat.emtc"}}]}
EOF
        for jobs in 1 4; do
            deadline 2 "$jobs-worker chunked catalog sweep" \
                "$sim" --catalog "$out/catalog.json" --policies "EMISSARY" \
                --instructions 300000 --warmup 100000 \
                --time-chunks 4 --jobs "$jobs" \
                --stats-json "$out/catalog$jobs.json" |
                sed '/sweep wall-clock/,$d' >"$out/catalog_j$jobs.txt"
            awk '/^      "metrics": \{/ {on = 1} on {print}
                 on && /^      \}/ {exit}' "$out/catalog$jobs.json" \
                >>"$out/catalog_j$jobs.txt"
        done
        diff "$out/catalog_j1.txt" "$out/catalog_j4.txt" ||
            { echo "streamed catalog row differs across worker counts" \
                >&2; exit 1; }
        grep -q '"source": "stream"' "$out/catalog1.json" ||
            { echo "EMTC catalog row did not stream" >&2; exit 1; }
        [ "$(grep -o '"cycles": [0-9]*' "$out/trace1.json")" = \
          "$(grep -o '"cycles": [0-9]*' "$out/catalog1.json")" ] ||
            { echo "catalog row cycles differ from the --trace run" \
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
        if "$sim" --benchmark tomcat --record "$out/no.emtc" \
            --instructions 100000 --time-chunks 2 2>/dev/null; then
            echo "--time-chunks with --record did not fail" >&2
            exit 1
        fi
        # Mode validation on a two-workload subset, gated: its
        # results are bit-deterministic on any host, so the stage
        # fails when a fused timing lane leaves the sequential oracle
        # or a chunked mode misses the L2I MPKI gate.
        EMISSARY_BENCHMARKS=tomcat,kafka \
        EMISSARY_BENCH_INSTRUCTIONS=1000000 \
        EMISSARY_VALIDATION_OUT="$out/mode_validation.txt" \
            build-ci-release/bench/bench_mode_validation
        grep -q 'L2I MPKI err max' "$out/mode_validation.txt" ||
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
        # Out-of-range numeric flags exit 1, naming the flag, before
        # a daemon, a pool or a connection starts; the timeout stops
        # a daemon that would start anyway ($bad word-splits).
        for bad in "$serve --port -1" "$serve --port 70000" \
            "$serve --jobs 4097" \
            "$serve --cache-budget-mb 17592186044417" \
            "$client --port -1 --ping" "$client --port 70000 --ping" \
            "$client --port 1 --concurrency -1 --ping" \
            "$client --port 1 --min-cached-fraction 0,9 --ping"; do
            rc=0
            timeout 10 $bad >/dev/null 2>"$out/flag_error.txt" || rc=$?
            [ "$rc" -eq 1 ] && grep -q "needs" "$out/flag_error.txt" ||
                { echo "'$bad' was not rejected (rc=$rc)" >&2; exit 1; }
        done
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
    asan)
        run_stage "AddressSanitizer + UBSan build + tests"
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
