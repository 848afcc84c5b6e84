#!/usr/bin/env bash
# Regenerate the committed fixtures under tests/data/.
#
# The trace fixtures pin the on-disk bytes of the two workload
# formats:
#
#   tests/data/tiny.emtc      EMTC container, 2000 records of the
#                             xapian synthetic stream, 512-record
#                             blocks
#   tests/data/tiny.champsim  the same stream's first 512 records in
#                             ChampSim's raw 64-byte record format
#
# The golden-metrics fixture pins simulated results:
#
#   tests/data/golden_metrics.json  the full Metrics JSON of
#                             test_golden's short run matrix (policy
#                             families, machine knobs, a fused group
#                             and a time-parallel cell)
#
# The generators are bit-deterministic per seed, so a rebuild of the
# same source must reproduce these files byte-for-byte; test_emtc's
# CommittedFixtureBytesAreStable compares a fresh pack against the
# committed container to catch accidental encoder drift. If the EMTC
# format version is bumped intentionally, rerun this script and
# commit the result together with the version change.
#
# test_golden compares every run against golden_metrics.json bit for
# bit. Regenerate that file only for a change that is meant to alter
# simulated results, and generate it with the model you trust: a
# speed change must pass against the file its parent commit wrote.
#
# Usage: ./scripts/make_test_fixtures.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
pack="$build/tools/trace_pack"
golden="$build/tests/test_golden"
for tool in "$pack" "$golden"; do
    [ -x "$tool" ] || {
        echo "$tool not built (cmake --build $build --target" \
             "$(basename "$tool"))" >&2
        exit 1
    }
done

mkdir -p tests/data
"$pack" pack tests/data/tiny.emtc \
    --benchmark xapian --records 2000 --records-per-block 512
"$pack" export-champsim tests/data/tiny.champsim \
    --benchmark xapian --records 512
"$pack" verify tests/data/tiny.emtc
EMISSARY_GOLDEN_WRITE=tests/data/golden_metrics.json "$golden"
ls -l tests/data/tiny.emtc tests/data/tiny.champsim \
    tests/data/golden_metrics.json
