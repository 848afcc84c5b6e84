/**
 * @file
 * Compiles, as gnu++17, every src/ header the benchmark harness
 * (bench/e2e) includes. The harness target is added before the root
 * project sets C++20, so it builds at the compiler's default
 * standard; a C++20 construct in one of these headers would pass
 * every other target and break `bash bench/e2e/run.sh`. Built with
 * the tier-1 tree (tests/CMakeLists.txt), so it fails there instead.
 * Keep the list equal to the harness's own src/ includes.
 */

#include "backend/backend.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "core/buildinfo.hh"
#include "core/config.hh"
#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/observability.hh"
#include "core/replay_build.hh"
#include "core/threadpool.hh"
#include "frontend/btb.hh"
#include "frontend/ittage.hh"
#include "frontend/tage.hh"
#include "replacement/spec.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "service/service.hh"
#include "stats/chrome_trace.hh"
#include "stats/json.hh"
#include "stats/span_recorder.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "workload/emtc.hh"
