/**
 * @file
 * The structured-export half of the observability layer: registry
 * population from the component stat blocks, JSON rendering of
 * Metrics and Registry contents, and the trace-category ↔ counter
 * correspondence that lets tests reconcile a JSONL event stream
 * against the end-of-window counters exactly.
 *
 * The simulator's hot path keeps its plain structs (HierarchyStats,
 * BackendStats, FrontEndStats) — a Registry view is materialised on
 * demand (end of run, or each sampler interval), so observability
 * costs nothing when it is off.
 */

#ifndef EMISSARY_CORE_OBSERVABILITY_HH
#define EMISSARY_CORE_OBSERVABILITY_HH

#include <string>
#include <vector>

#include "backend/backend.hh"
#include "cache/hierarchy.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "frontend/frontend.hh"
#include "stats/json.hh"
#include "stats/registry.hh"

namespace emissary::core
{

/** A run's window/machine knobs as the manifest "config" object:
 *  every forEachRunOption key but the seed, in that order. */
stats::JsonValue runOptionsJson(const RunOptions &options);

/**
 * Publish every component counter into @p registry under dotted
 * names ("l2.inst_misses", "backend.committed", ...). Existing
 * counters are overwritten (set, not accumulated), so the same
 * registry can be refreshed each sampler interval.
 */
void populateRegistry(stats::Registry &registry,
                      const cache::HierarchyStats &hierarchy,
                      const backend::BackendStats &backend,
                      const frontend::FrontEndStats &frontend);

/** Registry contents as one flat JSON object, sorted by name. */
stats::JsonValue registryJson(const stats::Registry &registry);

/**
 * Inverse of registryJson: rebuild a Registry from its flat JSON
 * object. Round-trips exactly (counter values are 64-bit integers).
 * @throws std::runtime_error on a non-object or non-integer member.
 */
stats::Registry registryFromJson(const stats::JsonValue &json);

/**
 * Inverse of Metrics::toJson, used by the sweep-result cache to
 * rehydrate on-disk entries. Strict: every field toJson writes must
 * be present with the right type (the derived "total_j" is checked
 * but not stored).
 * @throws std::runtime_error naming the missing or malformed field.
 */
Metrics metricsFromJson(const stats::JsonValue &json);

/**
 * Every trace category the simulator can emit, with the registry
 * counter whose end-of-window value equals the category's event
 * count (the reconciliation contract verified by
 * tests/test_observability.cpp).
 */
struct TraceCategory
{
    const char *name;     ///< JSONL "event" value.
    const char *counter;  ///< Matching registry counter name.
};

/** The full category table, in emission order. */
const std::vector<TraceCategory> &traceCategories();

/** Counter name for @p category; empty when unknown. */
std::string traceCategoryCounter(const std::string &category);

} // namespace emissary::core

#endif // EMISSARY_CORE_OBSERVABILITY_HH
