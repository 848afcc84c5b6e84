/**
 * @file
 * A fused pass the way core::runGrid runs one, for tests that compare
 * its lanes side by side: core::run under the first policy records
 * the pass's feed, and core::replayMonitor replays that feed once per
 * later policy.
 */

#ifndef EMISSARY_TESTS_FUSED_PASS_HH
#define EMISSARY_TESTS_FUSED_PASS_HH

#include <memory>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "stats/registry.hh"

namespace emissary::test
{

/**
 * One Metrics per policy of @p lanes, in order: lanes[0] is the
 * timing lane, every later policy a monitor lane with 1-in-
 * @p sampled_sets set sampling (0 = every set). @p registries, when
 * set, receives one registry per lane.
 */
inline std::vector<core::Metrics>
runFusedPass(const core::RunSource &source,
             const std::vector<replacement::PolicySpec> &lanes,
             unsigned sampled_sets, const replacement::PolicySpec &l1i,
             const core::RunOptions &options,
             core::ThreadPool *pool = nullptr,
             std::vector<stats::Registry> *registries = nullptr)
{
    std::shared_ptr<const core::MonitorFeed> feed;
    core::RunTelemetry report;
    std::vector<core::Metrics> metrics{
        core::run(source, lanes.front(), l1i, options,
                  lanes.size() > 1 ? &feed : nullptr, pool, &report)};
    std::vector<stats::Registry> lane_registries;
    lane_registries.push_back(std::move(report.registry));
    for (std::size_t lane = 1; lane < lanes.size(); ++lane) {
        core::RunTelemetry monitor;
        metrics.push_back(core::replayMonitor(*feed, lanes[lane],
                                              sampled_sets, &monitor));
        lane_registries.push_back(std::move(monitor.registry));
    }
    if (registries)
        *registries = std::move(lane_registries);
    return metrics;
}

} // namespace emissary::test

#endif // EMISSARY_TESTS_FUSED_PASS_HH
