/**
 * @file
 * Per-run metrics: everything the paper's tables and figures report.
 */

#ifndef EMISSARY_CORE_METRICS_HH
#define EMISSARY_CORE_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "energy/model.hh"

namespace emissary::stats
{
class JsonValue;
}

namespace emissary::core
{

/** Results of one measured simulation window. */
struct Metrics
{
    std::string benchmark;
    std::string policy;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;

    // MPKI set (Fig. 3 and the Fig. 5 x-axes).
    double l1iMpki = 0.0;
    double l1dMpki = 0.0;
    double l2InstMpki = 0.0;
    double l2DataMpki = 0.0;
    double l3Mpki = 0.0;

    // Starvation signals (Fig. 1 / Fig. 5).
    std::uint64_t starvationCycles = 0;
    std::uint64_t starvationIqEmptyCycles = 0;

    // Commit-path stall decomposition (Fig. 6).
    std::uint64_t feStallCycles = 0;
    std::uint64_t beStallCycles = 0;
    std::uint64_t totalStallCycles = 0;

    // Fig. 1 secondary axes.
    double decodeRate = 0.0;  ///< Instrs per decode-active cycle.
    double issueRate = 0.0;   ///< Committed instrs per cycle (IPC).

    // Front-end behaviour.
    double condMispredictsPerKi = 0.0;
    double btbMissesPerKi = 0.0;

    // Energy (Fig. 7 bottom).
    energy::EnergyBreakdown energy;

    // EMISSARY internals (Fig. 8, §6).
    std::vector<double> priorityDistribution;  ///< Fraction per count.
    std::uint64_t highPriorityFills = 0;
    std::uint64_t priorityUpgrades = 0;

    // Workload characterization (Fig. 4).
    std::uint64_t codeFootprintLines = 0;

    /**
     * Whether the run kept a clock. Every exact or spliced run has
     * at least one cycle; a fused monitor lane counts cache events
     * but never sees the decode starvation its own policy would
     * cause, so it has none. An untimed run's ten clock-derived
     * fields (cycles, ipc, issueRate, decodeRate, the two starvation
     * counts, the three stall counts and energy) read 0, toJson
     * writes them as null, and tables print them as n/a.
     */
    bool timed() const { return cycles != 0; }

    /** Speedup of this run over @p baseline, as a fraction
     *  (0.0324 = +3.24%); 0 when this run is untimed. */
    double
    speedupOver(const Metrics &baseline) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(baseline.cycles) /
                   static_cast<double>(cycles) -
               1.0;
    }

    /** Energy saving over @p baseline as a fraction. */
    double
    energySavingOver(const Metrics &baseline) const
    {
        const double base = baseline.energy.total();
        if (base == 0.0)
            return 0.0;
        return 1.0 - energy.total() / base;
    }

    /** Every field as a JSON object (the --stats-json "metrics"
     *  section; defined in core/observability.cc). An untimed run
     *  writes its ten clock-derived keys as null. */
    stats::JsonValue toJson() const;
};

} // namespace emissary::core

#endif // EMISSARY_CORE_METRICS_HH
