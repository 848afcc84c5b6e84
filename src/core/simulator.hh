/**
 * @file
 * The cycle-level simulator: hierarchy + decoupled front-end +
 * out-of-order back-end driven by a committed-path trace source.
 *
 * Public API entry point: construct with a MachineConfig and a
 * TraceSource, call run(), read the Metrics.
 */

#ifndef EMISSARY_CORE_SIMULATOR_HH
#define EMISSARY_CORE_SIMULATOR_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "backend/backend.hh"
#include "cache/hierarchy.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "frontend/frontend.hh"
#include "stats/registry.hh"
#include "stats/sampler.hh"
#include "stats/trace_sink.hh"
#include "trace/record.hh"

namespace emissary::core
{

/**
 * Raw inputs from which one run's (or one lane's, or one spliced
 * time-parallel run's) Metrics are composed. Every derived number in
 * Metrics is a pure function of these fields, so summing the stats
 * structs of N window slices and composing once yields the exact
 * whole-window derivation — the splice rule of the time-parallel
 * scheduler (core::run). The window's cycles are backend.cycles; a
 * monitor lane's are 0, which makes its Metrics untimed
 * (Metrics::timed).
 */
struct MetricsInputs
{
    std::string benchmark;
    std::string policy;
    cache::HierarchyStats hierarchy;
    backend::BackendStats backend;
    frontend::FrontEndStats frontend;
    /** Policy keeps EMISSARY P bits (energy model surcharge). */
    bool emissaryBits = false;
    /** End-of-window L2 priority-distribution fractions. */
    std::vector<double> priorityDistribution;
};

/** Derive a Metrics record from raw window counters. */
Metrics composeMetrics(const MetricsInputs &inputs);

/** A complete simulated machine bound to one workload. */
class Simulator
{
  public:
    struct Config
    {
        MachineConfig machine;
        /** Committed instructions before the measurement window. */
        std::uint64_t warmupInstructions = 500'000;
        /** Committed instructions measured. */
        std::uint64_t measureInstructions = 2'000'000;
        /** §6 reset: clear priority bits every this many committed
         *  instructions (0 = never). */
        std::uint64_t priorityResetInstructions = 0;
        /** Hard cycle cap (safety net against pathological configs;
         *  0 = derive from instruction budget). */
        std::uint64_t maxCycles = 0;
        /** Observability: snapshot the counter registry and the L2
         *  priority-bit occupancy every this many committed
         *  instructions of the measurement window (0 = off). */
        std::uint64_t sampleInterval = 0;
    };

    /** @param predictions Block outcomes of @p source's stream from
     *  its first record, replayed instead of predicted (not owned;
     *  nullptr = predict inline; see frontend::FrontEnd). */
    Simulator(const Config &config, trace::TraceSource &source,
              const frontend::PredictionStream *predictions = nullptr);

    /** Warm up, measure, and return the window's metrics. */
    Metrics run();

    /** Callback fired when the measurement window begins (after the
     *  warm-up stats reset) — lets observers scope to the window. */
    void
    setOnMeasureStart(std::function<void()> callback)
    {
        onMeasureStart_ = std::move(callback);
    }

    /**
     * Advance one cycle: every stage runs once. run() calls it only
     * for cycles in which some stage can act and adds the idle
     * cycles between them in bulk, with the same counters and
     * events; stepping every cycle is the oracle for that.
     */
    void stepCycle();

    /**
     * Attach a JSONL event sink (nullptr to detach). Claims the
     * hierarchy's observer slot; events are emitted only outside
     * functional warming, i.e. inside the measurement window, so
     * per-category counts reconcile exactly with the window's
     * registry counters.
     */
    void setTraceSink(stats::TraceSink *sink);

    /** Interval snapshots collected so far (sampleInterval > 0). */
    const stats::Sampler &sampler() const { return sampler_; }

    /** Publish the current component counters into @p registry
     *  under their dotted names (core/observability.hh). */
    void exportRegistry(stats::Registry &registry) const;

    /** Raw inputs of the last measurement window's Metrics (what
     *  run() composes). Valid after run(). */
    MetricsInputs collect() const;

    cache::Hierarchy &hierarchy() { return hierarchy_; }
    frontend::FrontEnd &frontEnd() { return frontend_; }
    backend::Backend &backend() { return backend_; }
    std::uint64_t now() const { return now_; }
    /** Cycles simulated by stepCycle; now() minus this is the
     *  cycles run() added in bulk. */
    std::uint64_t steppedCycles() const { return stepped_; }
    std::uint64_t committed() const;

  private:
    /** HierarchyObserver → TraceSink adapter, silent while the
     *  hierarchy warms. */
    class TraceAdapter : public cache::HierarchyObserver
    {
      public:
        explicit TraceAdapter(Simulator &sim) : sim_(sim) {}

        void onL2InstMiss(std::uint64_t line_addr) override;
        void onStarvationCycle(std::uint64_t line_addr,
                               std::uint64_t cycle) override;
        void onL2Fill(std::uint64_t line_addr, bool is_instruction,
                      bool high_priority) override;
        void onL2Eviction(std::uint64_t line_addr, bool was_priority,
                          bool dirty) override;
        void onPriorityUpgrade(std::uint64_t line_addr) override;

      private:
        /** The sink to write to, or nullptr while warming. */
        stats::TraceSink *sink() const;

        Simulator &sim_;
    };

    /**
     * Fast-forward over the idle cycles before the next cycle in
     * which some stage can act, then step that cycle. Stops at
     * @p budget + 1 instead when nothing can act before it, so the
     * caller's budget check fires at the cycle it would have
     * stepping.
     */
    void advance(std::uint64_t budget);

    void resetWindowStats();
    void takeSample();

    Config config_;
    trace::TraceSource &source_;
    cache::Hierarchy hierarchy_;
    frontend::FrontEnd frontend_;
    backend::Backend backend_;
    std::deque<DynInst> decodeQueue_;
    std::uint64_t now_ = 0;
    std::uint64_t stepped_ = 0;
    std::uint64_t lastPriorityReset_ = 0;
    std::function<void()> onMeasureStart_;
    stats::Sampler sampler_;
    stats::TraceSink *traceSink_ = nullptr;
    TraceAdapter traceAdapter_{*this};
};

} // namespace emissary::core

#endif // EMISSARY_CORE_SIMULATOR_HH
