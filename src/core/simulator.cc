#include "core/simulator.hh"

#include <stdexcept>
#include <utility>

#include "cache/lanes.hh"
#include "core/observability.hh"

namespace emissary::core
{

stats::TraceSink *
Simulator::TraceAdapter::sink() const
{
    return sim_.hierarchy_.warming() ? nullptr : sim_.traceSink_;
}

void
Simulator::TraceAdapter::onL2InstMiss(std::uint64_t line_addr)
{
    if (stats::TraceSink *out = sink())
        out->eventLine("l2_inst_miss", sim_.now_, line_addr);
}

void
Simulator::TraceAdapter::onStarvationCycle(std::uint64_t line_addr,
                                           std::uint64_t cycle)
{
    if (stats::TraceSink *out = sink())
        out->eventLine("starvation", cycle, line_addr);
}

void
Simulator::TraceAdapter::onL2Fill(std::uint64_t line_addr,
                                  bool is_instruction,
                                  bool high_priority)
{
    stats::TraceSink *out = sink();
    if (!out)
        return;
    stats::JsonValue fields = stats::JsonValue::object();
    fields.set("line", stats::JsonValue(line_addr));
    fields.set("instruction", stats::JsonValue(is_instruction));
    fields.set("priority", stats::JsonValue(high_priority));
    out->event("l2_fill", sim_.now_, fields);
}

void
Simulator::TraceAdapter::onL2Eviction(std::uint64_t line_addr,
                                      bool was_priority, bool dirty)
{
    stats::TraceSink *out = sink();
    if (!out)
        return;
    stats::JsonValue fields = stats::JsonValue::object();
    fields.set("line", stats::JsonValue(line_addr));
    fields.set("priority", stats::JsonValue(was_priority));
    fields.set("dirty", stats::JsonValue(dirty));
    out->event("l2_evict", sim_.now_, fields);
}

void
Simulator::TraceAdapter::onPriorityUpgrade(std::uint64_t line_addr)
{
    if (stats::TraceSink *out = sink())
        out->eventLine("priority_upgrade", sim_.now_, line_addr);
}

Simulator::Simulator(const Config &config, trace::TraceSource &source,
                     const frontend::PredictionStream *predictions)
    : config_(config),
      source_(source),
      hierarchy_(config.machine.hierarchy),
      frontend_(config.machine.frontend, source, hierarchy_, predictions),
      backend_(config.machine.backend, hierarchy_)
{
    backend_.setResolveCallback(
        [this](std::uint64_t seq, std::uint64_t cycle) {
            frontend_.onBranchResolved(seq, cycle);
        });
}

std::uint64_t
Simulator::committed() const
{
    return backend_.stats().committed;
}

void
Simulator::setTraceSink(stats::TraceSink *sink)
{
    traceSink_ = sink;
    hierarchy_.setObserver(sink != nullptr ? &traceAdapter_ : nullptr);
}

void
Simulator::exportRegistry(stats::Registry &registry) const
{
    populateRegistry(registry, hierarchy_.stats(), backend_.stats(),
                     frontend_.stats());
}

void
Simulator::takeSample()
{
    stats::Registry registry;
    exportRegistry(registry);
    stats::Sample sample;
    sample.instructions = committed();
    sample.cycles = backend_.stats().cycles;
    sample.counters = stats::Sampler::snapshotCounters(registry);
    sample.priorityOccupancy = hierarchy_.l2().priorityOccupancy();
    sampler_.record(std::move(sample));
}

void
Simulator::stepCycle()
{
    hierarchy_.tick(now_);
    backend_.executeStage(now_);
    backend_.commitStage(now_);
    // issueStage reads the pending line only to blame a starved
    // decode, i.e. when the decode queue is empty.
    backend_.issueStage(now_, decodeQueue_,
                        decodeQueue_.empty()
                            ? frontend_.pendingFetchLine(now_)
                            : std::nullopt);
    frontend_.fetch(now_, decodeQueue_);
    frontend_.prefetch(now_);
    frontend_.predict(now_);
    ++now_;
    ++stepped_;
}

void
Simulator::advance(std::uint64_t budget)
{
    // A cycle is idle when no stage can act in it: no fill is due, no
    // completion or commit, no dispatch, and predict, FDIP and fetch
    // have nothing to do. Its state changes are the per-cycle
    // counters alone, and the cycles up to the next event all add
    // the same ones, so they go in at once. The cheap tests go first:
    // most stepped cycles stop at one of them.
    std::uint64_t next = now_;
    if (decodeQueue_.empty() || !backend_.canAccept())
        next = std::min(
            frontend_.nextEvent(now_, decodeQueue_.size()),
            hierarchy_.nextFill());
    if (next > now_)
        next = std::max(now_, backend_.nextEvent(next));
    if (next > now_) {
        const std::uint64_t stop = std::min(next, budget + 1);
        const bool decode_empty = decodeQueue_.empty();
        backend_.idleCycles(now_, stop - now_, decode_empty,
                            decode_empty ? frontend_.pendingFetchLine(now_)
                                         : std::nullopt);
        now_ = stop;
        if (now_ > budget)
            return;
    }
    stepCycle();
}

void
Simulator::resetWindowStats()
{
    hierarchy_.stats().reset();
    backend_.stats().reset();
    frontend_.stats().reset();
    if (cache::PolicyLaneBank *lanes = hierarchy_.lanes())
        lanes->resetStats();
}

Metrics
composeMetrics(const MetricsInputs &inputs)
{
    const cache::HierarchyStats &hs = inputs.hierarchy;
    const backend::BackendStats &bs = inputs.backend;
    const frontend::FrontEndStats &fs = inputs.frontend;

    Metrics m;
    m.benchmark = inputs.benchmark;
    m.policy = inputs.policy;
    m.instructions = bs.committed;
    const double ki =
        static_cast<double>(m.instructions) / 1000.0;
    const double safe_ki = ki > 0.0 ? ki : 1.0;

    m.l1iMpki = static_cast<double>(hs.l1iMisses) / safe_ki;
    m.l1dMpki = static_cast<double>(hs.l1dMisses) / safe_ki;
    m.l2InstMpki = static_cast<double>(hs.l2InstMisses) / safe_ki;
    m.l2DataMpki = static_cast<double>(hs.l2DataMisses) / safe_ki;
    m.l3Mpki = static_cast<double>(hs.l3Misses) / safe_ki;

    m.condMispredictsPerKi =
        static_cast<double>(fs.condMispredicts) / safe_ki;
    m.btbMissesPerKi =
        static_cast<double>(fs.btbMisses) / safe_ki;

    m.priorityDistribution = inputs.priorityDistribution;
    m.highPriorityFills = hs.highPriorityFills;
    m.priorityUpgrades = hs.priorityUpgrades;

    // A window without cycles is a monitor lane's: untimed, so the
    // clock-derived fields stay 0 (Metrics::timed).
    if (bs.cycles == 0)
        return m;
    m.cycles = bs.cycles;
    m.ipc = static_cast<double>(m.instructions) /
            static_cast<double>(bs.cycles);
    m.starvationCycles = bs.starvationCycles;
    m.starvationIqEmptyCycles = bs.starvationIqEmptyCycles;
    m.feStallCycles = bs.feStallCycles;
    m.beStallCycles = bs.beStallCycles;
    m.totalStallCycles = bs.feStallCycles + bs.beStallCycles;
    m.decodeRate =
        bs.decodeActiveCycles > 0
            ? static_cast<double>(bs.issued) /
                  static_cast<double>(bs.decodeActiveCycles)
            : 0.0;
    m.issueRate = m.ipc;
    m.energy = energy::computeEnergy(hs, bs.cycles, m.instructions,
                                     inputs.emissaryBits);
    return m;
}

MetricsInputs
Simulator::collect() const
{
    MetricsInputs inputs;
    inputs.benchmark = source_.name();
    inputs.policy = hierarchy_.l2().policy().name();
    inputs.hierarchy = hierarchy_.stats();
    inputs.backend = backend_.stats();
    inputs.frontend = frontend_.stats();
    inputs.emissaryBits =
        hierarchy_.l2().spec().family ==
        replacement::PolicyFamily::EmissaryP;

    const auto hist = hierarchy_.l2().priorityDistribution();
    inputs.priorityDistribution.resize(hist.domain());
    for (std::size_t i = 0; i < hist.domain(); ++i)
        inputs.priorityDistribution[i] = hist.fraction(i);
    return inputs;
}

MetricsInputs
Simulator::collectLane(unsigned lane) const
{
    const cache::PolicyLaneBank *lanes = hierarchy_.lanes();
    if (!lanes || lane >= lanes->laneCount())
        throw std::invalid_argument("collectLane: no such lane");

    MetricsInputs inputs;
    inputs.benchmark = source_.name();
    inputs.policy = lanes->l2(lane).policy().name();
    inputs.hierarchy = lanes->laneStats(lane, hierarchy_.stats());
    // The shared stream's events are the lane's too; its cycles are
    // the timing lane's, so every cycle counter stays 0.
    const backend::BackendStats &shared = backend_.stats();
    inputs.backend.committed = shared.committed;
    inputs.backend.issued = shared.issued;
    inputs.backend.loads = shared.loads;
    inputs.backend.stores = shared.stores;
    inputs.backend.branchesResolved = shared.branchesResolved;
    inputs.frontend = frontend_.stats();
    inputs.emissaryBits =
        lanes->spec(lane).family ==
        replacement::PolicyFamily::EmissaryP;

    const auto hist = lanes->l2(lane).priorityDistribution();
    inputs.priorityDistribution.resize(hist.domain());
    for (std::size_t i = 0; i < hist.domain(); ++i)
        inputs.priorityDistribution[i] = hist.fraction(i);
    return inputs;
}

Metrics
Simulator::run()
{
    const std::uint64_t warmup = config_.warmupInstructions;
    const std::uint64_t measure = config_.measureInstructions;
    if (measure == 0)
        throw std::invalid_argument("Simulator: empty window");

    const std::uint64_t budget =
        config_.maxCycles > 0 ? config_.maxCycles
                              : 400 * (warmup + measure) + 1'000'000;

    // Warm-up phase in functional-warming mode: every cache,
    // predictor and priority-bit structure evolves exactly as a
    // counted run would, and leaving the mode discards the counters
    // it accumulated — so a chunk warmed over W records starts its
    // measure slice with clean counters over warmed state.
    hierarchy_.setWarming(true);
    frontend_.setWarming(true);
    while (committed() < warmup) {
        advance(budget);
        if (now_ > budget)
            throw std::runtime_error("Simulator: warm-up exceeded "
                                     "cycle budget");
    }
    hierarchy_.setWarming(false);
    frontend_.setWarming(false);
    resetWindowStats();
    lastPriorityReset_ = 0;
    if (onMeasureStart_)
        onMeasureStart_();
    sampler_ = stats::Sampler(config_.sampleInterval);

    // Only a stepped cycle commits, so the sampler and reset checks
    // below see every committed count they would stepping each cycle.
    while (committed() < measure) {
        advance(budget);
        if (sampler_.due(committed()))
            takeSample();
        if (config_.priorityResetInstructions > 0 &&
            committed() - lastPriorityReset_ >=
                config_.priorityResetInstructions) {
            hierarchy_.resetPriorities();
            lastPriorityReset_ = committed();
        }
        if (now_ > budget)
            throw std::runtime_error("Simulator: measurement exceeded "
                                     "cycle budget");
    }
    if (traceSink_ != nullptr)
        traceSink_->flush();
    return composeMetrics(collect());
}

} // namespace emissary::core
