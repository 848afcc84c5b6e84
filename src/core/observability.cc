#include "core/observability.hh"

#include <stdexcept>

namespace emissary::core
{

namespace
{

void
setCounter(stats::Registry &registry, const char *name,
           std::uint64_t value)
{
    stats::Counter &counter = registry.counter(name);
    counter.reset();
    counter.increment(value);
}

} // namespace

stats::JsonValue
runOptionsJson(const RunOptions &options)
{
    using stats::JsonValue;
    JsonValue config = JsonValue::object();
    config.set("warmup_instructions",
               JsonValue(options.warmupInstructions));
    config.set("measure_instructions",
               JsonValue(options.measureInstructions));
    config.set("fdip", JsonValue(options.fdip));
    config.set("next_line_prefetch",
               JsonValue(options.nextLinePrefetch));
    config.set("ideal_l2_inst", JsonValue(options.idealL2Inst));
    config.set("emissary_tree_plru",
               JsonValue(options.emissaryTreePlru));
    config.set("l1i_policy", JsonValue(options.l1iPolicy));
    config.set("bypass_low_priority_inst",
               JsonValue(options.bypassLowPriorityInst));
    config.set("priority_reset_instructions",
               JsonValue(options.priorityResetInstructions));
    config.set("time_chunks",
               JsonValue(static_cast<std::uint64_t>(
                   options.timeChunks)));
    config.set("chunk_warmup_records",
               JsonValue(options.chunkWarmupRecords));
    return config;
}

void
populateRegistry(stats::Registry &registry,
                 const cache::HierarchyStats &hierarchy,
                 const backend::BackendStats &backend,
                 const frontend::FrontEndStats &frontend)
{
    setCounter(registry, "l1i.accesses", hierarchy.l1iAccesses);
    setCounter(registry, "l1i.misses", hierarchy.l1iMisses);
    setCounter(registry, "l1d.accesses", hierarchy.l1dAccesses);
    setCounter(registry, "l1d.misses", hierarchy.l1dMisses);
    setCounter(registry, "l2.inst_accesses",
               hierarchy.l2InstAccesses);
    setCounter(registry, "l2.inst_misses", hierarchy.l2InstMisses);
    setCounter(registry, "l2.data_accesses",
               hierarchy.l2DataAccesses);
    setCounter(registry, "l2.data_misses", hierarchy.l2DataMisses);
    setCounter(registry, "l2.fills", hierarchy.l2Fills);
    setCounter(registry, "l2.evictions", hierarchy.l2Evictions);
    setCounter(registry, "l2.inst_hits_protected",
               hierarchy.l2InstHitsProtected);
    setCounter(registry, "l2.protected_evictions",
               hierarchy.l2ProtectedEvictions);
    setCounter(registry, "l2.priority_upgrades",
               hierarchy.priorityUpgrades);
    setCounter(registry, "l3.accesses", hierarchy.l3Accesses);
    setCounter(registry, "l3.misses", hierarchy.l3Misses);
    setCounter(registry, "dram.reads", hierarchy.dramReads);
    setCounter(registry, "dram.writes", hierarchy.dramWrites);
    setCounter(registry, "nlp.issued", hierarchy.nlpIssued);
    setCounter(registry, "l1i.high_priority_fills",
               hierarchy.highPriorityFills);
    setCounter(registry, "ideal.hidden_misses",
               hierarchy.idealCollapsedMisses);
    setCounter(registry, "starve.noted", hierarchy.starvationNotes);
    setCounter(registry, "starve.served_l2",
               hierarchy.starveCyclesL2);
    setCounter(registry, "starve.served_l3",
               hierarchy.starveCyclesL3);
    setCounter(registry, "starve.served_mem",
               hierarchy.starveCyclesMem);

    setCounter(registry, "backend.committed", backend.committed);
    setCounter(registry, "backend.issued", backend.issued);
    setCounter(registry, "backend.cycles", backend.cycles);
    setCounter(registry, "backend.fe_stall_cycles",
               backend.feStallCycles);
    setCounter(registry, "backend.be_stall_cycles",
               backend.beStallCycles);
    setCounter(registry, "backend.starvation_cycles",
               backend.starvationCycles);
    setCounter(registry, "backend.starvation_iq_empty_cycles",
               backend.starvationIqEmptyCycles);
    setCounter(registry, "backend.resteer_empty_cycles",
               backend.resteerEmptyCycles);
    setCounter(registry, "backend.decode_active_cycles",
               backend.decodeActiveCycles);
    setCounter(registry, "backend.issue_active_cycles",
               backend.issueActiveCycles);
    setCounter(registry, "backend.loads", backend.loads);
    setCounter(registry, "backend.stores", backend.stores);
    setCounter(registry, "backend.branches_resolved",
               backend.branchesResolved);

    setCounter(registry, "frontend.blocks_formed",
               frontend.blocksFormed);
    setCounter(registry, "frontend.cond_branches",
               frontend.condBranches);
    setCounter(registry, "frontend.cond_mispredicts",
               frontend.condMispredicts);
    setCounter(registry, "frontend.indirect_branches",
               frontend.indirectBranches);
    setCounter(registry, "frontend.indirect_mispredicts",
               frontend.indirectMispredicts);
    setCounter(registry, "frontend.returns", frontend.returns);
    setCounter(registry, "frontend.return_mispredicts",
               frontend.returnMispredicts);
    setCounter(registry, "frontend.btb_misses", frontend.btbMisses);
    setCounter(registry, "frontend.btb_miss_resteers",
               frontend.btbMissResteers);
    setCounter(registry, "frontend.fetched_instrs",
               frontend.fetchedInstrs);
    setCounter(registry, "frontend.fdip_requests",
               frontend.fdipRequests);
}

stats::JsonValue
registryJson(const stats::Registry &registry)
{
    stats::JsonValue out = stats::JsonValue::object();
    for (const std::string &name : registry.names())
        out.set(name, stats::JsonValue(registry.value(name)));
    return out;
}

stats::Registry
registryFromJson(const stats::JsonValue &json)
{
    if (!json.isObject())
        throw std::runtime_error(
            "registryFromJson: expected an object");
    stats::Registry registry;
    for (const auto &[name, value] : json.members()) {
        if (!value.isNumber())
            throw std::runtime_error(
                "registryFromJson: counter '" + name +
                "' is not a number");
        registry.counter(name).increment(value.asUint());
    }
    return registry;
}

namespace
{

const stats::JsonValue &
needField(const stats::JsonValue &json, const char *key)
{
    const stats::JsonValue *value = json.find(key);
    if (!value)
        throw std::runtime_error(
            std::string("metricsFromJson: missing field '") + key +
            "'");
    return *value;
}

std::uint64_t
uintOf(const stats::JsonValue &json, const char *key)
{
    const stats::JsonValue &value = needField(json, key);
    if (!value.isNumber())
        throw std::runtime_error(
            std::string("metricsFromJson: field '") + key +
            "' is not a number");
    return value.asUint();
}

double
doubleOf(const stats::JsonValue &json, const char *key)
{
    const stats::JsonValue &value = needField(json, key);
    if (!value.isNumber())
        throw std::runtime_error(
            std::string("metricsFromJson: field '") + key +
            "' is not a number");
    return value.asDouble();
}

} // namespace

Metrics
metricsFromJson(const stats::JsonValue &json)
{
    if (!json.isObject())
        throw std::runtime_error(
            "metricsFromJson: expected an object");
    Metrics m;
    const stats::JsonValue &benchmark = needField(json, "benchmark");
    const stats::JsonValue &policy = needField(json, "policy");
    if (!benchmark.isString() || !policy.isString())
        throw std::runtime_error("metricsFromJson: benchmark/policy "
                                 "must be strings");
    m.benchmark = benchmark.asString();
    m.policy = policy.asString();
    m.instructions = uintOf(json, "instructions");
    m.l1iMpki = doubleOf(json, "l1i_mpki");
    m.l1dMpki = doubleOf(json, "l1d_mpki");
    m.l2InstMpki = doubleOf(json, "l2_inst_mpki");
    m.l2DataMpki = doubleOf(json, "l2_data_mpki");
    m.l3Mpki = doubleOf(json, "l3_mpki");
    m.condMispredictsPerKi =
        doubleOf(json, "cond_mispredicts_per_ki");
    m.btbMissesPerKi = doubleOf(json, "btb_misses_per_ki");

    const stats::JsonValue &distribution =
        needField(json, "priority_distribution");
    if (!distribution.isArray())
        throw std::runtime_error(
            "metricsFromJson: priority_distribution must be an "
            "array");
    m.priorityDistribution.reserve(distribution.size());
    for (std::size_t i = 0; i < distribution.size(); ++i)
        m.priorityDistribution.push_back(
            distribution.at(i).asDouble());
    m.highPriorityFills = uintOf(json, "high_priority_fills");
    m.priorityUpgrades = uintOf(json, "priority_upgrades");
    m.codeFootprintLines = uintOf(json, "code_footprint_lines");

    // An untimed run writes its clock-derived keys as null: the keys
    // that toJson of the untimed struct parsed so far writes as null.
    // They read back as 0; a partly-null set is malformed.
    if (needField(json, "cycles").isNull()) {
        const stats::JsonValue untimed = m.toJson();
        for (const auto &[key, value] : untimed.members())
            if (value.isNull() && !needField(json, key.c_str()).isNull())
                throw std::runtime_error(
                    "metricsFromJson: field '" + key +
                    "' must be null when 'cycles' is null");
        return m;
    }
    m.cycles = uintOf(json, "cycles");
    m.ipc = doubleOf(json, "ipc");
    m.starvationCycles = uintOf(json, "starvation_cycles");
    m.starvationIqEmptyCycles =
        uintOf(json, "starvation_iq_empty_cycles");
    m.feStallCycles = uintOf(json, "fe_stall_cycles");
    m.beStallCycles = uintOf(json, "be_stall_cycles");
    m.totalStallCycles = uintOf(json, "total_stall_cycles");
    m.decodeRate = doubleOf(json, "decode_rate");
    m.issueRate = doubleOf(json, "issue_rate");

    const stats::JsonValue &energy = needField(json, "energy");
    m.energy.coreDynamicJ = doubleOf(energy, "core_dynamic_j");
    m.energy.cacheDynamicJ = doubleOf(energy, "cache_dynamic_j");
    m.energy.dramJ = doubleOf(energy, "dram_j");
    m.energy.leakageJ = doubleOf(energy, "leakage_j");
    needField(energy, "total_j");
    return m;
}

const std::vector<TraceCategory> &
traceCategories()
{
    static const std::vector<TraceCategory> categories = {
        {"l2_inst_miss", "l2.inst_misses"},
        {"l2_fill", "l2.fills"},
        {"l2_evict", "l2.evictions"},
        {"priority_upgrade", "l2.priority_upgrades"},
        {"starvation", "starve.noted"},
    };
    return categories;
}

std::string
traceCategoryCounter(const std::string &category)
{
    for (const TraceCategory &entry : traceCategories())
        if (category == entry.name)
            return entry.counter;
    return {};
}

stats::JsonValue
Metrics::toJson() const
{
    using stats::JsonValue;
    // An untimed run's clock-derived keys are null, not 0.
    const auto clock = [timed = timed()](auto value) {
        return timed ? JsonValue(value) : JsonValue();
    };
    JsonValue out = JsonValue::object();
    out.set("benchmark", JsonValue(benchmark));
    out.set("policy", JsonValue(policy));
    out.set("instructions", JsonValue(instructions));
    out.set("cycles", clock(cycles));
    out.set("ipc", clock(ipc));
    out.set("l1i_mpki", JsonValue(l1iMpki));
    out.set("l1d_mpki", JsonValue(l1dMpki));
    out.set("l2_inst_mpki", JsonValue(l2InstMpki));
    out.set("l2_data_mpki", JsonValue(l2DataMpki));
    out.set("l3_mpki", JsonValue(l3Mpki));
    out.set("starvation_cycles", clock(starvationCycles));
    out.set("starvation_iq_empty_cycles",
            clock(starvationIqEmptyCycles));
    out.set("fe_stall_cycles", clock(feStallCycles));
    out.set("be_stall_cycles", clock(beStallCycles));
    out.set("total_stall_cycles", clock(totalStallCycles));
    out.set("decode_rate", clock(decodeRate));
    out.set("issue_rate", clock(issueRate));
    out.set("cond_mispredicts_per_ki",
            JsonValue(condMispredictsPerKi));
    out.set("btb_misses_per_ki", JsonValue(btbMissesPerKi));

    JsonValue energy_json = JsonValue::object();
    energy_json.set("core_dynamic_j", JsonValue(energy.coreDynamicJ));
    energy_json.set("cache_dynamic_j",
                    JsonValue(energy.cacheDynamicJ));
    energy_json.set("dram_j", JsonValue(energy.dramJ));
    energy_json.set("leakage_j", JsonValue(energy.leakageJ));
    energy_json.set("total_j", JsonValue(energy.total()));
    out.set("energy", timed() ? std::move(energy_json) : JsonValue());

    JsonValue distribution = JsonValue::array();
    for (const double fraction : priorityDistribution)
        distribution.push(JsonValue(fraction));
    out.set("priority_distribution", std::move(distribution));
    out.set("high_priority_fills", JsonValue(highPriorityFills));
    out.set("priority_upgrades", JsonValue(priorityUpgrades));
    out.set("code_footprint_lines", JsonValue(codeFootprintLines));
    return out;
}

} // namespace emissary::core
