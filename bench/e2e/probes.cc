/**
 * @file
 * Layer probes of a traced run. Each times calls into one module's
 * public classes on the first records of the workload's own stream
 * and reports the best of five repetitions, so the number tracks
 * the layer's code rather than machine noise. The modes probe runs
 * the workload's first row through every execution mode of runGrid
 * and reports each approximate mode's speed and error; the service
 * probe drives an in-process SweepService and its ResultCache with
 * a request for the same row.
 */

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "backend/backend.hh"
#include "bench/e2e/harness.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "core/buildinfo.hh"
#include "core/config.hh"
#include "core/threadpool.hh"
#include "frontend/btb.hh"
#include "frontend/ittage.hh"
#include "frontend/tage.hh"
#include "replacement/spec.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "service/service.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "workload/emtc.hh"

namespace emissary::e2e
{

using stats::JsonValue;

namespace
{

constexpr int kReps = 5;
constexpr std::size_t kBatch = 256;

/** Best of kReps runs of @p timed, which returns its own seconds
 *  (so per-rep setup stays outside the measurement). */
double
bestSeconds(const std::function<double()> &timed)
{
    double best = timed();
    for (int rep = 1; rep < kReps; ++rep)
        best = std::min(best, timed());
    return best;
}

double
timeIt(const std::function<void()> &body)
{
    const auto start = Clock::now();
    body();
    return secondsSince(start);
}

/** Keeps probe results observable so the timed loops are not
 *  optimised away. */
volatile std::uint64_t g_sink = 0;

struct Access
{
    std::uint64_t line;
    bool instruction;
};

bool
cacheAccess(cache::Cache &array, std::uint64_t line, bool instruction)
{
    if (array.peek(line)) {
        array.touch(line);
        return true;
    }
    array.insert(line, replacement::LineInfo{instruction, false, false},
                 instruction, false, false, false);
    return false;
}

core::MachineConfig
machineFor(const std::string &l2_policy)
{
    core::MachineOptions options;
    options.l2Policy = l2_policy;
    return core::alderlakeConfig(options);
}

/** An emissary.request.v1 sweep of @p row under @p policies. */
std::string
sweepRequest(const core::GridWorkload &row,
             const std::vector<std::string> &policies,
             std::uint64_t warmup, std::uint64_t measure,
             std::uint64_t config_seed)
{
    JsonValue entry = JsonValue::object();
    entry.set("name", JsonValue(row.name));
    if (row.traceBacked()) {
        JsonValue trace_doc = JsonValue::object();
        trace_doc.set("path", JsonValue(row.tracePath));
        entry.set("trace", std::move(trace_doc));
    } else {
        JsonValue synthetic = JsonValue::object();
        synthetic.set("profile", JsonValue(row.profile.name));
        synthetic.set("seed", JsonValue(row.profile.seed));
        entry.set("synthetic", std::move(synthetic));
    }
    JsonValue workloads = JsonValue::array();
    workloads.push(std::move(entry));
    JsonValue catalog = JsonValue::object();
    catalog.set("schema", JsonValue("emissary.catalog.v1"));
    catalog.set("workloads", std::move(workloads));
    JsonValue policy_list = JsonValue::array();
    for (const std::string &policy : policies)
        policy_list.push(JsonValue(policy));
    JsonValue run_config = JsonValue::object();
    run_config.set("warmup_instructions", JsonValue(warmup));
    run_config.set("measure_instructions", JsonValue(measure));
    run_config.set("seed", JsonValue(config_seed));
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("emissary.request.v1"));
    doc.set("id", JsonValue("probe"));
    doc.set("op", JsonValue("sweep"));
    doc.set("catalog", std::move(catalog));
    doc.set("policies", std::move(policy_list));
    doc.set("config", std::move(run_config));
    return doc.dump(0);
}

const std::vector<std::pair<std::string, std::string>> &
probePolicies()
{
    static const std::vector<std::pair<std::string, std::string>> list =
        {{"tplru", "TPLRU"},
         {"lru", "LRU"},
         {"emissary", "P(8):S&E&R(1/32)"},
         {"drrip", "DRRIP"},
         {"pdp", "PDP"}};
    return list;
}

class Prober
{
  public:
    Prober(const RunConfig &config, const ProbeInput &input,
           stats::SpanRecorder &recorder, Outcome &outcome)
        : config_(config), input_(input), recorder_(recorder),
          m_(outcome.metrics), outcome_(outcome),
          records_(config.smoke ? 50'000 : 1'000'000)
    {
    }

    void
    run(const core::PolicyGrid *own_grid,
        const core::GridResults *own_results)
    {
        step("trace", [&] { traceProbe(); });
        step("workload", [&] { workloadProbe(); });
        step("frontend", [&] { frontendProbe(); });
        step("cache", [&] { cacheProbe(); });
        step("replacement", [&] { replacementProbe(); });
        step("backend", [&] { backendProbe(); });
        step("modes", [&] { modesProbe(); });
        step("service", [&] { serviceProbe(); });
        step("stats", [&] { statsProbe(own_grid, own_results); });
    }

  private:
    void
    step(const char *name, const std::function<void()> &probe)
    {
        stats::ScopedTimer span(&recorder_, "probe");
        span.arg("layer", JsonValue(name));
        probe();
    }

    double
    perRecord(double seconds) const
    {
        return 1e9 * seconds / static_cast<double>(records_);
    }

    // ---- trace: generation and replay of the committed stream --------
    void
    traceProbe()
    {
        program_ = std::make_shared<trace::SyntheticProgram>(
            input_.profile);
        m_["trace.synth_ns_per_rec"] = perRecord(bestSeconds([&] {
            return timeIt([&] {
                trace::RecordBuffer buffer(*program_, records_);
                g_sink = g_sink + buffer.size();
            });
        }));
        // The workload's own stream: its trace file, or the program.
        if (input_.row.traceBacked()) {
            workload::PackedTraceSource source(input_.row.tracePath);
            buffer_ = std::make_shared<const trace::RecordBuffer>(
                source, records_, trace::RecordBuffer::TailFactory{});
        } else {
            buffer_ = std::make_shared<const trace::RecordBuffer>(
                *program_, records_);
        }
        records_ = buffer_->size();
        recs_.resize(records_);
        for (std::uint64_t i = 0; i < records_; ++i)
            recs_[i] = buffer_->record(i);

        std::vector<trace::TraceRecord> batch(kBatch);
        m_["trace.replay_fill_ns_per_rec"] = perRecord(bestSeconds([&] {
            trace::ReplayCursor cursor(buffer_);
            return timeIt([&] {
                for (std::uint64_t done = 0; done + kBatch <= records_;
                     done += kBatch)
                    cursor.fill(batch.data(), kBatch);
                g_sink = g_sink + batch.back().pc;
            });
        }));
    }

    // ---- workload: EMTC pack and decode --------------------------------
    void
    workloadProbe()
    {
        const std::string path = config_.out + "/probe.emtc";
        m_["workload.emtc_pack_ns_per_rec"] = perRecord(bestSeconds([&] {
            return timeIt([&] {
                workload::PackedTraceWriter writer(path, "probe");
                writer.append(recs_.data(), recs_.size());
                writer.finish();
            });
        }));
        m_["workload.emtc_bytes_per_rec"] =
            static_cast<double>(workload::readTraceInfo(path).fileBytes) /
            static_cast<double>(records_);
        std::vector<trace::TraceRecord> batch(kBatch);
        m_["workload.emtc_decode_ns_per_rec"] =
            perRecord(bestSeconds([&] {
                workload::PackedTraceSource source(path);
                return timeIt([&] {
                    for (std::uint64_t done = 0; done + kBatch <= records_;
                         done += kBatch)
                        source.fill(batch.data(), kBatch);
                    g_sink = g_sink + batch.back().pc;
                });
            }));
    }

    // ---- frontend: predictors and BTB ----------------------------------
    void
    frontendProbe()
    {
        // The stream's control events, extracted before timing so the
        // loops below hold only predictor calls.
        struct Branch
        {
            std::uint64_t pc;
            std::uint64_t target;
            bool conditional;
            bool taken;
        };
        std::vector<Branch> branches;
        std::vector<Branch> indirect;
        std::vector<frontend::BtbEntry> blocks;
        std::uint64_t block_start = recs_.front().pc;
        std::uint16_t block_count = 0;
        for (const trace::TraceRecord &rec : recs_) {
            ++block_count;
            if (!trace::isControl(rec.cls))
                continue;
            const bool conditional =
                rec.cls == trace::InstClass::CondBranch;
            branches.push_back({rec.pc, rec.nextPc, conditional, rec.taken});
            if (rec.cls == trace::InstClass::IndirectJump ||
                rec.cls == trace::InstClass::IndirectCall)
                indirect.push_back({rec.pc, rec.nextPc, false, true});
            // A block ends at each control instruction; the next one
            // starts at its successor.
            blocks.push_back(frontend::BtbEntry{block_start, block_count,
                                                rec.cls, rec.nextPc});
            block_start = rec.nextPc;
            block_count = 0;
        }
        const auto per = [](double seconds, std::size_t n) {
            return 1e9 * seconds /
                   static_cast<double>(std::max<std::size_t>(n, 1));
        };

        std::uint64_t conditional = 0;
        std::uint64_t mispredicts = 0;
        const double tage = bestSeconds([&] {
            frontend::Tage predictor;
            conditional = 0;
            mispredicts = 0;
            return timeIt([&] {
                for (const Branch &b : branches) {
                    if (!b.conditional) {
                        predictor.updateUnconditional(b.pc);
                        continue;
                    }
                    ++conditional;
                    mispredicts += predictor.predict(b.pc) != b.taken;
                    predictor.update(b.pc, b.taken);
                }
            });
        });
        m_["frontend.tage_ns_per_branch"] = per(tage, conditional);
        m_["frontend.tage_mispredicts_per_ki"] =
            1000.0 * static_cast<double>(mispredicts) /
            static_cast<double>(records_);

        const double ittage = bestSeconds([&] {
            frontend::Ittage predictor;
            return timeIt([&] {
                std::uint64_t sum = 0;
                for (const Branch &b : indirect) {
                    sum += predictor.predict(b.pc, 0);
                    predictor.update(b.pc, b.target);
                }
                g_sink = g_sink + sum;
            });
        });
        m_["frontend.ittage_ns_per_branch"] = per(ittage, indirect.size());

        const core::MachineConfig machine = machineFor("TPLRU");
        std::uint64_t hits = 0;
        const double btb = bestSeconds([&] {
            frontend::BasicBlockBtb table(machine.frontend.btbEntries,
                                          machine.frontend.btbWays);
            hits = 0;
            return timeIt([&] {
                for (const frontend::BtbEntry &block : blocks) {
                    if (table.lookup(block.startPc))
                        ++hits;
                    else
                        table.install(block);
                }
            });
        });
        m_["frontend.btb_ns_per_lookup"] = per(btb, blocks.size());
        m_["frontend.btb_hit_rate"] =
            static_cast<double>(hits) /
            static_cast<double>(std::max<std::size_t>(blocks.size(), 1));
    }

    // ---- cache: tag compare, L1I, L2 under three policies ---------------
    void
    cacheProbe()
    {
        const core::MachineConfig machine = machineFor("TPLRU");
        // The L1 miss stream feeding the L2, in program order.
        std::vector<std::uint64_t> fetch_lines;
        {
            cache::Cache l1i(machine.hierarchy.l1i);
            cache::Cache l1d(machine.hierarchy.l1d);
            std::uint64_t last = ~std::uint64_t{0};
            for (const trace::TraceRecord &rec : recs_) {
                const std::uint64_t line = rec.pc >> 6;
                if (line != last) {
                    fetch_lines.push_back(line);
                    if (!cacheAccess(l1i, line, true))
                        l2Stream_.push_back({line, true});
                    last = line;
                }
                if (trace::isMemory(rec.cls) &&
                    !cacheAccess(l1d, rec.memAddr >> 6, false))
                    l2Stream_.push_back({rec.memAddr >> 6, false});
            }
        }

        for (const unsigned ways : {8u, 16u}) {
            constexpr unsigned kSets = 512;
            std::vector<std::uint64_t> tags(kSets * ways,
                                             ~std::uint64_t{0});
            for (const Access &access : l2Stream_) {
                std::uint64_t *set = &tags[(access.line % kSets) * ways];
                const std::uint64_t tag = access.line / kSets;
                for (unsigned w = 0; w < ways; ++w) {
                    if (set[w] == tag)
                        break;
                    if (set[w] == ~std::uint64_t{0}) {
                        set[w] = tag;
                        break;
                    }
                }
            }
            for (const bool vector : {false, true}) {
                const double seconds = bestSeconds([&] {
                    return timeIt([&] {
                        std::int64_t sum = 0;
                        for (const std::uint64_t line : fetch_lines) {
                            const std::uint64_t *set =
                                &tags[(line % kSets) * ways];
                            sum += vector
                                       ? cache::Cache::findWayVector(
                                             set, ways, line / kSets)
                                       : cache::Cache::findWayScalar(
                                             set, ways, line / kSets);
                        }
                        g_sink = g_sink + static_cast<std::uint64_t>(sum);
                    });
                });
                m_[std::string("cache.findway_ns.") +
                   (vector ? "vector" : "scalar") + ".w" +
                   std::to_string(ways)] =
                    1e9 * seconds /
                    static_cast<double>(fetch_lines.size());
            }
        }

        std::uint64_t l1i_hits = 0;
        const double l1i = bestSeconds([&] {
            cache::Cache array(machine.hierarchy.l1i);
            l1i_hits = 0;
            return timeIt([&] {
                for (const std::uint64_t line : fetch_lines)
                    l1i_hits += cacheAccess(array, line, true);
            });
        });
        m_["cache.l1i_ns_per_access"] =
            1e9 * l1i / static_cast<double>(fetch_lines.size());
        m_["cache.l1i_hit_rate"] = static_cast<double>(l1i_hits) /
                                   static_cast<double>(fetch_lines.size());

        for (const auto &[key, policy] : probePolicies()) {
            if (key == "lru" || key == "pdp")
                continue; // Replacement probe covers these families.
            const core::MachineConfig l2_machine = machineFor(policy);
            std::uint64_t l2_hits = 0;
            const double seconds = bestSeconds([&] {
                cache::Cache array(l2_machine.hierarchy.l2);
                l2_hits = 0;
                return timeIt([&] {
                    for (const Access &access : l2Stream_)
                        l2_hits += cacheAccess(array, access.line,
                                               access.instruction);
                });
            });
            const double n = static_cast<double>(
                std::max<std::size_t>(l2Stream_.size(), 1));
            m_["cache.l2_ns_per_access." + key] = 1e9 * seconds / n;
            m_["cache.l2_hit_rate." + key] =
                static_cast<double>(l2_hits) / n;
        }
    }

    // ---- replacement: victim choice and bookkeeping on full sets ------
    void
    replacementProbe()
    {
        constexpr unsigned kSets = 1024;
        constexpr unsigned kWays = 16;
        for (const auto &[key, policy] : probePolicies()) {
            const replacement::PolicySpec spec =
                replacement::PolicySpec::parse(policy);
            const double seconds = bestSeconds([&] {
                auto repl = replacement::makePolicy(spec, kSets, kWays);
                std::vector<std::uint64_t> tags(kSets * kWays,
                                                ~std::uint64_t{0});
                return timeIt([&] {
                    for (const Access &access : l2Stream_) {
                        const unsigned set = static_cast<unsigned>(
                            access.line % kSets);
                        std::uint64_t *ways = &tags[set * kWays];
                        const std::uint64_t tag = access.line / kSets;
                        const replacement::LineInfo info{
                            access.instruction, false, false};
                        unsigned way = 0;
                        while (way < kWays && ways[way] != tag &&
                               ways[way] != ~std::uint64_t{0})
                            ++way;
                        if (way < kWays && ways[way] == tag) {
                            repl->onHit(set, way, info);
                            continue;
                        }
                        if (way == kWays) {
                            repl->onMiss(set);
                            way = repl->selectVictim(set);
                        }
                        ways[way] = tag;
                        repl->onInsert(set, way, info);
                    }
                });
            });
            m_["replacement.ns_per_access." + key] =
                1e9 * seconds /
                static_cast<double>(
                    std::max<std::size_t>(l2Stream_.size(), 1));
        }
    }

    // ---- backend: issue/execute/commit over the memory hierarchy -------
    void
    backendProbe()
    {
        const core::MachineConfig machine = machineFor("TPLRU");
        const std::uint64_t target = records_ / 4;
        std::uint64_t committed = 0;
        const double seconds = bestSeconds([&] {
            cache::Hierarchy hierarchy(machine.hierarchy);
            backend::Backend pipeline(machine.backend, hierarchy);
            pipeline.setResolveCallback([](std::uint64_t, std::uint64_t) {});
            std::deque<core::DynInst> queue;
            return timeIt([&] {
                std::uint64_t next = 0;
                for (std::uint64_t now = 0;
                     pipeline.stats().committed < target &&
                     now < 100 * target;
                     ++now) {
                    hierarchy.tick(now);
                    pipeline.executeStage(now);
                    pipeline.commitStage(now);
                    while (queue.size() < 64 && next < recs_.size()) {
                        queue.push_back(core::DynInst{recs_[next], next,
                                                      false});
                        ++next;
                    }
                    pipeline.issueStage(now, queue, std::nullopt);
                }
                committed = pipeline.stats().committed;
            });
        });
        m_["backend.ns_per_inst"] =
            1e9 * seconds /
            static_cast<double>(std::max<std::uint64_t>(committed, 1));
    }

    // ---- modes: exact vs fused vs sampled vs time-parallel --------------
    void
    modesProbe()
    {
        core::RunOptions options;
        options.warmupInstructions = config_.smoke ? 10'000 : 250'000;
        options.measureInstructions = config_.smoke ? 30'000 : 1'000'000;
        modesGrid_ = core::PolicyGrid::sweep(
            std::vector<core::GridWorkload>{input_.row},
            requestPolicies(), options);
        core::ThreadPool pool(workerCount());

        // Host CPU seconds of a runGrid call, best of three: the work
        // a mode costs, independent of how many workers a one-row grid
        // can use. Results repeat exactly, so any run's cells serve.
        const auto timed = [&](const core::PolicyGrid &grid,
                               const core::GridOptions &grid_options,
                               stats::SpanRecorder *spans, double &cpu) {
            std::unique_ptr<core::GridResults> results;
            cpu = 0.0;
            for (int rep = 0; rep < 3; ++rep) {
                const double cpu0 = processCpuSeconds();
                results = std::make_unique<core::GridResults>(core::runGrid(
                    grid, pool, grid_options, {}, rep == 0 ? spans : nullptr));
                const double used = processCpuSeconds() - cpu0;
                cpu = rep == 0 ? used : std::min(cpu, used);
            }
            return std::move(*results);
        };
        double exact_cpu = 0.0;
        modesExact_ = std::make_unique<core::GridResults>(
            timed(modesGrid_, {}, nullptr, exact_cpu));
        const CellOracle exact = cellsOf(*modesExact_);
        const auto report = [&](const std::string &mode,
                                const core::GridResults &results,
                                double cpu) {
            const ModeError error = modeError(cellsOf(results), exact);
            m_["modes." + mode + ".speedup_err_pp"] = error.speedupErrPp;
            m_["modes." + mode + ".ipc_err_pct"] = error.ipcErrPct;
            m_["modes." + mode + ".l2i_mpki_err"] = error.l2iMpkiErr;
            m_["modes." + mode + ".work_ratio"] = cpu / exact_cpu;
        };

        core::GridOptions fused;
        fused.fused = true;
        double cpu = 0.0;
        const core::GridResults fused_results =
            timed(modesGrid_, fused, nullptr, cpu);
        report("fused", fused_results, cpu);
        const double fused_cpu = cpu;

        core::GridOptions sampled = fused;
        sampled.sampledSets = 8;
        const core::GridResults sampled_results =
            timed(modesGrid_, sampled, nullptr, cpu);
        report("sampled", sampled_results, cpu);

        core::PolicyGrid chunked_grid = modesGrid_;
        for (core::RunSpec &run : chunked_grid.runs) {
            run.options.timeChunks = 4;
            run.options.chunkWarmupRecords = options.warmupInstructions;
        }
        stats::SpanRecorder chunk_spans;
        const core::GridResults chunked_results =
            timed(chunked_grid, {}, &chunk_spans, cpu);
        report("chunked", chunked_results, cpu);

        // Marginal cost of one monitor lane: the fused pass against
        // its timing lane alone, per extra lane and simulated kinst.
        core::PolicyGrid timing_only = modesGrid_;
        timing_only.runs.resize(1);
        (void)timed(timing_only, fused, nullptr, cpu);
        const double lanes = static_cast<double>(modesGrid_.runs.size());
        const double kinst =
            static_cast<double>(options.warmupInstructions +
                                options.measureInstructions) /
            1000.0;
        m_["cache.lane_us_per_kinst"] =
            1e6 * (fused_cpu - cpu) / (lanes - 1.0) / kinst;

        std::vector<double> chunk_ms;
        for (const auto &track : chunk_spans.tracks())
            for (const auto &span : track.spans)
                if (std::string(span.name) == "chunk")
                    chunk_ms.push_back(1e-6 *
                                       static_cast<double>(span.durationNs));
        double mean = 0.0;
        for (const double ms : chunk_ms)
            mean += ms;
        mean /= static_cast<double>(std::max<std::size_t>(chunk_ms.size(), 1));
        m_["core.chunk_ms.max_over_mean"] =
            chunk_ms.empty() ? 0.0
                             : *std::max_element(chunk_ms.begin(),
                                                 chunk_ms.end()) /
                                   mean;
    }

    // ---- service: parse, handle, result cache ---------------------------
    void
    serviceProbe()
    {
        const std::string request = sweepRequest(
            input_.row, requestPolicies(),
            config_.smoke ? 10'000 : 50'000,
            config_.smoke ? 30'000 : 150'000, 0x5EEDULL);
        m_["service.parse_us"] = 1e6 * bestSeconds([&] {
            return timeIt([&] {
                for (int i = 0; i < 20; ++i)
                    g_sink = g_sink +
                             service::parseRequest(request).grid.cellCount();
            }) / 20.0;
        });

        const std::string dir = config_.out + "/probe-cache";
        removeTree(dir);
        service::SweepService::Options options;
        options.cacheDir = dir;
        options.jobs = workerCount();
        service::SweepService service(options);
        std::string reply;
        m_["service.handle_cold_ms"] =
            1e3 * timeIt([&] { reply = service.handle(request); });
        if (reply.find("emissary.response.v1") == std::string::npos)
            outcome_.fail("service probe: " + reply.substr(0, 200));
        m_["service.response_kb"] =
            static_cast<double>(reply.size()) / 1024.0;
        m_["service.handle_warm_us"] = 1e6 * bestSeconds([&] {
            return timeIt([&] { g_sink = g_sink +
                                         service.handle(request).size(); });
        });
        m_["service.handle_disk_us"] = 1e6 * bestSeconds([&] {
            service::SweepService fresh(options);
            return timeIt(
                [&] { g_sink = g_sink + fresh.handle(request).size(); });
        });

        // The result cache itself, under the identities runGrid uses
        // for these exact cells.
        const core::PolicyGrid grid = service::parseRequest(request).grid;
        std::vector<std::pair<std::string, std::string>> ids;
        for (const core::RunSpec &run : grid.runs) {
            const std::string canonical = core::cellCacheCanonical(
                grid.workloads[0], run, "", 0, core::buildInfo().gitSha);
            ids.emplace_back(core::cellCacheKey(canonical), canonical);
        }
        const double n = static_cast<double>(ids.size());
        std::vector<core::CellCacheEntry> entries(ids.size());
        std::unique_ptr<service::ResultCache> warm;
        m_["service.cache_get_us.disk"] = 1e6 / n * bestSeconds([&] {
            warm = std::make_unique<service::ResultCache>(dir);
            return timeIt([&] {
                for (std::size_t i = 0; i < ids.size(); ++i)
                    if (!warm->lookup(ids[i].first, ids[i].second,
                                      entries[i]))
                        outcome_.fail("service probe: cache miss on " +
                                      ids[i].first);
            });
        });
        m_["service.cache_get_us.mem"] = 1e6 / n * bestSeconds([&] {
            return timeIt([&] {
                for (std::size_t i = 0; i < ids.size(); ++i)
                    warm->lookup(ids[i].first, ids[i].second, entries[i]);
            });
        });
        m_["service.cache_put_us"] = 1e6 / n * bestSeconds([&] {
            service::ResultCache store(config_.out + "/probe-put");
            return timeIt([&] {
                for (std::size_t i = 0; i < ids.size(); ++i)
                    store.store(ids[i].first, ids[i].second, entries[i]);
            });
        });
    }

    // ---- stats: sweep JSON and the JSON parser ---------------------------
    void
    statsProbe(const core::PolicyGrid *own_grid,
               const core::GridResults *own_results)
    {
        const core::PolicyGrid &grid = own_grid ? *own_grid : modesGrid_;
        const core::GridResults &results =
            own_results ? *own_results : *modesExact_;
        std::string text;
        m_["stats.sweep_json_ms"] = 1e3 * bestSeconds([&] {
            return timeIt([&] { text = core::sweepJson(grid, results).dump(0); });
        });
        const double seconds = bestSeconds([&] {
            return timeIt([&] {
                g_sink = g_sink + JsonValue::parse(text).size();
            });
        });
        m_["stats.json_parse_mb_per_s"] =
            static_cast<double>(text.size()) / 1e6 / seconds;
    }

    const RunConfig &config_;
    const ProbeInput &input_;
    stats::SpanRecorder &recorder_;
    MetricValues &m_;
    Outcome &outcome_;
    std::uint64_t records_;
    std::shared_ptr<trace::SyntheticProgram> program_;
    std::shared_ptr<const trace::RecordBuffer> buffer_;
    std::vector<trace::TraceRecord> recs_;
    std::vector<Access> l2Stream_;
    core::PolicyGrid modesGrid_;
    std::unique_ptr<core::GridResults> modesExact_;
};

} // namespace

void
runProbes(const RunConfig &config, const ProbeInput &input,
          const core::PolicyGrid *own_grid,
          const core::GridResults *own_results,
          stats::SpanRecorder &recorder, Outcome &outcome)
{
    Prober(config, input, recorder, outcome).run(own_grid, own_results);
}

} // namespace emissary::e2e
