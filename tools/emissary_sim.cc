/**
 * @file
 * emissary_sim: command-line driver for the simulator.
 *
 * Run any suite benchmark (or a recorded trace file) under any L2
 * replacement policy on the Alderlake-like machine, with every knob
 * of the paper's evaluation exposed as a flag.
 *
 * Examples:
 *   emissary_sim --benchmark tomcat --policy "P(8):S&E&R(1/32)"
 *   emissary_sim --benchmark verilator --policy DRRIP --csv
 *   emissary_sim --benchmark kafka --record kafka.emtc
 *   emissary_sim --trace kafka.emtc --policy "P(8):S&E"
 *   emissary_sim --benchmark tomcat --no-fdip --policy TPLRU
 *
 * Sweeps fan out over the parallel experiment engine:
 *   emissary_sim --benchmarks tomcat,kafka \
 *                --policies "TPLRU,P(8):S&E,P(8):S&E&R(1/32)" \
 *                --jobs 8
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/buildinfo.hh"
#include "core/catalog.hh"
#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/observability.hh"
#include "core/replay_build.hh"
#include "core/threadpool.hh"
#include "stats/chrome_trace.hh"
#include "stats/json.hh"
#include "stats/registry.hh"
#include "stats/span_recorder.hh"
#include "stats/table.hh"
#include "stats/trace_sink.hh"
#include "util/strutil.hh"
#include "workload/emtc.hh"

namespace
{

using namespace emissary;

/** Strict unsigned parse: any non-digit, or a value above @p max,
 *  is a usage error, not a silent zero or a wrapped value. */
std::uint64_t
parseU64(const std::string &flag, const char *text,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t parsed = 0;
    if (!parseDecimal(text, max, parsed)) {
        std::fprintf(stderr,
                     "%s: expected an unsigned decimal integer of at "
                     "most %llu, got '%s'\n",
                     flag.c_str(), static_cast<unsigned long long>(max),
                     text);
        std::exit(2);
    }
    return parsed;
}

/** parseU64 for knobs held in 32 bits. */
unsigned
parseU32(const std::string &flag, const char *text)
{
    return static_cast<unsigned>(
        parseU64(flag, text, std::numeric_limits<std::uint32_t>::max()));
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --benchmark NAME     suite benchmark (default tomcat)\n"
        "  --list               list suite benchmarks and exit\n"
        "  --trace FILE         replay an EMTC trace container\n"
        "                       instead (streamed)\n"
        "  --record FILE        record the run's stream as an EMTC\n"
        "                       container\n"
        "  --catalog FILE       sweep the workloads of a JSON\n"
        "                       manifest (docs/workloads.md);\n"
        "                       --benchmarks selects by name\n"
        "  --policy SPEC        L2 policy, paper notation "
        "(default TPLRU)\n"
        "  --benchmarks A,B,C   sweep: run every listed benchmark\n"
        "  --policies P,Q,R     sweep: run every listed policy; the\n"
        "                       first is the speedup baseline\n"
        "  --jobs N             sweep worker threads (default:\n"
        "                       EMISSARY_JOBS or all cores)\n"
        "  --fused              sweep: one trace pass per workload\n"
        "                       drives all policies at once (first\n"
        "                       policy is the exact timing lane, the\n"
        "                       rest are monitor lanes that count\n"
        "                       cache events only: IPC, starvation\n"
        "                       and speedup print as n/a)\n"
        "  --fast-mode          sweep: --fused with 1-in-8 sampled-\n"
        "                       set monitor lanes (error bounds:\n"
        "                       docs/performance.md)\n"
        "  --sampled-sets K     sampling factor for --fast-mode\n"
        "                       (power of two; implies --fused)\n"
        "  --time-chunks T      simulate the window as T chunks in\n"
        "                       parallel with overlapped warming\n"
        "                       (approximate; error bounds in\n"
        "                       docs/performance.md; sampling and\n"
        "                       event traces are disabled)\n"
        "  --warmup-records W   per-chunk warming prefix for\n"
        "                       --time-chunks (default 250000)\n"
        "  --l1i-policy SPEC    L1I policy (ablation; default "
        "TPLRU)\n"
        "  --instructions N     measured window (default 1500000)\n"
        "  --warmup N           warm-up instructions (default N/4)\n"
        "  --no-fdip            disable the decoupled prefetcher\n"
        "  --no-nlp             disable next-line prefetching\n"
        "  --ideal-l2i          zero-cycle-miss-latency L2-I model\n"
        "  --true-lru           EMISSARY on true LRU (not TPLRU)\n"
        "  --bypass             low-priority lines bypass the L2\n"
        "  --reset N            clear priority bits every N instrs\n"
        "  --seed N             machine seed\n"
        "  --csv                one-line CSV output\n"
        "  --stats-json FILE    write the run (or sweep) as JSON;\n"
        "                       '-' writes to stdout and silences\n"
        "                       the human-readable report\n"
        "  --perf-trace FILE    flight-recorder Chrome trace of the\n"
        "                       run or sweep (open in Perfetto; see\n"
        "                       docs/observability.md)\n"
        "  --progress           live sweep progress on stderr\n"
        "                       (auto-disabled when stderr is not a\n"
        "                       terminal)\n"
        "  --sample-interval N  snapshot counters + P-bit occupancy\n"
        "                       every N committed instructions\n"
        "  --trace-out FILE     JSONL event trace of the measured\n"
        "                       window\n"
        "  --trace-categories A,B  emit only the listed categories\n"
        "                       (default: all; see docs/"
        "observability.md)\n",
        argv0);
}

void
printMetrics(const core::Metrics &m, bool csv)
{
    if (csv) {
        std::printf(
            "benchmark,policy,instructions,cycles,ipc,l1iMpki,"
            "l1dMpki,l2iMpki,l2dMpki,starv,starvIqEmpty,"
            "feStalls,beStalls,energyJ\n");
        std::printf(
            "%s,%s,%llu,%llu,%.4f,%.3f,%.3f,%.3f,%.3f,%llu,"
            "%llu,%llu,%llu,%.6e\n",
            m.benchmark.c_str(), m.policy.c_str(),
            static_cast<unsigned long long>(m.instructions),
            static_cast<unsigned long long>(m.cycles), m.ipc,
            m.l1iMpki, m.l1dMpki, m.l2InstMpki, m.l2DataMpki,
            static_cast<unsigned long long>(m.starvationCycles),
            static_cast<unsigned long long>(
                m.starvationIqEmptyCycles),
            static_cast<unsigned long long>(m.feStallCycles),
            static_cast<unsigned long long>(m.beStallCycles),
            m.energy.total());
        return;
    }

    std::printf("benchmark:          %s\n", m.benchmark.c_str());
    std::printf("L2 policy:          %s\n", m.policy.c_str());
    std::printf("instructions:       %llu\n",
                static_cast<unsigned long long>(m.instructions));
    std::printf("cycles:             %llu\n",
                static_cast<unsigned long long>(m.cycles));
    std::printf("IPC:                %.3f\n", m.ipc);
    std::printf("L1I / L1D MPKI:     %.2f / %.2f\n", m.l1iMpki,
                m.l1dMpki);
    std::printf("L2I / L2D MPKI:     %.2f / %.2f\n", m.l2InstMpki,
                m.l2DataMpki);
    std::printf("starvation cycles:  %llu (%.1f%% of cycles; "
                "%llu with empty IQ)\n",
                static_cast<unsigned long long>(m.starvationCycles),
                m.cycles ? 100.0 *
                               static_cast<double>(
                                   m.starvationCycles) /
                               static_cast<double>(m.cycles)
                         : 0.0,
                static_cast<unsigned long long>(
                    m.starvationIqEmptyCycles));
    std::printf("FE / BE stalls:     %llu / %llu\n",
                static_cast<unsigned long long>(m.feStallCycles),
                static_cast<unsigned long long>(m.beStallCycles));
    std::printf("energy:             %.3f mJ\n",
                m.energy.total() * 1e3);
    std::printf("high-priority fills / upgrades: %llu / %llu\n",
                static_cast<unsigned long long>(m.highPriorityFills),
                static_cast<unsigned long long>(m.priorityUpgrades));
}

/** One run as a standalone JSON document ("emissary.run.v1"). */
stats::JsonValue
runJson(const core::Metrics &m, const core::RunOptions &options,
        const stats::Registry &registry,
        const stats::Sampler &sampler, double wall_seconds)
{
    using stats::JsonValue;
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("emissary.run.v1"));
    doc.set("benchmark", JsonValue(m.benchmark));
    doc.set("policy", JsonValue(m.policy));
    doc.set("seed", JsonValue(options.seed));
    doc.set("config", core::runOptionsJson(options));
    doc.set("wall_seconds", JsonValue(wall_seconds));
    doc.set("metrics", m.toJson());
    doc.set("counters", core::registryJson(registry));
    if (sampler.enabled())
        doc.set("samples", sampler.toJson());
    doc.set("provenance", core::buildProvenanceJson());
    return doc;
}

/** "-" sends the document to stdout; anything else is a file path. */
void
writeJsonOut(const std::string &path, const stats::JsonValue &doc)
{
    if (path == "-")
        std::printf("%s\n", doc.dump(2).c_str());
    else
        stats::writeJsonFile(path, doc);
}

/** \r-rewritten stderr progress line for sweeps: completed cells,
 *  throughput and a wall-clock ETA. The grid engine serializes the
 *  progress callback, so tick() needs no locking of its own. */
class ProgressMeter
{
  public:
    explicit ProgressMeter(std::size_t total)
        : total_(total), start_(std::chrono::steady_clock::now())
    {
    }

    void
    tick()
    {
        ++done_;
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        const double rate =
            elapsed > 0.0 ? static_cast<double>(done_) / elapsed
                          : 0.0;
        const double eta =
            rate > 0.0
                ? static_cast<double>(total_ - done_) / rate
                : 0.0;
        std::fprintf(stderr,
                     "\r[%zu/%zu] %.2f runs/s, ETA %.0fs ", done_,
                     total_, rate, eta);
        if (done_ == total_)
            std::fputc('\n', stderr);
        std::fflush(stderr);
    }

  private:
    std::size_t total_;
    std::size_t done_ = 0;
    std::chrono::steady_clock::time_point start_;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmark = "tomcat";
    std::string trace_path;
    std::string record_path;
    std::string catalog_path;
    std::string benchmarks_csv;
    std::string policies_csv;
    std::string l2_policy = "TPLRU";
    core::RunOptions run_options;
    run_options.measureInstructions = 1'500'000;
    std::uint64_t warmup = 0;
    unsigned jobs = 0;
    bool fused = false;
    bool fast_mode = false;
    unsigned sampled_sets = 0;
    bool csv = false;
    bool progress = false;
    std::string stats_json_path;
    std::string perf_trace_path;
    std::string trace_out_path;
    std::string trace_categories_csv;
    std::uint64_t sample_interval = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--benchmark") {
            benchmark = value();
        } else if (arg == "--list") {
            for (const auto &name : trace::suiteNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--trace") {
            trace_path = value();
        } else if (arg == "--record") {
            record_path = value();
        } else if (arg == "--catalog") {
            catalog_path = value();
        } else if (arg == "--policy") {
            l2_policy = value();
        } else if (arg == "--benchmarks") {
            benchmarks_csv = value();
        } else if (arg == "--policies") {
            policies_csv = value();
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                parseU64(arg, value(), core::ThreadPool::kMaxWorkers));
        } else if (arg == "--fused") {
            fused = true;
        } else if (arg == "--fast-mode") {
            fast_mode = true;
        } else if (arg == "--sampled-sets") {
            sampled_sets = parseU32(arg, value());
            try {
                core::checkSampledSets(sampled_sets);
            } catch (const std::invalid_argument &error) {
                std::fprintf(stderr, "--sampled-sets: %s\n",
                             error.what());
                return 2;
            }
        } else if (arg == "--time-chunks") {
            run_options.timeChunks =
                std::max(1u, parseU32(arg, value()));
        } else if (arg == "--warmup-records") {
            run_options.chunkWarmupRecords = parseU64(arg, value());
        } else if (arg == "--l1i-policy") {
            run_options.l1iPolicy = value();
        } else if (arg == "--instructions") {
            run_options.measureInstructions = parseU64(arg, value());
        } else if (arg == "--warmup") {
            warmup = parseU64(arg, value());
        } else if (arg == "--stats-json") {
            stats_json_path = value();
        } else if (arg == "--perf-trace") {
            perf_trace_path = value();
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--sample-interval") {
            sample_interval = parseU64(arg, value());
        } else if (arg == "--trace-out") {
            trace_out_path = value();
        } else if (arg == "--trace-categories") {
            trace_categories_csv = value();
        } else if (arg == "--no-fdip") {
            run_options.fdip = false;
        } else if (arg == "--no-nlp") {
            run_options.nextLinePrefetch = false;
        } else if (arg == "--ideal-l2i") {
            run_options.idealL2Inst = true;
        } else if (arg == "--true-lru") {
            run_options.emissaryTreePlru = false;
        } else if (arg == "--bypass") {
            run_options.bypassLowPriorityInst = true;
        } else if (arg == "--reset") {
            run_options.priorityResetInstructions =
                parseU64(arg, value());
        } else if (arg == "--seed") {
            run_options.seed = parseU64(arg, value());
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    run_options.warmupInstructions =
        warmup > 0 ? warmup : run_options.measureInstructions / 4;

    try {
        // Observability attachments (single-run paths). Categories
        // are validated up front so a typo is a usage error, not a
        // silently empty trace.
        std::vector<std::string> trace_categories;
        for (const std::string &raw :
             split(trace_categories_csv, ',')) {
            const std::string name = trim(raw);
            if (name.empty())
                continue;
            if (core::traceCategoryCounter(name).empty()) {
                std::fprintf(stderr,
                             "--trace-categories: unknown category "
                             "'%s'\n",
                             name.c_str());
                return 2;
            }
            trace_categories.push_back(name);
        }

        // Sweep mode: fan (workload x policy) out over the engine.
        // Workloads come from the suite profiles, or — with
        // --catalog — from a JSON manifest mixing synthetic and
        // trace-backed entries.
        if (!benchmarks_csv.empty() || !policies_csv.empty() ||
            !catalog_path.empty()) {
            if (!trace_path.empty() || !record_path.empty()) {
                std::fprintf(stderr, "--benchmarks/--policies/"
                                     "--catalog cannot be combined "
                                     "with --trace/--record\n");
                return 2;
            }
            if (!trace_out_path.empty() || sample_interval > 0) {
                std::fprintf(stderr,
                             "--trace-out/--sample-interval apply to "
                             "single runs, not sweeps\n");
                return 2;
            }
            std::vector<std::string> selected;
            for (const std::string &raw :
                 split(benchmarks_csv, ',')) {
                const std::string name = trim(raw);
                if (!name.empty())
                    selected.push_back(name);
            }
            std::vector<core::GridWorkload> workloads;
            if (!catalog_path.empty()) {
                const core::WorkloadCatalog catalog =
                    core::WorkloadCatalog::load(catalog_path);
                workloads = catalog.select(selected);
            } else {
                if (selected.empty())
                    selected.push_back(benchmark);
                for (const std::string &name : selected)
                    workloads.emplace_back(
                        trace::profileByName(name));
            }
            std::vector<std::string> policies;
            for (const std::string &raw :
                 split(policies_csv.empty() ? l2_policy
                                            : policies_csv,
                       ',')) {
                const std::string spec = trim(raw);
                if (!spec.empty())
                    policies.push_back(spec);
            }

            const core::PolicyGrid grid = core::PolicyGrid::sweep(
                workloads, policies, run_options);
            core::ThreadPool pool(jobs);

            std::unique_ptr<stats::SpanRecorder> flight;
            if (!perf_trace_path.empty())
                flight = std::make_unique<stats::SpanRecorder>();
            // The progress line is a terminal affordance: skip it
            // when stderr is piped, or when the sweep JSON itself is
            // going to stdout (keep "- | jq" pipelines quiet).
            const bool live_progress =
                progress && isatty(fileno(stderr)) != 0 &&
                stats_json_path != "-";
            ProgressMeter meter(grid.cellCount());
            std::function<void(std::size_t, std::size_t)> on_cell;
            if (live_progress)
                on_cell = [&meter](std::size_t, std::size_t) {
                    meter.tick();
                };

            core::GridOptions grid_options;
            grid_options.fused =
                fused || fast_mode || sampled_sets > 1;
            grid_options.sampledSets =
                sampled_sets > 0 ? sampled_sets : (fast_mode ? 8 : 0);
            const core::GridResults results = core::runGrid(
                grid, pool, grid_options, on_cell, flight.get());
            if (flight)
                stats::ChromeTraceWriter::write(perf_trace_path,
                                                *flight);

            // A monitor lane is untimed: its IPC, starvation and
            // speedup print as n/a.
            stats::Table table({"benchmark", "policy", "IPC",
                                "L2I MPKI", "L2D MPKI",
                                "starv (IQ-empty)", "speedup%"});
            for (std::size_t w = 0; w < workloads.size(); ++w) {
                const core::Metrics &base = results.at(w, 0);
                for (std::size_t p = 0; p < policies.size(); ++p) {
                    const core::Metrics &m = results.at(w, p);
                    table.addRow(
                        {workloads[w].name, policies[p],
                         formatDouble(core::timedFigure(m.timed(), m.ipc),
                                      3),
                         formatDouble(m.l2InstMpki, 2),
                         formatDouble(m.l2DataMpki, 2),
                         m.timed() ? std::to_string(
                                         m.starvationIqEmptyCycles)
                                   : "n/a",
                         formatDouble(
                             core::timedFigure(
                                 base.timed() && m.timed(),
                                 core::speedupPercent(base, m)),
                             2)});
                }
            }
            if (stats_json_path == "-") {
                // stdout is the JSON document; keep it clean.
            } else if (csv) {
                std::printf("%s", table.renderCsv().c_str());
            } else {
                std::printf("%s\n", table.render().c_str());
                std::printf(
                    "sweep wall-clock (%u workers):\n%s\n",
                    pool.workerCount(),
                    results.timingTable(workloads)
                        .render()
                        .c_str());
            }
            if (!stats_json_path.empty())
                writeJsonOut(stats_json_path,
                             core::sweepJson(grid, results));
            return 0;
        }

        // Single run: one source choice and one core::run call.
        // Interval sampling, event traces and recording observe one
        // sequential machine; a chunked run cannot record and
        // ignores the other two. The policies parse before any
        // output file opens, so a bad one leaves no file behind.
        const replacement::PolicySpec l2_spec =
            replacement::PolicySpec::parse(l2_policy);
        const replacement::PolicySpec l1i_spec =
            replacement::PolicySpec::parse(run_options.l1iPolicy);
        const bool chunked = run_options.timeChunks > 1;
        if (chunked && !record_path.empty()) {
            std::fprintf(stderr, "error: --time-chunks cannot be "
                                 "combined with --record (recording "
                                 "needs one sequential pass)\n");
            return 2;
        }
        if (chunked && (sample_interval > 0 || !trace_out_path.empty()))
            std::fprintf(stderr, "note: --sample-interval/--trace-out "
                                 "are ignored with --time-chunks\n");

        // A trace opens at any record (EMTC: block-index seek); a
        // synthetic benchmark runs live, or is packed once when its
        // window is chunked. The pack runs on the pool while the
        // chunks replay the buffer: chunk 0 starts at once, chunk k
        // as soon as the packer reaches its warming start. The pool
        // is declared after the program, so it drains the pack job
        // before the program goes.
        const core::GridWorkload row(benchmark, trace_path);
        std::unique_ptr<trace::SyntheticProgram> program;
        core::ThreadPool pool(jobs);
        const core::RunSource source = [&]() -> core::RunSource {
            if (row.traceBacked())
                return core::RunSource(
                    core::ChunkSourceFactory(
                        [&row](std::uint64_t start_record) {
                            return core::openTraceSource(row,
                                                         start_record);
                        }),
                    workload::readTraceInfo(trace_path).uniqueCodeLines);
            program = std::make_unique<trace::SyntheticProgram>(
                trace::profileByName(benchmark));
            if (!chunked)
                return *program;
            auto buffer = std::make_shared<trace::RecordBuffer>(
                *program,
                trace::RecordBuffer::recordsForWindow(
                    run_options.warmupInstructions +
                    run_options.measureInstructions),
                trace::RecordBuffer::Packing::Deferred);
            pool.submit([buffer]() { buffer->pack(); });
            return std::shared_ptr<const trace::RecordBuffer>(buffer);
        }();

        core::RunTelemetry telemetry;
        telemetry.sampleInterval = sample_interval;
        std::unique_ptr<stats::TraceSink> sink;
        if (!trace_out_path.empty()) {
            sink = std::make_unique<stats::TraceSink>(trace_out_path,
                                                      trace_categories);
            telemetry.traceSink = sink.get();
        }
        std::unique_ptr<workload::PackedTraceWriter> writer;
        if (!record_path.empty()) {
            writer = std::make_unique<workload::PackedTraceWriter>(
                record_path, row.traceBacked()
                                 ? workload::readTraceInfo(trace_path).name
                                 : benchmark);
            telemetry.recordTo = writer.get();
        }
        std::unique_ptr<stats::SpanRecorder> flight;
        if (!perf_trace_path.empty()) {
            flight = std::make_unique<stats::SpanRecorder>();
            flight->labelThread("main");
            telemetry.spans = flight.get();
        }
        core::Metrics m;
        {
            stats::ScopedTimer span(flight.get(), "run");
            span.arg("benchmark", stats::JsonValue(row.name));
            span.arg("policy", stats::JsonValue(l2_policy));
            m = core::run(source, l2_spec, l1i_spec, run_options, nullptr,
                          &pool, &telemetry);
        }
        if (flight)
            stats::ChromeTraceWriter::write(perf_trace_path, *flight);
        if (sink)
            sink->close();
        if (writer)
            writer->finish();

        if (stats_json_path != "-")
            printMetrics(m, csv);
        if (!stats_json_path.empty()) {
            stats::JsonValue doc = runJson(
                m, run_options, telemetry.registry,
                telemetry.sampler, telemetry.wallSeconds);
            if (row.traceBacked())
                doc.set("workload", core::workloadProvenanceJson(row));
            writeJsonOut(stats_json_path, doc);
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
