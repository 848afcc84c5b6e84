/**
 * @file
 * Bélády bound analysis (paper §1 / §7.1 context): the paper frames
 * cache replacement against OPT (minimum misses, unrealizable) and
 * CSOPT (its cost-aware version). This harness records the L2
 * instruction access stream of a baseline run, computes the per-set
 * Bélády-optimal miss count offline, and places TPLRU and EMISSARY
 * between it and the baseline.
 *
 * Note the paper's central argument: EMISSARY does *not* chase OPT's
 * miss count — it trades misses for miss *cost* — so its MPKI can sit
 * well above the OPT bound while it still wins on cycles.
 */

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.hh"
#include "core/simulator.hh"
#include "trace/executor.hh"

namespace
{

using namespace emissary;

/** Records the fetch-path L2 instruction access stream. */
class StreamRecorder : public cache::HierarchyObserver
{
  public:
    void onL2InstMiss(std::uint64_t) override {}
    void onStarvationCycle(std::uint64_t, std::uint64_t) override {}
    void
    onL2InstAccess(std::uint64_t line) override
    {
        stream_.push_back(line);
    }

    /** Mark the warm-up/measurement boundary: accesses before it
     *  prime OPT's cache state but are not counted as misses, so the
     *  bound and the measured window MPKI share both a denominator
     *  and a warm starting state. */
    void markBoundary() { boundary_ = stream_.size(); }

    const std::vector<std::uint64_t> &stream() const
    {
        return stream_;
    }

    std::size_t boundary() const { return boundary_; }

  private:
    std::vector<std::uint64_t> stream_;
    std::size_t boundary_ = 0;
};

/**
 * Bélády-optimal misses for one set-associative array over a
 * recorded access stream (per-set furthest-future-use eviction).
 */
std::uint64_t
beladyMisses(const std::vector<std::uint64_t> &stream,
             std::size_t count_from, unsigned sets, unsigned ways)
{
    constexpr std::uint64_t kNever =
        std::numeric_limits<std::uint64_t>::max();

    // Split the stream per set, keeping global order per set and the
    // warm-up/window boundary flag per access.
    std::vector<std::vector<std::pair<std::uint64_t, bool>>> per_set(
        sets);
    for (std::size_t i = 0; i < stream.size(); ++i)
        per_set[stream[i] & (sets - 1)].emplace_back(
            stream[i], i >= count_from);

    std::uint64_t misses = 0;
    for (unsigned set = 0; set < sets; ++set) {
        const auto &seq = per_set[set];
        const std::size_t n = seq.size();
        // next_use[i]: index of the next access to seq[i] after i.
        std::vector<std::uint64_t> next_use(n, kNever);
        std::unordered_map<std::uint64_t, std::size_t> last_pos;
        for (std::size_t i = n; i-- > 0;) {
            const auto it = last_pos.find(seq[i].first);
            if (it != last_pos.end())
                next_use[i] = it->second;
            last_pos[seq[i].first] = i;
        }

        // Resident lines ordered by their next use (descending gives
        // the eviction candidate).
        std::set<std::pair<std::uint64_t, std::uint64_t>> by_next;
        std::unordered_map<std::uint64_t, std::uint64_t> resident;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t line = seq[i].first;
            const auto it = resident.find(line);
            if (it != resident.end()) {
                by_next.erase({it->second, line});
                it->second = next_use[i];
                by_next.insert({next_use[i], line});
                continue;
            }
            if (seq[i].second)
                ++misses;  // Warm-up misses only prime the state.
            if (resident.size() >= ways) {
                const auto victim = std::prev(by_next.end());
                resident.erase(victim->second);
                by_next.erase(victim);
            }
            resident[line] = next_use[i];
            by_next.insert({next_use[i], line});
        }
    }
    return misses;
}

} // namespace

int
main()
{
    const auto options = bench::defaultOptions(1'000'000);
    bench::banner("Belady (OPT) bound for L2 instruction misses",
                  "§1/§7.1 context (OPT / CSOPT framing)", options);

    // Each benchmark's row — an instrumented baseline run, an
    // EMISSARY run and the offline OPT analysis — is independent of
    // every other row, so rows fan out directly across the pool and
    // land in slots indexed by suite position.
    const auto profiles = core::selectedBenchmarks();
    std::vector<std::vector<std::string>> rows(profiles.size());
    core::ThreadPool pool;
    std::vector<std::future<void>> jobs;
    jobs.reserve(profiles.size());
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        jobs.push_back(pool.submit([&, b]() {
            const trace::SyntheticProgram program(profiles[b]);

            // Record the baseline's L2-instruction access stream.
            trace::SyntheticExecutor executor(program);
            StreamRecorder recorder;
            core::Simulator::Config sim_config;
            sim_config.machine =
                core::alderlakeConfig(core::MachineOptions{});
            sim_config.warmupInstructions =
                options.warmupInstructions;
            sim_config.measureInstructions =
                options.measureInstructions;
            core::Simulator sim(sim_config, executor);
            sim.hierarchy().setObserver(&recorder);
            // Warm-up accesses prime OPT's state; only window
            // accesses count, so the bound and the measured MPKI are
            // comparable.
            sim.setOnMeasureStart(
                [&recorder]() { recorder.markBoundary(); });
            const core::Metrics base = sim.run();

            const core::Metrics emi =
                core::runPolicy(program, "P(8):S&E", options);

            const unsigned sets = sim.hierarchy().l2().numSets();
            const unsigned ways = sim.hierarchy().l2().numWays();
            const std::uint64_t opt_misses = beladyMisses(
                recorder.stream(), recorder.boundary(), sets, ways);
            const double ki =
                static_cast<double>(base.instructions) / 1000.0;
            const double opt_mpki =
                static_cast<double>(opt_misses) / (ki > 0 ? ki : 1);

            rows[b] = {
                profiles[b].name,
                formatDouble(base.l2InstMpki, 2),
                formatDouble(emi.l2InstMpki, 2),
                formatDouble(opt_mpki, 2),
                opt_mpki > 0.01
                    ? formatDouble(base.l2InstMpki / opt_mpki, 2)
                    : std::string("-"),
                formatDouble(core::speedupPercent(base, emi), 2)};
        }));
    }
    for (auto &job : jobs)
        job.get();

    stats::Table table({"benchmark", "TPLRU L2I MPKI",
                        "P(8):S&E MPKI", "OPT MPKI",
                        "TPLRU/OPT", "EMISSARY speedup%"});
    for (const auto &row : rows)
        table.addRow(row);
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "context: OPT is the unrealizable miss-count floor on the\n"
        "recorded fetch-path stream (warm-started at the window\n"
        "boundary). EMISSARY deliberately sits above the floor on\n"
        "misses while winning on miss COST - the paper's thesis.\n");
    return 0;
}
