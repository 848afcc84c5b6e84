/**
 * @file
 * Host-speed calibration. On a shared host the simulator's speed
 * moves in phases of a minute or more, by up to half: one simulated
 * cell took 0.059 s and 0.092 s minutes apart on one 4-vCPU VM. A
 * plain ALU loop slowed by only 11% across that swing and random DRAM
 * reads by 12%, but a small cache model whose arrays live in a core's
 * L2, as the simulator's own do, slowed in step with it: the ratio of
 * the two moved by 2% (bench/e2e/README.md, "Reference speed"). That
 * model, frozen here so that no change to the simulator moves it, is
 * the calibration kernel. Its time against the reference host's gives
 * the host's speed, and the timed metrics are reported at the
 * reference host's speed.
 */

#include <future>

#include "bench/e2e/harness.hh"

namespace emissary::e2e
{

namespace
{

/** Seconds of one kernel pass per thread on the reference host: the
 *  4-vCPU Xeon VM this benchmark was built on, in a quiet phase,
 *  Release build, rounded. */
constexpr double kReferenceSeconds = 0.016;

constexpr unsigned kSets = 2048;
constexpr unsigned kWays = 16;
constexpr unsigned kAccesses = 500'000;

volatile std::uint64_t g_sink = 0;

/** One pass: a 16-way age-LRU cache of kSets sets (about 300 KB of
 *  tags and ages) fed sequential runs broken by jumps, the shape of
 *  an instruction-fetch stream. */
double
kernelSeconds()
{
    std::vector<std::uint64_t> tags(kSets * kWays, ~std::uint64_t{0});
    std::vector<std::uint8_t> ages(kSets * kWays, 0);
    const auto start = Clock::now();
    std::uint64_t state = 12345;
    std::uint64_t line = 0;
    std::uint64_t hits = 0;
    for (unsigned n = 0; n < kAccesses; ++n) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        line = (state >> 60) < 3 ? (state >> 20) & 0xFFFFF : line + 1;
        std::uint64_t *set_tags = &tags[(line % kSets) * kWays];
        std::uint8_t *set_ages = &ages[(line % kSets) * kWays];
        unsigned way = kWays;
        for (unsigned w = 0; w < kWays; ++w)
            if (set_tags[w] == line) {
                way = w;
                break;
            }
        if (way < kWays) {
            ++hits;
        } else {
            way = 0;
            for (unsigned w = 1; w < kWays; ++w)
                if (set_ages[w] > set_ages[way])
                    way = w;
            set_tags[way] = line;
        }
        for (unsigned w = 0; w < kWays; ++w)
            if (set_ages[w] < 255)
                ++set_ages[w];
        set_ages[way] = 0;
    }
    g_sink = g_sink + hits;
    return secondsSince(start);
}

} // namespace

double
hostScale()
{
    // One pass per worker at once, each on a thread of its own, so
    // every core the ops run on is sampled under the same load the
    // ops put on it.
    std::vector<std::future<double>> passes;
    for (unsigned i = 0; i < workerCount(); ++i)
        passes.push_back(std::async(std::launch::async, kernelSeconds));
    double sum = 0.0;
    for (std::future<double> &pass : passes)
        sum += pass.get();
    return sum / static_cast<double>(passes.size()) / kReferenceSeconds;
}

} // namespace emissary::e2e
