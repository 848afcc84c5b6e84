#include "core/replay_build.hh"

#include <algorithm>
#include <atomic>
#include <future>
#include <vector>

#include "workload/emtc.hh"

namespace emissary::core
{

namespace
{

/** Records below which a parallel decode is not worth the per-task
 *  open/seek cost; also the task granularity floor. */
constexpr std::uint64_t kMinTaskRecords = 1u << 18;

/** EMTC block length — task spans align to it so no two tasks decode
 *  the same compressed block. */
constexpr std::uint64_t kBlockRecords =
    workload::kDefaultRecordsPerBlock;

} // namespace

std::unique_ptr<trace::TraceSource>
openTraceSource(const GridWorkload &w, std::uint64_t extra_skip)
{
    auto source = std::make_unique<workload::PackedTraceSource>(
        w.tracePath, w.skipRecords, w.maxRecords);
    if (extra_skip)
        source->skipRecords(extra_skip);
    return source;
}

std::shared_ptr<const trace::RecordBuffer>
buildTraceReplay(const GridWorkload &w, std::uint64_t records,
                 ThreadPool &pool)
{
    trace::RecordBuffer::TailFactory tail =
        [w](std::uint64_t position) {
            return openTraceSource(w, position);
        };

    // Short windows are not worth the per-task file opens.
    if (pool.workerCount() <= 1 || records < 2 * kMinTaskRecords) {
        auto source = openTraceSource(w);
        return std::make_shared<const trace::RecordBuffer>(
            *source, records, std::move(tail));
    }

    // The probe names the buffer exactly as the streaming build would
    // (RecordBuffer takes the source's self-description).
    const std::string name = openTraceSource(w)->name();
    auto buffer = std::make_shared<trace::RecordBuffer>(
        name, records, std::move(tail));

    // Span partition is a pure function of (records, workers): block
    // aligned, large enough to amortise the per-task open, and about
    // two tasks per worker so stragglers level out. Determinism needs
    // none of this — every task writes a span fixed by its start
    // offset — but a stable partition keeps the task layout
    // reproducible run to run.
    const std::uint64_t per_worker =
        (records + pool.workerCount() * 2 - 1) /
        (pool.workerCount() * 2);
    const std::uint64_t span =
        ((std::max(per_worker, kMinTaskRecords) + kBlockRecords - 1) /
         kBlockRecords) *
        kBlockRecords;

    const std::size_t tasks =
        static_cast<std::size_t>((records + span - 1) / span);
    std::atomic<std::size_t> done{0};
    std::vector<std::future<void>> futures;
    futures.reserve(tasks);
    for (std::uint64_t start = 0; start < records; start += span) {
        const std::uint64_t n = std::min(span, records - start);
        futures.push_back(pool.submit([&w, &buffer, &done,
                                       start, n]() {
            struct Done
            {
                std::atomic<std::size_t> &counter;
                ~Done()
                {
                    counter.fetch_add(1, std::memory_order_release);
                }
            } mark{done};
            auto source = openTraceSource(w, start);
            constexpr std::size_t kChunk = 4096;
            trace::TraceRecord chunk[kChunk];
            std::uint64_t pos = start;
            std::uint64_t remaining = n;
            while (remaining > 0) {
                const std::size_t k = static_cast<std::size_t>(
                    std::min<std::uint64_t>(remaining, kChunk));
                source->fill(chunk, k);
                buffer->writeRange(pos, chunk, k);
                pos += k;
                remaining -= k;
            }
        }));
    }
    pool.helpWhile([&done, tasks]() {
        return done.load(std::memory_order_acquire) < tasks;
    });
    for (std::future<void> &future : futures)
        future.get();
    return buffer;
}

} // namespace emissary::core
