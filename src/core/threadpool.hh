/**
 * @file
 * First-in, first-out thread pool for the parallel experiment engine.
 *
 * Every cell of a (benchmark x policy) sweep is an independent
 * multi-millisecond simulation, so the pool optimises for simplicity,
 * ordering and drain semantics rather than sub-microsecond dispatch:
 * one queue under one mutex, and every worker takes the oldest job.
 * Jobs therefore start in submission order, which the grid engine
 * relies on twice: a P(N) group leader submitted before its row's
 * other cells starts before them, and a row's buffer build starts
 * before any cell that reads the buffer while it packs. The one
 * exception is submitAhead: such a job jumps every submit() job still
 * queued (and stays behind earlier submitAhead jobs), which lets the
 * grid replay a finished pass's monitor lanes, and free its miss log,
 * before it starts another pass. Submissions return std::future so
 * exceptions thrown inside a job surface at the caller's get(), and
 * the destructor drains every queued job before joining.
 *
 * Sizing: std::thread::hardware_concurrency() by default, overridden
 * by the EMISSARY_JOBS environment variable.
 */

#ifndef EMISSARY_CORE_THREADPOOL_HH
#define EMISSARY_CORE_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace emissary::core
{

/** A fixed-size pool of workers sharing one FIFO job queue. */
class ThreadPool
{
  public:
    /**
     * @param workers Worker thread count; 0 picks
     *        defaultWorkerCount().
     */
    explicit ThreadPool(unsigned workers = 0);

    /** Drains every queued job, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue @p fn behind every job submitted before it. The returned
     * future yields the job's result, or rethrows whatever the job
     * threw.
     */
    template <typename F>
    std::future<std::invoke_result_t<std::decay_t<F>>>
    submit(F &&fn)
    {
        return enqueue(std::forward<F>(fn), false);
    }

    /**
     * Queue @p fn ahead of every submit() job still queued, behind
     * every submitAhead() job still queued. Otherwise as submit().
     */
    template <typename F>
    std::future<std::invoke_result_t<std::decay_t<F>>>
    submitAhead(F &&fn)
    {
        return enqueue(std::forward<F>(fn), true);
    }

    unsigned
    workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** The most workers a count from the user may ask for:
     *  EMISSARY_JOBS is clamped to it, and every tool's --jobs (and
     *  emissary_client's --concurrency) rejects more. */
    static constexpr unsigned kMaxWorkers = 4096;

    /** EMISSARY_JOBS if set (strictly parsed), else
     *  hardware_concurrency(), clamped to [1, kMaxWorkers]. */
    static unsigned defaultWorkerCount();

    /**
     * Execute the oldest queued job on the calling thread, if any is
     * queued. Callable from a pool worker (inside a job) or from any
     * external thread. The building block that lets a job submit
     * sub-jobs to its own pool and then *help* execute them instead
     * of blocking a worker on their futures — which would deadlock
     * once every worker waits.
     *
     * @return False when the queue was empty.
     */
    bool tryRunOne();

    /**
     * Run queued jobs on the calling thread until @p pending()
     * returns false. When no job is runnable but work is still
     * pending (the remaining jobs are executing on other workers),
     * the call naps briefly and re-checks. Termination is the
     * caller's contract: @p pending must eventually go false without
     * this thread executing anything further (e.g. a completion
     * counter advanced by the sub-jobs themselves, which must never
     * block on this pool).
     */
    void helpWhile(const std::function<bool()> &pending);

    /**
     * Index of the calling thread within its owning pool, or -1 when
     * the caller is not a pool worker. Jobs use it to attribute work
     * to a stable per-worker identity (the flight recorder's
     * "worker-N" tracks) without threading the pool through every
     * call.
     */
    static int currentWorkerIndex();

  private:
    template <typename F>
    std::future<std::invoke_result_t<std::decay_t<F>>>
    enqueue(F &&fn, bool ahead)
    {
        using Result = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> future = task->get_future();
        post([task]() { (*task)(); }, ahead);
        return future;
    }

    void post(std::function<void()> job, bool ahead);
    /** The oldest queued job, removed (the queue must not be empty). */
    std::function<void()> take();
    void workerLoop(unsigned self);

    std::mutex mutex_;
    std::condition_variable wake_;
    /** The first ahead_ jobs were queued by submitAhead. */
    std::deque<std::function<void()>> jobs_;
    std::size_t ahead_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace emissary::core

#endif // EMISSARY_CORE_THREADPOOL_HH
