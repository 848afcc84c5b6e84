#include "core/threadpool.hh"

#include <algorithm>
#include <chrono>

#include "core/experiment.hh"

namespace emissary::core
{

namespace
{
thread_local int current_worker_index = -1;
} // namespace

int
ThreadPool::currentWorkerIndex()
{
    return current_worker_index;
}

ThreadPool::ThreadPool(unsigned workers)
{
    const unsigned count =
        workers > 0 ? workers : defaultWorkerCount();
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this, i]() { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

unsigned
ThreadPool::defaultWorkerCount()
{
    const unsigned hardware =
        std::max(1u, std::thread::hardware_concurrency());
    const std::uint64_t jobs = envU64("EMISSARY_JOBS", hardware);
    return static_cast<unsigned>(
        std::clamp<std::uint64_t>(jobs, 1, 4096));
}

void
ThreadPool::post(std::function<void()> job, bool ahead)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (ahead)
            jobs_.insert(jobs_.begin() + static_cast<std::ptrdiff_t>(ahead_++),
                         std::move(job));
        else
            jobs_.push_back(std::move(job));
    }
    wake_.notify_one();
}

std::function<void()>
ThreadPool::take()
{
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    if (ahead_ > 0)
        --ahead_;
    return job;
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (jobs_.empty())
            return false;
        job = take();
    }
    job();
    return true;
}

void
ThreadPool::helpWhile(const std::function<bool()> &pending)
{
    while (pending()) {
        if (tryRunOne())
            continue;
        // Nothing runnable: the outstanding jobs are on other
        // workers. Sub-job granularity is milliseconds-plus
        // (simulation chunks), so a short nap beats a condition
        // variable here — no wakeup plumbing on the job completion
        // path.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    current_worker_index = static_cast<int>(self);
    while (true) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this]() { return stopping_ || !jobs_.empty(); });
            // Stopping with an empty queue: every job has drained.
            if (jobs_.empty())
                return;
            job = take();
        }
        job();
    }
}

} // namespace emissary::core
