#include "util/parallel.h"

#include <algorithm>
#include <cstdlib>

#include "util/env.h"

namespace fs {
namespace util {

namespace {

/** Set while this thread is executing a pool body; gates nesting. */
thread_local bool t_in_pool_body = false;

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    thread_count_ = threads == 0 ? configuredThreads() : threads;
    thread_count_ = std::max<std::size_t>(1, thread_count_);
    // The caller is one of the workers, so spawn count - 1 threads.
    workers_.reserve(thread_count_ - 1);
    for (std::size_t i = 0; i + 1 < thread_count_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::runShare(const std::function<void(std::size_t)> *body,
                     std::size_t n)
{
    t_in_pool_body = true;
    for (;;) {
        const std::size_t i =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            break;
        try {
            (*body)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
    t_in_pool_body = false;
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::size_t)> *body = nullptr;
        std::size_t n = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_work_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            body = body_;
            n = n_;
        }
        runShare(body, n);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_workers_ == 0)
                cv_done_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Inline paths: a 1-thread pool, trivial jobs, and nested calls
    // from inside a pool body (re-entrant fan-out would deadlock the
    // shared job slot, and the outer job already owns the threads).
    if (thread_count_ == 1 || n == 1 || t_in_pool_body) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    // External callers serialise here for the whole job: the slot
    // (body_, n_, next_, pending_workers_) belongs to one call at a
    // time.
    std::lock_guard<std::mutex> job(job_mu_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        body_ = &body;
        n_ = n;
        next_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        pending_workers_ = workers_.size();
        ++generation_;
    }
    cv_work_.notify_all();
    runShare(&body, n);
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_done_.wait(lock, [&] { return pending_workers_ == 0; });
        body_ = nullptr;
        error = error_;
        error_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool(0);
    return pool;
}

std::size_t
ThreadPool::configuredThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const std::uint64_t def = hw == 0 ? 1 : hw;
    return std::size_t(envU64("FS_THREADS", def, 1, 256));
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 finalizer over seed + index * golden-ratio increment.
    std::uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace util
} // namespace fs
