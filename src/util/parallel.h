/**
 * @file
 * Deterministic parallel execution: a shared thread pool plus
 * order-preserving parallelFor/parallelMap helpers.
 *
 * Design contract: callers generate all RNG-consuming work *before*
 * fanning out (or derive per-item streams with rngForIndex), and each
 * item writes only to its own output slot. Under that contract a run is
 * bit-identical at any thread count, including a plain sequential run,
 * which is what test_parallel_determinism locks in.
 */

#ifndef FS_UTIL_PARALLEL_H_
#define FS_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/random.h"

namespace fs {
namespace util {

/**
 * A persistent pool of worker threads. The calling thread participates
 * in the work, so a pool with threadCount() == 1 has no workers and
 * runs everything inline.
 *
 * Concurrency contract: one job (a parallelFor) runs at a time. Any
 * number of external threads may call parallelFor/parallelMap on the
 * same pool concurrently; each call holds the pool's job lock for its
 * whole fan-out, so callers serialise and never share a job slot.
 * Calls from inside a pool body -- on this pool or any other -- run
 * inline on the calling thread and never take the lock, so nesting
 * cannot deadlock.
 */
class ThreadPool
{
  public:
    /** @param threads 0 = configuredThreads(); otherwise exact count. */
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return thread_count_; }

    /**
     * Run body(i) for i in [0, n). Indices are claimed dynamically but
     * results must be written to per-index slots; the call returns only
     * once every index has completed. The first exception thrown by any
     * body is rethrown on the calling thread (after all indices drain).
     * Calls from inside a pool body run inline (no nested fan-out).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Order-preserving map: out[i] = fn(i), evaluated in parallel.
     * Output order is by index regardless of completion order.
     */
    template <typename Fn>
    auto
    parallelMap(std::size_t n, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn, std::size_t>>
    {
        using R = std::invoke_result_t<Fn, std::size_t>;
        static_assert(!std::is_same_v<R, bool>,
                      "vector<bool> slots alias bits across threads");
        std::vector<R> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Process-wide pool sized by configuredThreads(). Constructed on
     * first use; lives until exit.
     */
    static ThreadPool &shared();

    /**
     * Thread count requested by the environment: FS_THREADS if set
     * (clamped to [1, 256]), else std::thread::hardware_concurrency().
     */
    static std::size_t configuredThreads();

  private:
    void workerLoop();
    void runShare(const std::function<void(std::size_t)> *body,
                  std::size_t n);

    std::size_t thread_count_ = 1;
    std::vector<std::thread> workers_;

    /** Held by an external caller for its whole fan-out: one job at a
     *  time owns the slot below. */
    std::mutex job_mu_;

    std::mutex mutex_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t n_ = 0;
    std::uint64_t generation_ = 0;
    std::size_t pending_workers_ = 0;
    std::exception_ptr error_;
    bool stop_ = false;

    /** Dynamic index dispenser for the current job. */
    std::atomic<std::size_t> next_{0};
};

/**
 * splitmix64-style mix of a campaign seed with an item index. Distinct
 * indices get decorrelated streams; the mapping is a pure function, so
 * it is identical at any thread count.
 */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index);

/** Independent per-item RNG stream derived from the campaign seed. */
inline Rng
rngForIndex(std::uint64_t seed, std::uint64_t index)
{
    return Rng(mixSeed(seed, index));
}

} // namespace util
} // namespace fs

#endif // FS_UTIL_PARALLEL_H_
