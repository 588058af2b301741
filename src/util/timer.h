/**
 * @file
 * Monotonic wall-clock stopwatch for timed bench phases and analysis
 * passes.
 */

#ifndef FS_UTIL_TIMER_H_
#define FS_UTIL_TIMER_H_

#include <chrono>

namespace fs {
namespace util {

/** Monotonic stopwatch. */
class Timer
{
  public:
    Timer() : start_(Clock::now()) {}

    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_)
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace util
} // namespace fs

#endif // FS_UTIL_TIMER_H_
