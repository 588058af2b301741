/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng instance so simulations and tests are reproducible. Rng's
 * engine is Mt19937_64, which yields exactly std::mt19937_64's stream
 * for the same seed but seeds its first generation lazily: a stream
 * that makes only a few draws (one per campaign kill, say) costs about
 * half the seeding and a few words of the twist, not all 312 of each.
 */

#ifndef FS_UTIL_RANDOM_H_
#define FS_UTIL_RANDOM_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

namespace fs {

/**
 * MT19937-64 with std::mt19937_64's output for every seed.
 *
 * Output word k < 156 of the first generation needs only seed words k,
 * k + 1 and k + 156, so the first kLazyDraws draws seed just that far
 * and twist one word each. The next draw seeds the rest and finishes
 * the generation in bulk; from then on every generation is std's
 * three-loop twist.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    explicit Mt19937_64(result_type seed) { x_[0] = seed; }

    result_type
    operator()()
    {
        if (next_ >= ready_)
            refill();
        result_type z = x_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;
    /** First-generation draws served a word at a time. */
    static constexpr std::size_t kLazyDraws = 8;
    static_assert(kLazyDraws < kN - kM, "lazy words must not wrap");

    /** Make x_[next_] the next output word. */
    void refill();
    /** std's three-loop twist of words x_[first, kN); x_[0, first)
     *  are already twisted. */
    void twistFrom(std::size_t first);

    /** x_[0, seeded_) hold seed words or, below ready_, their twist;
     *  the rest are not yet written. */
    std::array<result_type, kN> x_;
    std::size_t seeded_ = 1;
    std::size_t ready_ = 0; ///< x_[0, ready_) are this generation's
    std::size_t next_ = 0;  ///< the next output word
};

/** Seedable MT19937-64 stream with convenience draws. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0xf5f5f5f5ULL) : engine_(seed) {}

    /** Uniform real in [lo, hi). */
    double
    uniform(double lo = 0.0, double hi = 1.0)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** True with probability p. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    /** Pick a random index into a container of the given size. */
    std::size_t
    index(std::size_t size)
    {
        return size == 0 ? 0
                         : std::size_t(uniformInt(0,
                               std::int64_t(size) - 1));
    }

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        std::shuffle(v.begin(), v.end(), engine_);
    }

  private:
    Mt19937_64 engine_;
};

} // namespace fs

#endif // FS_UTIL_RANDOM_H_
