#include "util/random.h"

namespace fs {

namespace {

/** MT19937-64's twist of word pair (@p hi, @p lo) into @p far. */
inline std::uint64_t
twistWord(std::uint64_t far, std::uint64_t hi, std::uint64_t lo)
{
    constexpr std::uint64_t kUpper = ~std::uint64_t(0) << 31;
    const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ ((y & 1) ? 0xB5026F5AA96619E9ULL : 0);
}

} // namespace

void
Mt19937_64::refill()
{
    if (next_ == kN) {
        // A later generation: std's twist over the whole state.
        twistFrom(0);
        next_ = 0;
        return;
    }
    // The first generation: words below ready_ (= next_) are twisted,
    // the rest still hold seed words, as far as seeded_.
    const std::size_t seed_to = next_ < kLazyDraws ? next_ + kM + 1 : kN;
    if (seeded_ < seed_to) {
        // Locals: x_'s words and seeded_ may alias, so a loop over the
        // members would store and reload seeded_ on every word.
        std::uint64_t prev = x_[seeded_ - 1];
        for (std::size_t k = seeded_; k < seed_to; ++k)
            x_[k] = prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + k;
        seeded_ = seed_to;
    }
    if (next_ < kLazyDraws) {
        x_[next_] = twistWord(x_[next_ + kM], x_[next_], x_[next_ + 1]);
        ready_ = next_ + 1;
        return;
    }
    twistFrom(next_);
    ready_ = kN;
}

void
Mt19937_64::twistFrom(std::size_t first)
{
    for (std::size_t k = first; k < kN - kM; ++k)
        x_[k] = twistWord(x_[k + kM], x_[k], x_[k + 1]);
    for (std::size_t k = kN - kM; k < kN - 1; ++k)
        x_[k] = twistWord(x_[k + kM - kN], x_[k], x_[k + 1]);
    x_[kN - 1] = twistWord(x_[kM - 1], x_[kN - 1], x_[0]);
}

} // namespace fs
