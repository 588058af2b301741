#include "circuit/ro_frequency_cache.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <tuple>

#include "util/env.h"
#include "util/logging.h"
#include "util/numeric.h"

namespace fs {
namespace circuit {

namespace {

/** Grid start: far below any oscillation cutoff for any sane speed. */
constexpr double kGridLo = 0.05;
/** Uniform grid spacing (V). */
constexpr double kGridStep = 1e-3;

/**
 * Fritsch-Carlson shape-preserving derivatives for uniformly spaced
 * data: zero at local extrema, harmonic mean of adjacent secants
 * elsewhere. Guarantees the cubic never overshoots, so monotone data
 * stays monotone and the high-voltage hump is reproduced without
 * ringing.
 */
std::vector<double>
pchipDerivatives(const std::vector<double> &y, double h)
{
    const std::size_t n = y.size();
    std::vector<double> d(n, 0.0);
    if (n < 2)
        return d;
    std::vector<double> delta(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i)
        delta[i] = (y[i + 1] - y[i]) / h;
    for (std::size_t i = 1; i + 1 < n; ++i) {
        const double a = delta[i - 1], b = delta[i];
        d[i] = (a * b <= 0.0) ? 0.0 : 2.0 * a * b / (a + b);
    }
    // One-sided three-point endpoint formula, clamped to preserve
    // shape near the boundary.
    auto endpoint = [](double d0, double d1) {
        double g = 1.5 * d0 - 0.5 * d1;
        if (g * d0 <= 0.0)
            g = 0.0;
        else if (d0 * d1 < 0.0 && std::fabs(g) > 3.0 * std::fabs(d0))
            g = 3.0 * d0;
        return g;
    };
    d[0] = n > 2 ? endpoint(delta[0], delta[1]) : delta[0];
    d[n - 1] =
        n > 2 ? endpoint(delta[n - 2], delta[n - 3]) : delta[n - 2];
    return d;
}

} // namespace

RoFrequencyCache::RoFrequencyCache(const Technology &tech,
                                   std::size_t stages, InverterCell cell,
                                   double temp_c)
    : ro_(tech, stages, 1.0, cell), temp_c_(temp_c), lo_(kGridLo),
      hi_(tech.vddMax()), step_(kGridStep)
{
    FS_ASSERT(hi_ > lo_, "technology vddMax below the cache grid");
    const std::size_t n =
        std::size_t(std::ceil((hi_ - lo_) / step_)) + 1;
    hi_ = lo_ + step_ * double(n - 1);
    logf_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        logf_[i] =
            std::log(ro_.frequency(lo_ + step_ * double(i), temp_c_));
    dlogf_ = pchipDerivatives(logf_, step_);
}

double
RoFrequencyCache::baseFrequency(double v) const
{
    if (v >= hi_)
        return ro_.frequency(v, temp_c_);
    const double t = (v - lo_) / step_;
    std::size_t i = std::size_t(t);
    if (i + 1 >= logf_.size())
        i = logf_.size() - 2;
    const double s = t - double(i);
    const double h00 = (1.0 + 2.0 * s) * (1.0 - s) * (1.0 - s);
    const double h10 = s * (1.0 - s) * (1.0 - s);
    const double h01 = s * s * (3.0 - 2.0 * s);
    const double h11 = s * s * (s - 1.0);
    return std::exp(h00 * logf_[i] + h10 * step_ * dlogf_[i] +
                    h01 * logf_[i + 1] + h11 * step_ * dlogf_[i + 1]);
}

double
RoFrequencyCache::baseLogSlope(double v) const
{
    const double t = (v - lo_) / step_;
    std::size_t i = std::size_t(t);
    if (i + 1 >= logf_.size())
        i = logf_.size() - 2;
    const double s = t - double(i);
    const double g00 = 6.0 * s * s - 6.0 * s;
    const double g10 = 3.0 * s * s - 4.0 * s + 1.0;
    const double g01 = 6.0 * s - 6.0 * s * s;
    const double g11 = 3.0 * s * s - 2.0 * s;
    return (g00 * logf_[i] + g01 * logf_[i + 1]) / step_ +
           g10 * dlogf_[i] + g11 * dlogf_[i + 1];
}

double
RoFrequencyCache::frequency(double v, double speed) const
{
    if (v <= lo_)
        return 0.0;
    const double f = speed * baseFrequency(v);
    return f >= RingOscillator::kMinOscillationHz ? f : 0.0;
}

double
RoFrequencyCache::sensitivity(double v, double speed) const
{
    const double f = frequency(v, speed);
    if (f <= 0.0)
        return 0.0;
    if (v >= hi_)
        return speed * ro_.sensitivity(v, temp_c_);
    return f * baseLogSlope(v);
}

double
RoFrequencyCache::dynamicCurrent(double v, double speed) const
{
    const double f = frequency(v, speed);
    if (f <= 0.0)
        return 0.0;
    // I = C_sw * v / (2 tau) and f = 1 / (2 n tau), so I = C v n f.
    return tech().switchedCap() * v * double(stages()) * f;
}

double
RoFrequencyCache::minOscillationVoltage(double speed) const
{
    if (frequency(hi_, speed) <= 0.0)
        return hi_;
    const double target =
        std::log(RingOscillator::kMinOscillationHz / speed);
    if (logf_.front() >= target)
        return lo_;
    // The low-voltage side of the curve is strictly increasing, so the
    // first grid point above the cutoff brackets the crossing.
    std::size_t i = 1;
    while (i < logf_.size() && logf_[i] < target)
        ++i;
    if (i >= logf_.size())
        return hi_;
    return bisect(
        [&](double v) {
            return frequency(v, speed) -
                   RingOscillator::kMinOscillationHz;
        },
        lo_ + step_ * double(i - 1), lo_ + step_ * double(i), 1e-6);
}

const RoFrequencyCache &
RoFrequencyCache::shared(const Technology &tech, std::size_t stages,
                         InverterCell cell, double temp_c)
{
    using Key = std::tuple<const Technology *, std::size_t, int, double>;
    static std::shared_mutex mutex;
    static std::map<Key, std::unique_ptr<RoFrequencyCache>> registry;
    const Key key{&tech, stages, int(cell), temp_c};
    {
        std::shared_lock<std::shared_mutex> lock(mutex);
        const auto it = registry.find(key);
        if (it != registry.end())
            return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mutex);
    auto &slot = registry[key];
    if (!slot)
        slot = std::make_unique<RoFrequencyCache>(tech, stages, cell,
                                                  temp_c);
    return *slot;
}

bool
RoFrequencyCache::enabled()
{
    static const bool on = !util::envFlag("FS_NO_RO_CACHE");
    return on;
}

} // namespace circuit
} // namespace fs
