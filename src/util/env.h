/**
 * @file
 * Hardened environment-knob parsing.
 *
 * Every FS_* tuning knob (FS_THREADS, FS_DBT_CACHE_BYTES, FS_SWARM_*)
 * goes through these helpers instead of a bare strtoull so that
 * garbage or out-of-range values fall back to the documented default
 * with a one-line stderr warning -- never a silent parse to 0 that
 * turns a typo into a behavior change. The
 * warning is emitted once per variable per process so a knob read in
 * a hot path does not spam.
 */

#ifndef FS_UTIL_ENV_H_
#define FS_UTIL_ENV_H_

#include <cstdint>

namespace fs {
namespace util {

/**
 * Parse the environment variable `name` as an unsigned integer
 * (decimal, or hex with 0x). Unset returns `def`; set-but-garbage
 * (empty, non-numeric, trailing junk) or outside [lo, hi] warns once
 * on stderr and returns `def`.
 */
std::uint64_t envU64(const char *name, std::uint64_t def,
                     std::uint64_t lo, std::uint64_t hi);

/** envU64 for floating-point knobs; NaN/inf count as garbage. */
double envDouble(const char *name, double def, double lo, double hi);

/**
 * Kill-switch style flag: true when `name` is set to anything but the
 * empty string or "0". Every FS_NO_* switch is read through this, so
 * `FS_NO_X=0` and `FS_NO_X=` mean the same as leaving it unset.
 */
bool envFlag(const char *name);

/** Testing hook: forget which variables have already warned. */
void resetEnvWarnings();

} // namespace util
} // namespace fs

#endif // FS_UTIL_ENV_H_
