/**
 * @file
 * Shared FNV-1a hashing. One implementation for every subsystem that
 * needs a fast, seedable, endian-stable content hash: the serve-layer
 * result cache and request keys, the fleet consistent-hash ring, and
 * the SoC snapshot / convergence-memo state hashes. Deduplicating the
 * copies keeps the constants (and therefore every on-disk digest and
 * ring placement) in one place.
 */

#ifndef FS_UTIL_HASH_H_
#define FS_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fs {
namespace util {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** 64-bit FNV-1a over a byte range; chainable via the seed. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t seed = kFnvOffsetBasis)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Convenience overload for byte vectors (memory images). */
inline std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes,
        std::uint64_t seed = kFnvOffsetBasis)
{
    return fnv1a64(bytes.data(), bytes.size(), seed);
}

/**
 * Bulk hash: FNV-1a mixing over 8-byte words with a byte-wise tail,
 * ~8x the throughput of the canonical byte stream. NOT the same digest
 * as fnv1a64() -- use it only for hashes that never leave the process
 * (snapshot page hashes, memo keys) and are backed by a byte-exact
 * comparison.
 */
inline std::uint64_t
hashImage64(const void *data, std::size_t len,
            std::uint64_t seed = kFnvOffsetBasis)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w; // memcpy: p has no alignment guarantee
        __builtin_memcpy(&w, p + i, 8);
        h ^= w;
        h *= kFnvPrime;
    }
    for (; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

} // namespace util
} // namespace fs

#endif // FS_UTIL_HASH_H_
