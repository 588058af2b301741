/**
 * @file
 * Content-addressed result cache for the serve engine.
 *
 * Responses are stored under the FNV-1a hash of the canonical request
 * bytes (serve::requestKey), so any client that re-issues a logically
 * identical request — across benches, processes, or daemon restarts —
 * gets the stored bytes back without re-simulation. Because the
 * engine's execution is bit-deterministic, a cache hit returns
 * exactly the bytes a cold run would have produced; test_serve locks
 * that equivalence in.
 *
 * Two tiers: a bounded in-memory LRU (byte-sized, not entry-counted),
 * and an optional on-disk spill directory written through on insert.
 * Spill files are self-describing single-frame wire messages
 * (fs-<16-hex-digit-key>.fsr) followed by an 8-byte FNV-1a digest of
 * the frame bytes, so a daemon can warm-start from the directory and
 * damage is detected the same way for every failure mode: stale
 * files by magic/version, crash-mid-write truncation by the frame
 * length, and silent bit rot by the digest. A spill file that fails
 * any of those checks is *discarded on load* -- deleted and counted
 * in Stats::spillDiscarded -- so the entry is recomputed instead of
 * ever serving garbage, and the bad file cannot keep failing reads.
 * The FS_NO_SERVE_CACHE environment kill switch makes the engine
 * bypass lookups and inserts entirely.
 */

#ifndef FS_SERVE_RESULT_CACHE_H_
#define FS_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/wire.h"

namespace fs {
namespace serve {

class ResultCache
{
  public:
    struct Stats {
        std::uint64_t hits = 0;     ///< in-memory hits
        std::uint64_t diskHits = 0; ///< spill-directory hits
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        /** Truncated/corrupt spill files deleted on load. */
        std::uint64_t spillDiscarded = 0;
    };

    /**
     * @param max_bytes in-memory budget (payload bytes)
     * @param spill_dir on-disk spill directory; "" disables spilling.
     *        Created on first insert if missing.
     */
    explicit ResultCache(std::size_t max_bytes = 64u << 20,
                         std::string spill_dir = "");

    /** False when the FS_NO_SERVE_CACHE kill switch is set. */
    static bool enabled();

    /**
     * Look up a response by content address. Checks memory first,
     * then the spill directory (promoting a disk hit back into
     * memory). @return true with `kind`/`payload` filled on a hit.
     */
    bool lookup(std::uint64_t key, MsgKind &kind,
                std::vector<std::uint8_t> &payload);

    /** Store a response; writes through to the spill dir if set. */
    void insert(std::uint64_t key, MsgKind kind,
                const std::vector<std::uint8_t> &payload);

    Stats stats() const;
    std::size_t entryCount() const;
    std::size_t bytesUsed() const;
    const std::string &spillDir() const { return spill_dir_; }

    /** Spill file path for a key (for tests and tooling). */
    std::string spillPath(std::uint64_t key) const;

  private:
    struct Entry;
    /** A map element; its address is stable, so the LRU list links
     *  elements directly. */
    using Slot = std::pair<const std::uint64_t, Entry>;

    /**
     * One cached response: a fleet caches every distinct result on
     * two workers, and a typical payload is tens of bytes, so an
     * entry is one map node plus one payload array -- no separate
     * list node and no vector capacity.
     */
    struct Entry {
        std::unique_ptr<std::uint8_t[]> payload;
        std::size_t size = 0;
        MsgKind kind = MsgKind::kErrorReply;
        Slot *newer = nullptr; ///< toward the most recently used
        Slot *older = nullptr; ///< toward the eviction end
    };

    void unlink(Slot &slot);
    void pushNewest(Slot &slot);
    void insertLocked(std::uint64_t key, MsgKind kind,
                      const std::vector<std::uint8_t> &payload);
    bool readSpill(std::uint64_t key, MsgKind &kind,
                   std::vector<std::uint8_t> &payload);
    void writeSpill(std::uint64_t key, MsgKind kind,
                    const std::vector<std::uint8_t> &payload);

    mutable std::mutex mutex_;
    std::size_t max_bytes_;
    std::string spill_dir_;
    bool spill_dir_ready_ = false;
    std::size_t bytes_used_ = 0;
    std::unordered_map<std::uint64_t, Entry> entries_;
    Slot *newest_ = nullptr; ///< LRU list ends
    Slot *oldest_ = nullptr;
    Stats stats_;
};

} // namespace serve
} // namespace fs

#endif // FS_SERVE_RESULT_CACHE_H_
