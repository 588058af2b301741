/**
 * @file
 * FRAM-class non-volatile memory with write accounting and realistic
 * failure semantics. Checkpoints land here; the byte/write counters
 * let the system model charge the checkpoint's time and energy cost
 * (Section V-D-b), and the tear hooks let the fault injector model
 * power death mid-store: only a prefix of the bytes commits and the
 * remainder keeps its old contents with optional bit noise.
 */

#ifndef FS_SOC_NVM_H_
#define FS_SOC_NVM_H_

#include <array>
#include <functional>
#include <vector>

#include "riscv/memory.h"
#include "soc/snapshot.h"

namespace fs {
namespace soc {

class Nvm : public riscv::Ram
{
  public:
    /**
     * Decides the fate of one data write. Return true to tear it,
     * setting bytesKept (committed prefix length) and flipMask
     * (per-byte-lane XOR noise applied to the torn remainder).
     */
    using WriteFilter = std::function<bool(
        std::uint32_t addr, std::uint32_t value, unsigned bytes,
        unsigned &bytesKept, std::uint32_t &flipMask)>;

    explicit Nvm(std::uint32_t bytes)
        : riscv::Ram(bytes, /*non_volatile=*/true)
    {
    }

    std::uint32_t read(std::uint32_t addr, unsigned bytes) override;
    void write(std::uint32_t addr, std::uint32_t value,
               unsigned bytes) override;

    /** Direct windows over every byte outside the watched ranges. */
    std::vector<riscv::DirectWindow> directWindows() override;

    /**
     * Watch reads of @p ranges (sorted, disjoint; an empty list ends
     * the watch): they leave the direct windows, so every load or
     * fetch of them comes through read(), which calls @p on_read for
     * each one that overlaps a range. Stores are not reads. A hart
     * must re-read the windows afterwards (Soc::watchFramReads).
     */
    void watchReads(std::vector<ByteRange> ranges,
                    std::function<void()> on_read);

    /** Install (or clear, with nullptr) the tear filter. */
    void setWriteFilter(WriteFilter filter)
    {
        filter_ = std::move(filter);
    }

    /**
     * Retroactively tear the most recent data write: power died while
     * the store was in flight. The first bytesKept bytes stay
     * committed; the rest revert to their pre-write contents XORed
     * with flipMask's matching byte lanes. Returns false when there
     * is no tearable write (nothing written yet, or the last write
     * was already torn / narrower than the kept prefix).
     */
    bool tearLastWrite(unsigned bytesKept, std::uint32_t flipMask);

    std::uint64_t bytesWritten() const { return bytes_written_; }
    void resetStats() { bytes_written_ = 0; }

  private:
    struct LastWrite {
        std::uint32_t addr = 0;
        unsigned bytes = 0;
        std::array<std::uint8_t, 4> preImage{};
        bool tearable = false;
    };

    WriteFilter filter_;
    std::vector<ByteRange> watched_;
    std::function<void()> on_watched_read_;
    LastWrite last_;
    std::uint64_t bytes_written_ = 0;
};

} // namespace soc
} // namespace fs

#endif // FS_SOC_NVM_H_
