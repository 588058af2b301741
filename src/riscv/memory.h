/**
 * @file
 * Memory abstraction for the RISC-V hart: a byte-addressed interface
 * plus a simple RAM implementation with volatile/non-volatile
 * semantics (SRAM loses its contents on power failure, FRAM keeps
 * them -- the distinction the checkpointing runtime exists to bridge).
 */

#ifndef FS_RISCV_MEMORY_H_
#define FS_RISCV_MEMORY_H_

#include <cstdint>
#include <vector>

namespace fs {
namespace riscv {

class MemoryDevice;

/**
 * A contiguous address range whose reads can be served from a raw host
 * pointer, bypassing virtual dispatch entirely. Only reads: writes must
 * still go through the owning device so side effects (NVM write
 * filters, tear bookkeeping, write counters) are never skipped -- the
 * window just pre-resolves the dispatch target.
 */
struct DirectWindow {
    std::uint32_t base = 0;   ///< first covered address
    std::uint32_t span = 0;   ///< bytes covered
    const std::uint8_t *data = nullptr; ///< host view for raw loads
    MemoryDevice *device = nullptr;     ///< dispatch target for writes
    std::uint32_t deviceBase = 0; ///< address of the device's offset 0

    bool
    contains(std::uint32_t addr, unsigned bytes) const
    {
        return addr >= base &&
               std::uint64_t(addr) + bytes <=
                   std::uint64_t(base) + span;
    }
};

/** Byte-addressed memory target. Addresses are bus-relative. */
class MemoryDevice
{
  public:
    virtual ~MemoryDevice();

    virtual std::uint32_t read(std::uint32_t addr, unsigned bytes) = 0;
    virtual void write(std::uint32_t addr, std::uint32_t value,
                       unsigned bytes) = 0;
    virtual std::uint32_t size() const = 0;

    /**
     * Address ranges (device-relative) whose reads are side-effect
     * free and may be served straight from host memory. Default: none
     * (MMIO devices must stay on the virtual path). Pointers must stay
     * valid for the device's lifetime.
     */
    virtual std::vector<DirectWindow> directWindows();
};

/** Plain RAM; optionally non-volatile. */
class Ram : public MemoryDevice
{
  public:
    /**
     * @param bytes       capacity
     * @param non_volatile survives powerFail()
     */
    explicit Ram(std::uint32_t bytes, bool non_volatile = false);

    std::uint32_t read(std::uint32_t addr, unsigned bytes) override;
    void write(std::uint32_t addr, std::uint32_t value,
               unsigned bytes) override;
    std::uint32_t size() const override { return std::uint32_t(data_.size()); }
    std::vector<DirectWindow> directWindows() override;

    bool nonVolatile() const { return non_volatile_; }

    /** Power failure: volatile contents decay to zero. */
    void powerFail();

    /** Raw contents for test inspection / program loading. */
    std::vector<std::uint8_t> &data() { return data_; }
    const std::vector<std::uint8_t> &data() const { return data_; }

    /** Copy a program image (little-endian words) at an offset. */
    void loadWords(std::uint32_t offset,
                   const std::vector<std::uint32_t> &words);

    std::uint64_t writeCount() const { return writes_; }

  private:
    std::vector<std::uint8_t> data_;
    bool non_volatile_;
    std::uint64_t writes_ = 0;
};

} // namespace riscv
} // namespace fs

#endif // FS_RISCV_MEMORY_H_
