#include "riscv/memory.h"

#include <algorithm>

#include "util/logging.h"

namespace fs {
namespace riscv {

MemoryDevice::~MemoryDevice() = default;

std::vector<DirectWindow>
MemoryDevice::directWindows()
{
    return {};
}

Ram::Ram(std::uint32_t bytes, bool non_volatile)
    : data_(bytes, 0), non_volatile_(non_volatile)
{
}

std::uint32_t
Ram::read(std::uint32_t addr, unsigned bytes)
{
    FS_ASSERT(bytes == 1 || bytes == 2 || bytes == 4,
              "bad access width: ", bytes);
    if (std::uint64_t(addr) + bytes > data_.size())
        fatal("RAM read out of bounds: addr=", addr, " size=", data_.size());
    std::uint32_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint32_t(data_[addr + i]) << (8 * i);
    return v;
}

void
Ram::write(std::uint32_t addr, std::uint32_t value, unsigned bytes)
{
    FS_ASSERT(bytes == 1 || bytes == 2 || bytes == 4,
              "bad access width: ", bytes);
    if (std::uint64_t(addr) + bytes > data_.size())
        fatal("RAM write out of bounds: addr=", addr,
              " size=", data_.size());
    for (unsigned i = 0; i < bytes; ++i)
        data_[addr + i] = std::uint8_t(value >> (8 * i));
    ++writes_;
}

std::vector<DirectWindow>
Ram::directWindows()
{
    // The backing vector is sized once at construction, so the
    // pointer stays valid for the device's lifetime. Writes resolve
    // to the device itself (Nvm inherits this and keeps its write
    // filter in the loop).
    DirectWindow w;
    w.base = 0;
    w.span = size();
    w.data = data_.data();
    w.device = this;
    w.deviceBase = 0;
    return {w};
}

void
Ram::powerFail()
{
    if (!non_volatile_)
        std::fill(data_.begin(), data_.end(), 0);
}

void
Ram::loadWords(std::uint32_t offset, const std::vector<std::uint32_t> &words)
{
    FS_ASSERT(std::uint64_t(offset) + words.size() * 4 <= data_.size(),
              "program image exceeds RAM");
    for (std::size_t i = 0; i < words.size(); ++i) {
        for (unsigned b = 0; b < 4; ++b) {
            data_[offset + 4 * i + b] =
                std::uint8_t(words[i] >> (8 * b));
        }
    }
}

} // namespace riscv
} // namespace fs
