#include "soc/nvm.h"

#include <algorithm>

namespace fs {
namespace soc {

std::uint32_t
Nvm::read(std::uint32_t addr, unsigned bytes)
{
    if (on_watched_read_)
        for (const ByteRange &r : watched_)
            if (addr < r.end && addr + bytes > r.begin)
                on_watched_read_();
    return riscv::Ram::read(addr, bytes);
}

std::vector<riscv::DirectWindow>
Nvm::directWindows()
{
    const riscv::DirectWindow whole = riscv::Ram::directWindows().front();
    std::vector<riscv::DirectWindow> out;
    std::uint32_t cursor = 0;
    const auto keep = [&](std::uint32_t end) {
        if (end > cursor) {
            riscv::DirectWindow w = whole;
            w.base = cursor;
            w.span = end - cursor;
            w.data = whole.data + cursor;
            out.push_back(w);
        }
    };
    for (const ByteRange &r : watched_) {
        keep(r.begin);
        cursor = std::max(cursor, r.end);
    }
    keep(whole.span);
    return out;
}

void
Nvm::watchReads(std::vector<ByteRange> ranges, std::function<void()> on_read)
{
    watched_ = std::move(ranges);
    on_watched_read_ = std::move(on_read);
}

void
Nvm::write(std::uint32_t addr, std::uint32_t value, unsigned bytes)
{
    // Record the pre-image so a power failure during this store can
    // tear it retroactively (tearLastWrite).
    last_.addr = addr;
    last_.bytes = bytes;
    last_.tearable = true;
    for (unsigned i = 0; i < bytes && i < last_.preImage.size(); ++i)
        last_.preImage[i] = std::uint8_t(riscv::Ram::read(addr + i, 1));

    unsigned kept = bytes;
    std::uint32_t flip = 0;
    if (filter_ && filter_(addr, value, bytes, kept, flip) &&
        kept < bytes) {
        // Standalone tear: commit the prefix, leave the remainder as
        // noise-corrupted old contents. One merged Ram::write keeps
        // the device write count at one store per store.
        std::uint32_t merged = 0;
        for (unsigned i = 0; i < bytes; ++i) {
            const std::uint8_t lane =
                i < kept ? std::uint8_t(value >> (8 * i))
                         : std::uint8_t(last_.preImage[i] ^
                                        std::uint8_t(flip >> (8 * i)));
            merged |= std::uint32_t(lane) << (8 * i);
        }
        riscv::Ram::write(addr, merged, bytes);
        bytes_written_ += kept;
        last_.tearable = false; // a store tears at most once
        return;
    }

    riscv::Ram::write(addr, value, bytes);
    bytes_written_ += bytes;
}

bool
Nvm::tearLastWrite(unsigned bytesKept, std::uint32_t flipMask)
{
    if (!last_.tearable || bytesKept >= last_.bytes)
        return false;
    for (unsigned i = bytesKept; i < last_.bytes; ++i) {
        const std::uint8_t lane = std::uint8_t(
            last_.preImage[i] ^ std::uint8_t(flipMask >> (8 * i)));
        riscv::Ram::write(last_.addr + i, lane, 1);
    }
    // Those bytes never actually committed.
    bytes_written_ -= last_.bytes - bytesKept;
    last_.tearable = false;
    return true;
}

} // namespace soc
} // namespace fs
