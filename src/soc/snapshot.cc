#include "soc/snapshot.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "util/hash.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace fs {
namespace soc {

namespace {

using Page = PagedImage::Page;

/** Page @p p's contribution to an image key: order-aware via mixing
 *  in the index, so swapping two pages changes the key. */
std::uint64_t
keyTerm(std::uint64_t page_hash, std::size_t p)
{
    return util::mixSeed(page_hash, p);
}

std::shared_ptr<const Page>
makePage(const std::uint8_t *bytes, std::size_t len)
{
    auto page = std::make_shared<Page>();
    std::memcpy(page->bytes.data(), bytes, len);
    page->len = std::uint32_t(len);
    page->hash = util::hashImage64(bytes, len);
    return page;
}

bool
sameBytes(const Page &page, const std::uint8_t *bytes)
{
    return std::memcmp(page.data(), bytes, page.size()) == 0;
}

/**
 * Call fn(lo, hi) for each stretch [lo, hi) of [off, end) outside the
 * sorted @p mask; returns false, calling nothing, when no mask range
 * overlaps [off, end).
 */
template <class Fn>
bool
forEachOutside(const std::vector<ByteRange> &mask, std::size_t off,
               std::size_t end, Fn &&fn)
{
    bool overlaps = false;
    std::size_t cursor = off;
    for (const ByteRange &r : mask) {
        if (r.end <= off || r.begin >= end)
            continue;
        overlaps = true;
        if (r.begin > cursor)
            fn(cursor, std::size_t(r.begin));
        cursor = std::max(cursor, std::size_t(r.end));
    }
    if (overlaps && cursor < end)
        fn(cursor, end);
    return overlaps;
}

} // namespace

void
DirtyPages::reset(std::size_t pages)
{
    flags_.assign(pages, 0);
    list_.clear();
}

void
DirtyPages::clear()
{
    for (const std::uint32_t p : list_)
        flags_[p] = 0;
    list_.clear();
}

void
PagedImage::capture(const std::vector<std::uint8_t> &mem,
                    const PagedImage *prev)
{
    const bool share = prev && prev->size_ == mem.size();
    size_ = mem.size();
    const std::size_t n = (size_ + kPageBytes - 1) / kPageBytes;
    pages_.clear();
    pages_.reserve(n);
    key_ = share ? prev->key_ : 0;
    for (std::size_t p = 0; p < n; ++p) {
        const std::uint8_t *bytes = mem.data() + p * kPageBytes;
        if (share) {
            const auto &old = prev->pages_[p];
            if (sameBytes(*old, bytes)) {
                pages_.push_back(old);
                continue;
            }
            key_ -= keyTerm(old->hash, p);
        }
        pages_.push_back(
            makePage(bytes, std::min(kPageBytes, size_ - p * kPageBytes)));
        key_ += keyTerm(pages_.back()->hash, p);
    }
}

std::size_t
PagedImage::captureDirty(const std::vector<std::uint8_t> &mem,
                         const PagedImage &base, const DirtyPages &dirty)
{
    FS_ASSERT(mem.size() == base.size_, "snapshot image size mismatch");
    size_ = base.size_;
    key_ = base.key_;
    pages_ = base.pages_;
    std::size_t allocated = 0;
    for (const std::uint32_t p : dirty.list()) {
        const std::uint8_t *bytes = mem.data() + p * kPageBytes;
        const auto &old = base.pages_[p];
        if (sameBytes(*old, bytes))
            continue;
        pages_[p] = makePage(bytes, old->size());
        key_ += keyTerm(pages_[p]->hash, p) - keyTerm(old->hash, p);
        allocated += old->size();
    }
    return allocated;
}

void
PagedImage::restore(std::vector<std::uint8_t> &mem) const
{
    FS_ASSERT(mem.size() == size_, "snapshot image size mismatch");
    for (std::size_t p = 0; p < pages_.size(); ++p)
        std::memcpy(mem.data() + p * kPageBytes, pages_[p]->data(),
                    pages_[p]->size());
}

std::uint64_t
PagedImage::keyOf(const std::vector<std::uint8_t> &mem,
                  const PagedImage &base, const DirtyPages &dirty)
{
    FS_ASSERT(mem.size() == base.size_, "snapshot image size mismatch");
    std::uint64_t key = base.key_;
    for (const std::uint32_t p : dirty.list()) {
        const Page &old = *base.pages_[p];
        const std::uint64_t hash =
            util::hashImage64(mem.data() + p * kPageBytes, old.size());
        key += keyTerm(hash, p) - keyTerm(old.hash, p);
    }
    return key;
}

bool
PagedImage::matches(const std::vector<std::uint8_t> &mem,
                    const PagedImage &base, const DirtyPages &dirty) const
{
    if (mem.size() != size_ || base.size_ != size_)
        return false;
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        // A clean page of mem holds base's bytes; a page this image
        // shares with base holds them too (pages are immutable).
        if (pages_[p] == base.pages_[p] && !dirty.contains(p))
            continue;
        if (!sameBytes(*pages_[p], mem.data() + p * kPageBytes))
            return false;
    }
    return true;
}

std::uint64_t
PagedImage::maskedKeyOf(const std::vector<std::uint8_t> &mem,
                        const PagedImage &base, const DirtyPages &dirty,
                        const std::vector<ByteRange> &mask)
{
    std::uint64_t key = keyOf(mem, base, dirty);
    std::size_t done = 0; // pages below this one are already corrected
    for (const ByteRange &r : mask) {
        const std::size_t last = std::min<std::size_t>(
            (std::size_t(r.end) + kPageBytes - 1) / kPageBytes,
            base.pages_.size());
        for (std::size_t p = std::max(done, r.begin / kPageBytes); p < last;
             ++p) {
            const std::size_t off = p * kPageBytes;
            const std::size_t len = base.pages_[p]->size();
            std::array<std::uint8_t, kPageBytes> page{};
            forEachOutside(mask, off, off + len,
                           [&](std::size_t lo, std::size_t hi) {
                               std::memcpy(page.data() + (lo - off),
                                           mem.data() + lo, hi - lo);
                           });
            key += keyTerm(util::hashImage64(page.data(), len), p) -
                   keyTerm(util::hashImage64(mem.data() + off, len), p);
        }
        done = std::max(done, last);
    }
    return key;
}

bool
PagedImage::matchesOutside(const std::vector<std::uint8_t> &mem,
                           const PagedImage &base, const DirtyPages &dirty,
                           const std::vector<ByteRange> &mask) const
{
    if (mem.size() != size_ || base.size_ != size_)
        return false;
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (pages_[p] == base.pages_[p] && !dirty.contains(p))
            continue;
        const std::size_t off = p * kPageBytes;
        const std::uint8_t *held = pages_[p]->data();
        bool same = true;
        const bool masked = forEachOutside(
            mask, off, off + pages_[p]->size(),
            [&](std::size_t lo, std::size_t hi) {
                same = same && std::memcmp(held + (lo - off),
                                           mem.data() + lo, hi - lo) == 0;
            });
        if (masked ? !same : !sameBytes(*pages_[p], mem.data() + off))
            return false;
    }
    return true;
}

std::size_t
PagedImage::pagesOwnedVs(const PagedImage &prev) const
{
    std::size_t owned = 0;
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (p >= prev.pages_.size() ||
            pages_[p].get() != prev.pages_[p].get())
            ++owned;
    }
    return owned;
}

std::size_t
distinctPageBytes(const std::vector<const PagedImage *> &images)
{
    std::unordered_set<const PagedImage::Page *> seen;
    std::size_t bytes = 0;
    for (const PagedImage *img : images) {
        if (!img)
            continue;
        for (const auto &page : img->pages()) {
            if (seen.insert(page.get()).second)
                bytes += page->size();
        }
    }
    return bytes;
}

} // namespace soc
} // namespace fs
