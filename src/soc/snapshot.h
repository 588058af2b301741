/**
 * @file
 * Copy-on-write FRAM images for snapshot-fork fault grading.
 *
 * After a power failure only FRAM survives, so a torture campaign's
 * golden run keeps nothing but FRAM images (PagedImage): at boot and
 * at every commit-window boundary. Each capture
 * compares its pages against the previous image in the golden
 * sequence and shares the unchanged ones, so the 10^3-10^4 images a
 * campaign keeps alive cost roughly one full image plus the
 * per-capture deltas (a commit window rewrites ~5 pages of a 512-page
 * FRAM).
 *
 * Working with an image is O(dirty pages), not O(image): each page
 * carries its content hash, computed once when the page is created,
 * and an image's key is an order-aware sum of per-page terms. A buffer
 * that holds image B outside a few written pages (DirtyPages) can key,
 * verify and capture itself against B by touching only those pages --
 * every page it did not write still equals B's page. The masked key
 * and compare leave given byte ranges out, for buffers whose bytes
 * there cannot matter; they cost O(dirty pages + masked pages) too.
 */

#ifndef FS_SOC_SNAPSHOT_H_
#define FS_SOC_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace fs {
namespace soc {

/** Byte offsets [begin, end) into an image. */
struct ByteRange {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
};

/**
 * Indices of the pages written since some reference point, each listed
 * once: O(1) mark and test, O(marked) clear.
 */
class DirtyPages
{
  public:
    /** Track @p pages pages, all clean. */
    void reset(std::size_t pages);

    void
    mark(std::size_t page)
    {
        if (!flags_[page]) {
            flags_[page] = 1;
            list_.push_back(std::uint32_t(page));
        }
    }

    bool contains(std::size_t page) const { return flags_[page] != 0; }
    const std::vector<std::uint32_t> &list() const { return list_; }

    /** Make every page clean again. */
    void clear();

  private:
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint32_t> list_;
};

/**
 * A byte image stored as fixed-size pages behind shared pointers.
 * capture() against a previous image shares every page whose bytes
 * are unchanged; only differing pages allocate. Sharing is detected
 * by comparison at capture time (not dirty bits), so direct data()
 * mutations -- image staging, tears -- can never be missed. Pages are
 * immutable once built, so two images holding the same page pointer
 * hold the same bytes there.
 */
class PagedImage
{
  public:
    static constexpr std::size_t kPageBytes = 256;

    /** One immutable page plus its content hash. */
    struct Page {
        std::array<std::uint8_t, kPageBytes> bytes{};
        std::uint32_t len = 0;  ///< valid bytes (short only at the end)
        std::uint64_t hash = 0; ///< content hash of the valid bytes

        const std::uint8_t *data() const { return bytes.data(); }
        std::size_t size() const { return len; }
    };

    /** Snapshot @p mem, sharing unchanged pages with @p prev. */
    void capture(const std::vector<std::uint8_t> &mem,
                 const PagedImage *prev);

    /**
     * Snapshot @p mem, which equals @p base outside the pages in
     * @p dirty: O(dirty pages). Pages are shared with @p base exactly
     * where capture(mem, &base) would share them. Returns the bytes of
     * the pages it allocated.
     */
    std::size_t captureDirty(const std::vector<std::uint8_t> &mem,
                      const PagedImage &base, const DirtyPages &dirty);

    /** Write the image back into @p mem (sizes must match). */
    void restore(std::vector<std::uint8_t> &mem) const;

    /**
     * Content key: the wrapping sum over pages of a term mixing the
     * page's hash with its index. Equal images have equal keys; a key
     * is only a hash, so every use must back it with a byte-exact
     * comparison.
     */
    std::uint64_t key() const { return key_; }

    /**
     * The key() capture(mem, nullptr) would produce, for @p mem that
     * equals @p base outside the pages in @p dirty: @p base's key
     * corrected for the dirty pages only.
     */
    static std::uint64_t keyOf(const std::vector<std::uint8_t> &mem,
                               const PagedImage &base,
                               const DirtyPages &dirty);

    /**
     * Byte-exact equality with @p mem, which equals @p base outside
     * the pages in @p dirty. A clean page this image shares with
     * @p base (same pointer) is equal without a compare; every other
     * page is compared byte for byte.
     */
    bool matches(const std::vector<std::uint8_t> &mem,
                 const PagedImage &base, const DirtyPages &dirty) const;

    /**
     * keyOf() with every byte in @p mask (sorted, disjoint ranges)
     * read as zero: buffers that differ only inside the mask get equal
     * keys.
     */
    static std::uint64_t maskedKeyOf(const std::vector<std::uint8_t> &mem,
                                     const PagedImage &base,
                                     const DirtyPages &dirty,
                                     const std::vector<ByteRange> &mask);

    /** matches() on the bytes outside @p mask (as in maskedKeyOf). */
    bool matchesOutside(const std::vector<std::uint8_t> &mem,
                        const PagedImage &base, const DirtyPages &dirty,
                        const std::vector<ByteRange> &mask) const;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Number of pages NOT shared with @p prev (test observability). */
    std::size_t pagesOwnedVs(const PagedImage &prev) const;

    const std::vector<std::shared_ptr<const Page>> &pages() const
    {
        return pages_;
    }

  private:
    std::size_t size_ = 0;
    std::uint64_t key_ = 0;
    std::vector<std::shared_ptr<const Page>> pages_;
};

/**
 * Bytes held by the distinct pages reachable from @p images (shared
 * pages counted once): the campaign's snapshot memory high-water.
 */
std::size_t distinctPageBytes(
    const std::vector<const PagedImage *> &images);

} // namespace soc
} // namespace fs

#endif // FS_SOC_SNAPSHOT_H_
