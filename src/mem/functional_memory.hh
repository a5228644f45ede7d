/**
 * @file
 * Functional (value) memory, separated from the timing model. All
 * three ordering backends operate on identical functional state, so a
 * divergence in final memory image or load values between backends is
 * direct evidence of a memory-ordering violation.
 */

#ifndef NACHOS_MEM_FUNCTIONAL_MEMORY_HH
#define NACHOS_MEM_FUNCTIONAL_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace nachos {

/**
 * An exact, canonical snapshot of a FunctionalMemory's written bytes
 * (FunctionalMemory::snapshot()): the sorted indices of the pages
 * holding at least one written byte, each such page's written-bitmap,
 * and the written bytes packed in address order. It holds the same set
 * of (address, byte) pairs as FunctionalMemory::image() in one byte per
 * written byte plus 520 per written page, against image()'s 16 per
 * byte, and in at most two allocations. Being canonical — pages a
 * pooled memory retains but this run left unwritten are not in it —
 * two images hold the same pairs exactly when their words and bytes
 * are equal, so == is two memcmps. Iteration yields the pairs in
 * address order, exactly as image() lists them.
 */
class MemImage
{
  public:
    using value_type = std::pair<uint64_t, uint8_t>;

    /** Forward iterator over (address, byte) pairs, in address order. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = MemImage::value_type;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = value_type;

        const_iterator() = default;

        value_type operator*() const;
        const_iterator &operator++();
        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++*this;
            return old;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return byte_ == other.byte_;
        }

      private:
        friend class MemImage;
        const_iterator(const MemImage &image, size_t byte);
        /** Skip to the next bitmap word holding an unvisited bit. */
        void seekBit();

        const uint64_t *indices_ = nullptr; ///< page indices
        const uint64_t *bitmaps_ = nullptr; ///< page bitmaps
        const uint8_t *bytes_ = nullptr;
        size_t page_ = 0;   ///< current page record
        uint32_t word_ = 0; ///< bitmap word within the page
        uint64_t bits_ = 0; ///< unvisited bits of that word
        size_t byte_ = 0;   ///< index into the packed bytes
        size_t size_ = 0;   ///< the image's byte count
    };
    using iterator = const_iterator;

    /** Number of written bytes. */
    size_t size() const { return bytes_.size(); }
    bool empty() const { return bytes_.empty(); }

    const_iterator begin() const { return const_iterator(*this, 0); }
    const_iterator end() const { return const_iterator(*this, size()); }

    bool
    operator==(const MemImage &other) const
    {
        return words_ == other.words_ && bytes_ == other.bytes_;
    }

    /** Same pairs as a sorted (address, byte) list, e.g. image()'s. */
    bool operator==(const std::vector<value_type> &pairs) const;

  private:
    friend class FunctionalMemory;
    /** FunctionalMemory's page geometry (static_asserted there). */
    static constexpr uint32_t kPageBytes = 4096;
    static constexpr uint32_t kBitmapWords = kPageBytes / 64;

    size_t numPages() const { return words_.size() / (1 + kBitmapWords); }

    /**
     * numPages() page indices (ascending), then each page's
     * kBitmapWords written-bitmap words in the same order.
     */
    std::vector<uint64_t> words_;
    /** Written bytes in address order. */
    std::vector<uint8_t> bytes_;
};

/**
 * Sparse byte-addressable memory. Untouched bytes read as a
 * deterministic hash of their address, so loads observe reproducible
 * non-zero data without pre-initialization.
 *
 * Storage is paged (DESIGN.md §10), in the spirit of gem5's paged
 * physical memory: 4 KiB pages each hold a flat byte array plus a
 * written-bitmap so unwritten bytes still read backgroundByte(addr).
 * Accesses that stay within one page move a word at a time; a
 * last-page pointer cache makes sequential streams touch the page
 * table only once per 4 KiB. Observable behavior — load values,
 * footprint(), image() — is bit-identical to the original per-byte
 * hash map.
 */
class FunctionalMemory
{
  public:
    static constexpr uint32_t kPageBytes = 4096;

    /** Read `size` bytes (1..8) little-endian. */
    int64_t read(uint64_t addr, uint32_t size) const;

    /** Write the low `size` bytes (1..8) of `value` little-endian. */
    void write(uint64_t addr, uint32_t size, int64_t value);

    /**
     * Forget all written state. Cost is proportional to the pages
     * written since the last reset, not to the pages retained or to
     * any address-space capacity; page storage is retained for reuse
     * so reset-heavy callers do not churn the allocator.
     */
    void reset();

    /** Number of distinct bytes written so far. */
    size_t footprint() const { return writtenBytes_; }

    /** Pages of storage held: every page written since construction,
     *  including those reset() retains. */
    size_t pagesHeld() const { return pages_.size(); }

    /**
     * Snapshot of all written bytes, sorted by address — used to
     * compare final memory images across backends.
     */
    std::vector<std::pair<uint64_t, uint8_t>> image() const;

    /**
     * The same bytes as image(), as a compact canonical MemImage. Pages
     * retained across reset() that hold no written byte are left out.
     * Cost is proportional to the pages written since the last reset.
     */
    MemImage snapshot() const;

    /** The deterministic background value of an unwritten byte. */
    static uint8_t backgroundByte(uint64_t addr);

  private:
    static constexpr uint32_t kBitmapWords = kPageBytes / 64;

    struct Page
    {
        uint8_t data[kPageBytes];
        /** Bit i set iff data[i] has been written. */
        uint64_t written[kBitmapWords];
        /** In writtenPages_ (written since the last reset). */
        bool listed = false;
    };

    /** Page lookup through the last-page cache; nullptr if absent. */
    Page *findPage(uint64_t page_index) const;
    /** Page lookup, creating (zero-bitmap) on first touch. */
    Page &touchPage(uint64_t page_index);

    uint8_t readByte(uint64_t addr) const;
    void writeByte(uint64_t addr, uint8_t byte);

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
    /** Indices of the pages written since the last reset: every page
     *  holding a written byte, each once, in first-write order. */
    std::vector<uint64_t> writtenPages_;
    mutable uint64_t cachedIndex_ = ~uint64_t{0};
    mutable Page *cachedPage_ = nullptr;
    size_t writtenBytes_ = 0;
};

} // namespace nachos

#endif // NACHOS_MEM_FUNCTIONAL_MEMORY_HH
