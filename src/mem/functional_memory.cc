#include "mem/functional_memory.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/logging.hh"

namespace nachos {

namespace {

/** True when a plain memcpy matches the little-endian byte order the
 * read()/write() contract is specified in. */
constexpr bool kHostLittleEndian =
    std::endian::native == std::endian::little;

} // namespace

MemImage::const_iterator::const_iterator(const MemImage &image,
                                         size_t byte)
    : indices_(image.words_.data()),
      bitmaps_(image.words_.data() + image.numPages()),
      bytes_(image.bytes_.data()), byte_(byte), size_(image.size())
{
    if (byte_ < size_) {
        bits_ = bitmaps_[0];
        seekBit();
    }
}

void
MemImage::const_iterator::seekBit()
{
    while (bits_ == 0) {
        if (++word_ == kBitmapWords) {
            word_ = 0;
            ++page_;
        }
        bits_ = bitmaps_[page_ * kBitmapWords + word_];
    }
}

MemImage::value_type
MemImage::const_iterator::operator*() const
{
    const uint64_t offset =
        uint64_t{word_} * 64 +
        static_cast<uint64_t>(std::countr_zero(bits_));
    return {indices_[page_] * kPageBytes + offset, bytes_[byte_]};
}

MemImage::const_iterator &
MemImage::const_iterator::operator++()
{
    bits_ &= bits_ - 1;
    // Past the last byte there is no further set bit to seek.
    if (++byte_ < size_)
        seekBit();
    return *this;
}

bool
MemImage::operator==(const std::vector<value_type> &pairs) const
{
    if (pairs.size() != size())
        return false;
    const_iterator it = begin();
    for (const value_type &p : pairs) {
        if (*it != p)
            return false;
        ++it;
    }
    return true;
}

uint8_t
FunctionalMemory::backgroundByte(uint64_t addr)
{
    uint64_t z = addr + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<uint8_t>(z ^ (z >> 31));
}

FunctionalMemory::Page *
FunctionalMemory::findPage(uint64_t page_index) const
{
    if (page_index == cachedIndex_)
        return cachedPage_;
    auto it = pages_.find(page_index);
    if (it == pages_.end())
        return nullptr;
    cachedIndex_ = page_index;
    cachedPage_ = it->second.get();
    return cachedPage_;
}

FunctionalMemory::Page &
FunctionalMemory::touchPage(uint64_t page_index)
{
    if (page_index != cachedIndex_) {
        std::unique_ptr<Page> &slot = pages_[page_index];
        if (!slot) {
            slot = std::make_unique_for_overwrite<Page>();
            std::memset(slot->written, 0, sizeof(slot->written));
            // data[] is left uninitialized on purpose: the bitmap
            // guards every read, and 4 KiB of zeroing per cold page
            // would be the dominant cost for scattered footprints.
        }
        cachedIndex_ = page_index;
        cachedPage_ = slot.get();
    }
    // Every touch writes at least one byte: list the page once.
    if (!cachedPage_->listed) {
        cachedPage_->listed = true;
        writtenPages_.push_back(page_index);
    }
    return *cachedPage_;
}

uint8_t
FunctionalMemory::readByte(uint64_t addr) const
{
    const Page *page = findPage(addr / kPageBytes);
    const uint32_t off = static_cast<uint32_t>(addr % kPageBytes);
    if (page == nullptr ||
        ((page->written[off >> 6] >> (off & 63)) & 1) == 0)
        return backgroundByte(addr);
    return page->data[off];
}

void
FunctionalMemory::writeByte(uint64_t addr, uint8_t byte)
{
    Page &page = touchPage(addr / kPageBytes);
    const uint32_t off = static_cast<uint32_t>(addr % kPageBytes);
    const uint64_t bit = uint64_t{1} << (off & 63);
    uint64_t &word = page.written[off >> 6];
    writtenBytes_ += (word & bit) == 0;
    word |= bit;
    page.data[off] = byte;
}

int64_t
FunctionalMemory::read(uint64_t addr, uint32_t size) const
{
    NACHOS_ASSERT(size >= 1 && size <= 8, "read size 1..8");
    const uint32_t off = static_cast<uint32_t>(addr % kPageBytes);
    if (off + size <= kPageBytes) {
        const Page *page = findPage(addr / kPageBytes);
        const uint32_t full = (1u << size) - 1;
        uint32_t wmask = 0;
        if (page != nullptr) {
            const uint32_t word = off >> 6;
            const uint32_t bit = off & 63;
            uint64_t bits = page->written[word] >> bit;
            if (bit + size > 64)
                bits |= page->written[word + 1] << (64 - bit);
            wmask = static_cast<uint32_t>(bits) & full;
        }
        if (wmask == full && kHostLittleEndian) {
            uint64_t v = 0;
            std::memcpy(&v, page->data + off, size);
            return static_cast<int64_t>(v);
        }
        uint64_t v = 0;
        for (uint32_t i = 0; i < size; ++i) {
            const uint8_t byte = (wmask >> i) & 1
                                     ? page->data[off + i]
                                     : backgroundByte(addr + i);
            v |= static_cast<uint64_t>(byte) << (8 * i);
        }
        // Sign extension is unnecessary for ordering validation;
        // values are compared bit-for-bit.
        return static_cast<int64_t>(v);
    }
    // Page-straddling access: assemble byte by byte.
    uint64_t v = 0;
    for (uint32_t i = 0; i < size; ++i)
        v |= static_cast<uint64_t>(readByte(addr + i)) << (8 * i);
    return static_cast<int64_t>(v);
}

void
FunctionalMemory::write(uint64_t addr, uint32_t size, int64_t value)
{
    NACHOS_ASSERT(size >= 1 && size <= 8, "write size 1..8");
    const uint64_t v = static_cast<uint64_t>(value);
    const uint32_t off = static_cast<uint32_t>(addr % kPageBytes);
    if (off + size <= kPageBytes) {
        Page &page = touchPage(addr / kPageBytes);
        if (kHostLittleEndian) {
            std::memcpy(page.data + off, &v, size);
        } else {
            for (uint32_t i = 0; i < size; ++i)
                page.data[off + i] = static_cast<uint8_t>(v >> (8 * i));
        }
        const uint64_t mask = (uint64_t{1} << size) - 1;
        const uint32_t word = off >> 6;
        const uint32_t bit = off & 63;
        const uint64_t lo = mask << bit;
        writtenBytes_ += static_cast<size_t>(
            std::popcount(lo & ~page.written[word]));
        page.written[word] |= lo;
        if (bit + size > 64) {
            const uint64_t hi = mask >> (64 - bit);
            writtenBytes_ += static_cast<size_t>(
                std::popcount(hi & ~page.written[word + 1]));
            page.written[word + 1] |= hi;
        }
        return;
    }
    for (uint32_t i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<uint8_t>(v >> (8 * i)));
}

void
FunctionalMemory::reset()
{
    for (const uint64_t index : writtenPages_) {
        Page &page = *pages_.find(index)->second;
        std::memset(page.written, 0, sizeof(page.written));
        page.listed = false;
    }
    writtenPages_.clear();
    writtenBytes_ = 0;
}

std::vector<std::pair<uint64_t, uint8_t>>
FunctionalMemory::image() const
{
    std::vector<uint64_t> indices = writtenPages_;
    std::sort(indices.begin(), indices.end());

    std::vector<std::pair<uint64_t, uint8_t>> out;
    out.reserve(writtenBytes_);
    for (const uint64_t index : indices) {
        const Page &page = *pages_.at(index);
        const uint64_t base = index * kPageBytes;
        for (uint32_t w = 0; w < kBitmapWords; ++w) {
            uint64_t bits = page.written[w];
            while (bits != 0) {
                const uint32_t i =
                    static_cast<uint32_t>(std::countr_zero(bits));
                bits &= bits - 1;
                const uint32_t off = w * 64 + i;
                out.emplace_back(base + off, page.data[off]);
            }
        }
    }
    return out;
}

MemImage
FunctionalMemory::snapshot() const
{
    static_assert(MemImage::kPageBytes == kPageBytes,
                  "MemImage shares FunctionalMemory's page geometry");
    MemImage img;
    if (writtenBytes_ == 0)
        return img;

    // Indices first, sorted in place: no index list to allocate.
    const size_t pages = writtenPages_.size();
    img.words_.resize(pages * (1 + kBitmapWords));
    uint64_t *indices = img.words_.data();
    std::copy(writtenPages_.begin(), writtenPages_.end(), indices);
    std::sort(indices, indices + pages);

    img.bytes_.resize(writtenBytes_);
    uint64_t *bitmaps = indices + pages;
    uint8_t *out = img.bytes_.data();
    for (size_t p = 0; p < pages; ++p) {
        const Page &page = *pages_.find(indices[p])->second;
        std::memcpy(bitmaps + p * kBitmapWords, page.written,
                    sizeof(page.written));
        for (uint32_t w = 0; w < kBitmapWords; ++w) {
            uint64_t bits = page.written[w];
            if (bits == ~uint64_t{0}) {
                std::memcpy(out, page.data + w * 64, 64);
                out += 64;
                continue;
            }
            while (bits != 0) {
                const uint32_t i =
                    static_cast<uint32_t>(std::countr_zero(bits));
                bits &= bits - 1;
                *out++ = page.data[w * 64 + i];
            }
        }
    }
    NACHOS_ASSERT(out == img.bytes_.data() + img.bytes_.size(),
                  "written-byte count out of step with the bitmaps");
    return img;
}

} // namespace nachos
