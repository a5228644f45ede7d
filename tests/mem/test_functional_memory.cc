#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/functional_memory.hh"

namespace nachos {
namespace {

TEST(FunctionalMemory, WriteThenReadRoundTrips)
{
    FunctionalMemory mem;
    mem.write(0x1000, 8, 0x1122334455667788LL);
    EXPECT_EQ(mem.read(0x1000, 8), 0x1122334455667788LL);
}

TEST(FunctionalMemory, PartialReadLittleEndian)
{
    FunctionalMemory mem;
    mem.write(0x2000, 8, 0x1122334455667788LL);
    EXPECT_EQ(mem.read(0x2000, 4) & 0xffffffff, 0x55667788u);
    EXPECT_EQ(mem.read(0x2004, 4) & 0xffffffff, 0x11223344u);
}

TEST(FunctionalMemory, OverlappingWritesMergeBytes)
{
    FunctionalMemory mem;
    mem.write(0x3000, 8, 0);
    mem.write(0x3004, 4, static_cast<int64_t>(0xdeadbeef));
    uint64_t v = static_cast<uint64_t>(mem.read(0x3000, 8));
    EXPECT_EQ(v >> 32, 0xdeadbeefu);
    EXPECT_EQ(v & 0xffffffffu, 0u);
}

TEST(FunctionalMemory, BackgroundIsDeterministicNonZero)
{
    FunctionalMemory a, b;
    EXPECT_EQ(a.read(0x4000, 8), b.read(0x4000, 8));
    EXPECT_NE(a.read(0x4000, 8), a.read(0x4008, 8));
}

TEST(FunctionalMemory, ResetForgetsWrites)
{
    FunctionalMemory mem;
    int64_t before = mem.read(0x5000, 8);
    mem.write(0x5000, 8, 42);
    EXPECT_EQ(mem.read(0x5000, 8), 42);
    mem.reset();
    EXPECT_EQ(mem.read(0x5000, 8), before);
    EXPECT_EQ(mem.footprint(), 0u);
}

TEST(FunctionalMemory, ImageSortedByAddress)
{
    FunctionalMemory mem;
    mem.write(0x9000, 1, 1);
    mem.write(0x100, 1, 2);
    auto img = mem.image();
    ASSERT_EQ(img.size(), 2u);
    EXPECT_EQ(img[0].first, 0x100u);
    EXPECT_EQ(img[1].first, 0x9000u);
}

/** Writes spanning pages, a full bitmap word and a page straddle. */
void
writeSmallFootprint(FunctionalMemory &mem)
{
    mem.write(0x9000, 1, 1);
    mem.write(0x100, 4, 0x04030201);
    for (uint64_t a = 0x2040; a < 0x2080; a += 8)
        mem.write(a, 8, static_cast<int64_t>(a * 0x0101010101010101ull));
    mem.write(0x2ffc, 8, -1); // straddles into the next page
}

TEST(MemImage, IteratesExactlyLikeImage)
{
    FunctionalMemory mem;
    writeSmallFootprint(mem);
    const MemImage img = mem.snapshot();
    const auto pairs = mem.image();
    ASSERT_EQ(img.size(), pairs.size());
    EXPECT_EQ(img.size(), mem.footprint());
    EXPECT_EQ(std::vector(img.begin(), img.end()), pairs);
    size_t i = 0;
    for (const auto &[addr, byte] : img) {
        ASSERT_LT(i, pairs.size());
        EXPECT_EQ(addr, pairs[i].first) << i;
        EXPECT_EQ(byte, pairs[i].second) << i;
        ++i;
    }
    EXPECT_EQ(i, pairs.size());
    EXPECT_TRUE(img == pairs);
}

TEST(MemImage, PooledMemoryMatchesAFreshOne)
{
    // A reset memory keeps its pages for reuse; the image of the next,
    // smaller run must not see them.
    FunctionalMemory pooled;
    for (uint64_t page = 0; page < 64; ++page)
        pooled.write(0x100000 + page * FunctionalMemory::kPageBytes, 8,
                     static_cast<int64_t>(page));
    pooled.reset();
    EXPECT_TRUE(pooled.snapshot().empty());
    writeSmallFootprint(pooled);

    FunctionalMemory fresh;
    writeSmallFootprint(fresh);
    EXPECT_EQ(pooled.snapshot(), fresh.snapshot());
    const MemImage img = pooled.snapshot();
    EXPECT_EQ(std::vector(img.begin(), img.end()), fresh.image());
}

TEST(MemImage, EqualityIsExact)
{
    FunctionalMemory a;
    FunctionalMemory b;
    writeSmallFootprint(a);
    writeSmallFootprint(b);
    EXPECT_EQ(a.snapshot(), b.snapshot());

    b.write(0x2050, 1, 0x77); // same addresses, one byte's value moved
    EXPECT_NE(a.snapshot(), b.snapshot());
    EXPECT_FALSE(a.snapshot() == b.image());

    FunctionalMemory c;
    writeSmallFootprint(c);
    c.write(0x5000, 1, 0); // one more address
    EXPECT_NE(a.snapshot(), c.snapshot());
    EXPECT_FALSE(a.snapshot() == c.image());
}

TEST(MemImage, EmptyImageHasNoPairs)
{
    const MemImage img = FunctionalMemory().snapshot();
    EXPECT_TRUE(img.empty());
    EXPECT_TRUE(img.begin() == img.end());
    EXPECT_TRUE((img == std::vector<std::pair<uint64_t, uint8_t>>{}));
    EXPECT_EQ(img, MemImage{});
}

TEST(FunctionalMemoryDeathTest, BadSizePanics)
{
    FunctionalMemory mem;
    EXPECT_DEATH(mem.read(0, 0), "size");
    EXPECT_DEATH(mem.write(0, 16, 0), "size");
}

} // namespace
} // namespace nachos
