/**
 * The reference oracle on hand-built regions with pen-and-paper
 * semantics: store-to-load visibility in program order, narrow-access
 * zero-extension, background-memory determinism, commit accounting,
 * the LiveOut plumbing, and independence from earlier calls on the
 * thread (the oracle reuses one memory per thread).
 */

#include <gtest/gtest.h>

#include <thread>

#include "ir/builder.hh"
#include "testing/reference.hh"

namespace nachos {
namespace testing {
namespace {

TEST(Reference, StoreThenLoadSeesTheStoredValue)
{
    RegionBuilder b("st-ld");
    ObjectId a = b.object("A", 256);
    OpId c = b.constant(0x1122334455667788);
    b.store(b.at(a, 16), c);
    OpId ld = b.load(b.at(a, 16));
    b.liveOut(ld);
    const Region r = b.build();

    const ReferenceResult ref = referenceExecute(r, 3);
    ASSERT_EQ(ref.loads.size(), 3u);
    for (uint64_t inv = 0; inv < 3; ++inv) {
        EXPECT_EQ(ref.loads[inv].op, ld);
        EXPECT_EQ(ref.loads[inv].invocation, inv);
        EXPECT_EQ(ref.loads[inv].value, 0x1122334455667788);
    }
    EXPECT_EQ(ref.finalLiveOut, 0x1122334455667788);
    EXPECT_EQ(ref.committedMemOps, r.memOps().size() * 3);
}

TEST(Reference, NarrowAccessesZeroExtendLikeMemory)
{
    // A 4-byte store writes the low word; a 4-byte load reads it back
    // zero-extended. This is the exact semantics the simulator's
    // forwarding path must reproduce (a fuzzer-found bug: forwarded
    // values used to skip the truncation).
    RegionBuilder b("narrow");
    ObjectId a = b.object("A", 256);
    OpId c = b.constant(0x11223344AABBCCDD);
    b.store(b.at(a, 0), c, 4);
    OpId ld = b.load(b.at(a, 0), 4);
    b.liveOut(ld);
    const Region r = b.build();

    const ReferenceResult ref = referenceExecute(r, 1);
    ASSERT_EQ(ref.loads.size(), 1u);
    EXPECT_EQ(static_cast<uint64_t>(ref.loads[0].value),
              uint64_t{0xAABBCCDD});
}

TEST(Reference, YoungerStoreWinsWithinAnInvocation)
{
    RegionBuilder b("waw");
    ObjectId a = b.object("A", 256);
    OpId c1 = b.constant(111);
    OpId c2 = b.constant(222);
    b.store(b.at(a, 8), c1);
    b.store(b.at(a, 8), c2);
    OpId ld = b.load(b.at(a, 8));
    b.liveOut(ld);
    const Region r = b.build();

    const ReferenceResult ref = referenceExecute(r, 2);
    for (const RefLoad &l : ref.loads)
        EXPECT_EQ(l.value, 222);
}

TEST(Reference, BackgroundMemoryIsDeterministicAndNonZero)
{
    RegionBuilder b("bg");
    ObjectId a = b.object("A", 4096);
    OpId ld = b.load(b.at(a, 128));
    b.liveOut(ld);
    const Region r = b.build();

    const ReferenceResult ref1 = referenceExecute(r, 1);
    const ReferenceResult ref2 = referenceExecute(r, 1);
    ASSERT_EQ(ref1.loads.size(), 1u);
    // Background bytes are pseudo-random, not zero — an all-zero
    // background would mask missing-write bugs in image comparison.
    EXPECT_NE(ref1.loads[0].value, 0);
    EXPECT_EQ(ref1.loads[0].value, ref2.loads[0].value);
    EXPECT_EQ(ref1.loadValueDigest, ref2.loadValueDigest);
    EXPECT_EQ(ref1.memImage, ref2.memImage);
}

TEST(Reference, StridedStoresLandAtDistinctAddresses)
{
    RegionBuilder b("stream");
    ObjectId a = b.object("A", 4096);
    OpId c = b.constant(7);
    b.store(b.stream(a, 8), c);
    const Region r = b.build();

    const ReferenceResult ref = referenceExecute(r, 4);
    EXPECT_EQ(ref.committedMemOps, 4u);
    // Each invocation wrote a different 8-byte slot: the image must
    // contain at least 4 * 8 touched bytes.
    EXPECT_GE(ref.memImage.size(), 32u);
}

TEST(Reference, LoadsComeBackInProgramOrder)
{
    RegionBuilder b("order");
    ObjectId a = b.object("A", 256);
    OpId ld1 = b.load(b.at(a, 0));
    OpId ld2 = b.load(b.at(a, 64));
    OpId sum = b.iadd(ld1, ld2);
    b.liveOut(sum);
    const Region r = b.build();

    const ReferenceResult ref = referenceExecute(r, 2);
    ASSERT_EQ(ref.loads.size(), 4u);
    EXPECT_EQ(ref.loads[0].op, ld1);
    EXPECT_EQ(ref.loads[1].op, ld2);
    EXPECT_EQ(ref.loads[0].invocation, 0u);
    EXPECT_EQ(ref.loads[2].invocation, 1u);
    EXPECT_EQ(ref.loads[1].addr, ref.loads[0].addr + 64);
}

/** Writes `value` to `invocations` slots of A, `stride` bytes apart. */
Region
writerRegion(int64_t stride, int64_t value)
{
    RegionBuilder b("writer");
    ObjectId a = b.object("A", 1 << 20);
    b.store(b.stream(a, stride), b.constant(value));
    return b.build();
}

TEST(Reference, EarlierCallsOnTheThreadLeaveNoTrace)
{
    // Loads before the stores: a byte left written by an earlier call
    // would replace background data in what they observe.
    RegionBuilder b("probe");
    ObjectId a = b.object("A", 1 << 20);
    OpId first = b.load(b.stream(a, 8));
    OpId far = b.load(b.stream(a, 4096));
    b.store(b.stream(a, 16), b.iadd(first, far));
    b.liveOut(far);
    const Region probe = b.build();

    ReferenceResult fresh;
    std::thread([&] { fresh = referenceExecute(probe, 40); }).join();

    const Region small = writerRegion(8, 0x5a5a);     // kept memory
    const Region scattered = writerRegion(4096, 0x77); // 40 pages: freed
    for (const Region *before : {&small, &scattered, &small}) {
        (void)referenceExecute(*before, 40);
        const ReferenceResult got = referenceExecute(probe, 40);
        EXPECT_EQ(got.loadValueDigest, fresh.loadValueDigest)
            << "after " << before->name();
        EXPECT_EQ(got.memImage, fresh.memImage);
        EXPECT_EQ(got.finalLiveOut, fresh.finalLiveOut);
        ASSERT_EQ(got.loads.size(), fresh.loads.size());
        for (size_t i = 0; i < got.loads.size(); ++i)
            EXPECT_EQ(got.loads[i].value, fresh.loads[i].value) << i;
    }
}

} // namespace
} // namespace testing
} // namespace nachos
