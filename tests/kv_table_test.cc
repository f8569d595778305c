// Unit tests for the RDMA-visible hash table and value heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "kv/table.h"
#include "testbed.h"

namespace redn::test {
namespace {

using kv::RdmaHashTable;
using kv::ValueHeap;

class TableTest : public ::testing::Test {
 protected:
  TestBed bed;
};

TEST_F(TableTest, InsertLookupRoundTrip) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  EXPECT_TRUE(t.Insert(42, 0x1000, 64));
  auto e = t.Lookup(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->ptr, 0x1000u);
  EXPECT_EQ(e->len, 64u);
}

TEST_F(TableTest, LookupMissesAbsentKey) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  t.Insert(42, 0x1000, 64);
  EXPECT_FALSE(t.Lookup(43).has_value());
}

TEST_F(TableTest, ZeroKeyRejected) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  EXPECT_FALSE(t.Insert(0, 0x1000, 64));
}

TEST_F(TableTest, KeysMaskedTo48Bits) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  const std::uint64_t wide = 0xffff000000000042ULL;
  EXPECT_TRUE(t.Insert(wide, 0x2000, 8));
  auto e = t.Lookup(0x42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->ptr, 0x2000u);
}

TEST_F(TableTest, UpdateOverwritesExisting) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  t.Insert(7, 0x1000, 16);
  t.Insert(7, 0x2000, 32);
  auto e = t.Lookup(7);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->ptr, 0x2000u);
  EXPECT_EQ(e->len, 32u);
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(TableTest, EraseRemovesKey) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  t.Insert(7, 0x1000, 16);
  EXPECT_TRUE(t.Erase(7));
  EXPECT_FALSE(t.Lookup(7).has_value());
  EXPECT_FALSE(t.Erase(7));
  EXPECT_EQ(t.size(), 0u);
}

TEST_F(TableTest, ForceSecondPlantsInH2Bucket) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  EXPECT_TRUE(t.Insert(99, 0x3000, 8, /*force_second=*/true));
  const std::uint64_t b2 = t.BucketAddr2(99);
  EXPECT_EQ(rnic::dma::ReadU64(b2), 99u);
  ASSERT_TRUE(t.Lookup(99).has_value());
}

TEST_F(TableTest, BucketLayoutMatchesOffloadAbi) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  t.Insert(55, 0xabcd, 128);
  // Find the bucket that holds it and check field offsets.
  const std::uint64_t addr = t.BucketAddr1(55);
  if (rnic::dma::ReadU64(addr + kv::kBucketKeyOff) == 55u) {
    EXPECT_EQ(rnic::dma::ReadU64(addr + kv::kBucketPtrOff), 0xabcdu);
    EXPECT_EQ(rnic::dma::ReadU32(addr + kv::kBucketLenOff), 128u);
  } else {
    const std::uint64_t a2 = t.BucketAddr2(55);
    EXPECT_EQ(rnic::dma::ReadU64(a2 + kv::kBucketKeyOff), 55u);
  }
}

TEST_F(TableTest, ManyKeysAllRetrievable) {
  RdmaHashTable t(bed.server, {.buckets = 1 << 14});
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    ASSERT_TRUE(t.Insert(k, k * 16, static_cast<std::uint32_t>(k & 0xfff)));
  }
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    auto e = t.Lookup(k);
    ASSERT_TRUE(e.has_value()) << k;
    EXPECT_EQ(e->ptr, k * 16);
  }
  EXPECT_EQ(t.size(), 4000u);
}

TEST_F(TableTest, ClearEmptiesTable) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  for (std::uint64_t k = 1; k <= 100; ++k) t.Insert(k, k, 8);
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  for (std::uint64_t k = 1; k <= 100; ++k) EXPECT_FALSE(t.Lookup(k));
}

TEST_F(TableTest, HashesDifferAcrossFunctions) {
  int same = 0;
  for (std::uint64_t k = 1; k < 1000; ++k) {
    if ((kv::Hash1(k) & 1023) == (kv::Hash2(k) & 1023)) ++same;
  }
  EXPECT_LT(same, 20);  // ~1/1024 expected collisions between H1 and H2
}

TEST_F(TableTest, ValueHeapStoresAndAligns) {
  ValueHeap heap(bed.server, 1 << 20);
  const char data[5] = "abcd";
  const std::uint64_t a = heap.Store(data, 5);
  const std::uint64_t b = heap.Store(data, 5);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(std::memcmp(reinterpret_cast<void*>(a), "abcd", 5), 0);
}

TEST_F(TableTest, ValueHeapThrowsWhenFull) {
  ValueHeap heap(bed.server, 64);
  heap.Reserve(32);
  heap.Reserve(32);
  EXPECT_THROW(heap.Reserve(8), std::bad_alloc);
}

TEST_F(TableTest, VersionedValueIntactFlagsAnyFlippedPayloadByte) {
  // 600 B spans three 256-byte windows of the pattern.
  ValueHeap heap(bed.server, 1 << 12);
  for (const std::uint32_t len : {16u, 256u, 600u}) {
    const std::uint64_t addr = heap.Reserve(len);
    kv::WriteVersionedValue(addr, len, /*key=*/77, /*version=*/3);
    EXPECT_TRUE(kv::VersionedValueIntact(addr, len, 77)) << len;
    EXPECT_FALSE(kv::VersionedValueIntact(addr, len, 78)) << len;
    auto* p = reinterpret_cast<std::uint8_t*>(addr);
    for (const std::uint32_t off : {8u, 9u, len / 2 + 3, len - 1}) {
      p[off] ^= 0x10;
      EXPECT_FALSE(kv::VersionedValueIntact(addr, len, 77))
          << "len " << len << " off " << off;
      p[off] ^= 0x10;
      EXPECT_TRUE(kv::VersionedValueIntact(addr, len, 77));
    }
    // A bumped version tag no longer matches the payload it heads.
    kv::SetValueVersion(addr, 4);
    EXPECT_FALSE(kv::VersionedValueIntact(addr, len, 77)) << len;
  }
}

TEST_F(TableTest, NeighborhoodCoversConfiguredBuckets) {
  RdmaHashTable t(bed.server, {.buckets = 1024, .neighborhood = 6});
  EXPECT_EQ(t.NeighborhoodBytes(), 6 * kv::kBucketSize);
  // Neighborhood address is within table bounds even for edge hashes.
  for (std::uint64_t k = 1; k < 500; ++k) {
    const std::uint64_t addr = t.NeighborhoodAddr(k);
    EXPECT_GE(addr, t.BucketAddr1(1) - 1024 * kv::kBucketSize);
  }
}

}  // namespace
}  // namespace redn::test
