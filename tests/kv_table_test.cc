// Unit tests for the RDMA-visible hash table and value heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "kv/table.h"
#include "testbed.h"

namespace redn::test {
namespace {

using kv::Placement;
using kv::RdmaHashTable;
using kv::ValueHeap;

class TableTest : public ::testing::Test {
 protected:
  TestBed bed;
};

// What a NIC-offloaded 2-bucket probe finds: `key` in its H1 or H2 bucket.
bool InProbedBucket(const RdmaHashTable& t, std::uint64_t key) {
  return rnic::dma::ReadU64(t.BucketAddr1(key) + kv::kBucketKeyOff) == key ||
         rnic::dma::ReadU64(t.BucketAddr2(key) + kv::kBucketKeyOff) == key;
}

TEST_F(TableTest, InsertLookupRoundTrip) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  EXPECT_EQ(t.Insert(42, 0x1000, 64), Placement::kBucket);
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
  EXPECT_EQ(t.Insert(0, 0x1000, 64), Placement::kNone);
  // A key whose low 48 bits are zero masks to the empty sentinel too.
  EXPECT_EQ(t.Insert(1ULL << 48, 0x1000, 64), Placement::kNone);
  EXPECT_EQ(t.size(), 0u);
}

TEST_F(TableTest, KeysMaskedTo48Bits) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  const std::uint64_t wide = 0xffff000000000042ULL;
  EXPECT_EQ(t.Insert(wide, 0x2000, 8), Placement::kBucket);
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
  EXPECT_EQ(t.Insert(99, 0x3000, 8, /*force_second=*/true),
            Placement::kBucket);
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
    ASSERT_NE(t.Insert(k, k * 16, static_cast<std::uint32_t>(k & 0xfff)),
              Placement::kNone);
  }
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    auto e = t.Lookup(k);
    ASSERT_TRUE(e.has_value()) << k;
    EXPECT_EQ(e->ptr, k * 16);
  }
  EXPECT_EQ(t.size(), 4000u);
}

// Insert never evicts, so what it reports is where the key still is once
// the table has filled: kBucket keys sit in their H1 or H2 bucket (the NIC
// probe finds them), kNeighborhood keys only elsewhere in the H1 window
// (host Lookup finds them), kNone keys nowhere.
TEST_F(TableTest, InsertReportsWhereTheKeyLandsAndItStaysThere) {
  RdmaHashTable t(bed.server, {.buckets = 64});
  std::vector<Placement> at(201);
  int n[3] = {0, 0, 0};
  for (std::uint64_t k = 1; k <= 200; ++k) {
    at[k] = t.Insert(k, k * 8, 16);
    ++n[static_cast<int>(at[k])];
  }
  // Filled past the point where keys fall back to the neighbourhood, and
  // then to nowhere.
  EXPECT_GT(n[static_cast<int>(Placement::kBucket)], 0);
  EXPECT_GT(n[static_cast<int>(Placement::kNeighborhood)], 0);
  EXPECT_GT(n[static_cast<int>(Placement::kNone)], 0);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(
                          n[static_cast<int>(Placement::kBucket)] +
                          n[static_cast<int>(Placement::kNeighborhood)]));
  for (std::uint64_t k = 1; k <= 200; ++k) {
    EXPECT_EQ(InProbedBucket(t, k), at[k] == Placement::kBucket) << k;
    const auto e = t.Lookup(k);
    EXPECT_EQ(e.has_value(), at[k] != Placement::kNone) << k;
    if (e) {
      EXPECT_EQ(e->ptr, k * 8) << k;
    }
  }
}

TEST_F(TableTest, ForceSecondReportsItsBucketThenTheNeighbourhood) {
  RdmaHashTable t(bed.server, {.buckets = 64});
  ASSERT_EQ(t.Insert(5, 0x100, 8, /*force_second=*/true), Placement::kBucket);
  EXPECT_EQ(rnic::dma::ReadU64(t.BucketAddr2(5)), 5u);
  // A second key forced into the same H2 bucket finds it taken and falls
  // back to its H1 neighbourhood, which the NIC probe never reads.
  std::uint64_t other = 6;
  while (t.BucketAddr2(other) != t.BucketAddr2(5) ||
         t.BucketAddr1(other) == t.BucketAddr2(5)) {
    ++other;
  }
  EXPECT_EQ(t.Insert(other, 0x200, 8, /*force_second=*/true),
            Placement::kNeighborhood);
  EXPECT_FALSE(InProbedBucket(t, other));
  ASSERT_TRUE(t.Lookup(other).has_value());
  EXPECT_EQ(t.Lookup(other)->ptr, 0x200u);
}

TEST_F(TableTest, UpdateInPlaceReportsTheSlotItKeeps) {
  RdmaHashTable t(bed.server, {.buckets = 64});
  std::vector<Placement> at(201);
  for (std::uint64_t k = 1; k <= 200; ++k) at[k] = t.Insert(k, k, 8);
  const std::size_t size = t.size();
  for (std::uint64_t k = 1; k <= 200; ++k) {
    if (at[k] == Placement::kNone) continue;
    // Re-inserting a stored key rewrites its own slot, wherever that is.
    EXPECT_EQ(t.Insert(k, k + 1000, 32), at[k]) << k;
    EXPECT_EQ(t.Lookup(k)->ptr, k + 1000) << k;
    EXPECT_EQ(t.Lookup(k)->len, 32u) << k;
  }
  EXPECT_EQ(t.size(), size);
}

TEST_F(TableTest, FullNeighbourhoodReportsNotPlaced) {
  RdmaHashTable t(bed.server, {.buckets = 8});
  for (std::uint64_t k = 1; t.size() < 8 && k < 10'000; ++k) t.Insert(k, k, 8);
  ASSERT_EQ(t.size(), 8u);
  // Every slot is taken: a new key has no bucket and no neighbour left.
  EXPECT_EQ(t.Insert(1000, 0x1, 8), Placement::kNone);
  EXPECT_EQ(t.Insert(1001, 0x1, 8, /*force_second=*/true), Placement::kNone);
  EXPECT_FALSE(t.Lookup(1000).has_value());
  EXPECT_EQ(t.size(), 8u);  // unchanged
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

TEST_F(TableTest, ValueHeapReserveZeroesReusedMemory) {
  // The heap does not pre-zero its region, so a heap built where a dirtied
  // one of the same size was freed must still hand out zeroed slots.
  constexpr std::size_t kCap = 1 << 16;
  {
    ValueHeap dirty(bed.server, kCap);
    while (dirty.used() < kCap) {
      const std::uint64_t a = dirty.ReserveForOverwrite(4096);
      std::memset(reinterpret_cast<void*>(a), 0xa5, 4096);
    }
  }
  ValueHeap heap(bed.server, kCap);
  for (const std::uint32_t len : {13u, 256u, 4096u, 8u}) {
    const std::uint64_t a = heap.Reserve(len);
    const auto* p = reinterpret_cast<const std::uint8_t*>(a);
    // The 8-byte alignment padding after the slot is zeroed too.
    const std::uint32_t aligned = (len + 7u) & ~7u;
    for (std::uint32_t i = 0; i < aligned; ++i) {
      ASSERT_EQ(p[i], 0u) << "len " << len << " byte " << i;
    }
  }
}

TEST_F(TableTest, RampHelpersMatchTheByteByByteDefinition) {
  std::vector<std::uint8_t> buf(65536 + 3);
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 511u, 512u, 513u,
                              65536u + 3}) {
    for (const int start : {0, 1, 255}) {
      const auto s = static_cast<std::uint8_t>(start);
      kv::FillRamp(buf.data(), n, s);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(start + i))
            << "n " << n << " start " << start << " byte " << i;
      }
      EXPECT_TRUE(kv::MatchesRamp(buf.data(), n, s));
      if (n == 0) continue;
      EXPECT_FALSE(kv::MatchesRamp(buf.data(), n,
                                   static_cast<std::uint8_t>(start + 1)));
      buf[n - 1] ^= 0x01;
      EXPECT_FALSE(kv::MatchesRamp(buf.data(), n, s)) << n;
    }
  }
}

TEST_F(TableTest, VersionedValueIntactFlagsAnyFlippedPayloadByte) {
  // Lengths around the 256-byte period, plus a 64 KiB value; each runs at
  // three payload starts (the first payload byte, (key + 131 * version +
  // 8) mod 256), 255 wrapping to 0 at once.
  constexpr std::uint64_t kVersion = 3;
  ValueHeap heap(bed.server, 1 << 20);
  for (const std::uint32_t len : {8u, 9u, 255u, 256u, 257u, 600u, 65536u}) {
    for (const int start : {0, 1, 255}) {
      const std::uint64_t key =
          256 + static_cast<std::uint8_t>(start - 131 * kVersion -
                                          kv::kValueVersionBytes);
      const std::uint64_t addr = heap.ReserveForOverwrite(len);
      kv::WriteVersionedValue(bed.server.pd(), addr, len, key, kVersion);
      auto* p = reinterpret_cast<std::uint8_t*>(addr);
      EXPECT_EQ(kv::ValueVersion(addr), kVersion);
      for (std::uint32_t i = kv::kValueVersionBytes; i < len; ++i) {
        ASSERT_EQ(p[i], static_cast<std::uint8_t>(key + 131 * kVersion + i))
            << "len " << len << " start " << start << " byte " << i;
      }
      if (len > kv::kValueVersionBytes) {
        EXPECT_EQ(p[kv::kValueVersionBytes], start);
      }
      EXPECT_TRUE(kv::VersionedValueIntact(addr, len, key)) << len;
      // No payload: an 8-byte value is intact under any key and tag.
      const bool empty = len == kv::kValueVersionBytes;
      EXPECT_EQ(kv::VersionedValueIntact(addr, len, key + 1), empty) << len;
      for (const std::uint32_t off :
           {8u, 9u, 255u, 256u, 257u, len / 2 + 3, len - 1}) {
        if (off < kv::kValueVersionBytes || off >= len) continue;
        p[off] ^= 0x10;
        EXPECT_FALSE(kv::VersionedValueIntact(addr, len, key))
            << "len " << len << " start " << start << " off " << off;
        p[off] ^= 0x10;
        EXPECT_TRUE(kv::VersionedValueIntact(addr, len, key));
      }
      // A bumped version tag no longer matches the payload it heads.
      kv::SetValueVersion(bed.server.pd(), addr, kVersion + 1);
      EXPECT_EQ(kv::VersionedValueIntact(addr, len, key), empty) << len;
    }
  }
}

TEST_F(TableTest, NeighborhoodCoversConfiguredBuckets) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  EXPECT_EQ(t.NeighborhoodBytes(), 6 * kv::kBucketSize);
  // Neighborhood address is within table bounds even for edge hashes.
  for (std::uint64_t k = 1; k < 500; ++k) {
    const std::uint64_t addr = t.NeighborhoodAddr(k);
    EXPECT_GE(addr, t.BucketAddr1(1) - 1024 * kv::kBucketSize);
  }
}

}  // namespace
}  // namespace redn::test
