// Unit tests for protection domains, memory regions, and key checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "rnic/memory.h"

namespace redn::rnic {
namespace {

class MemoryTest : public ::testing::Test {
 protected:
  ProtectionDomain pd;
  std::unique_ptr<std::byte[]> buf = std::make_unique<std::byte[]>(4096);
  std::uint64_t base() const { return dma::AddrOf(buf.get()); }
};

TEST_F(MemoryTest, RegisterAssignsDistinctKeys) {
  const auto& a = pd.Register(buf.get(), 1024, kAccessAll);
  const auto& b = pd.Register(buf.get() + 1024, 1024, kAccessAll);
  EXPECT_NE(a.lkey, b.lkey);
  EXPECT_NE(a.rkey, b.rkey);
  EXPECT_NE(a.lkey, a.rkey);
  EXPECT_EQ(pd.region_count(), 2u);
}

TEST_F(MemoryTest, LocalCheckHappyPath) {
  const auto& mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base(), 1024, mr.lkey, kLocalRead), MemCheck::kOk);
  EXPECT_EQ(pd.CheckLocal(base() + 512, 512, mr.lkey, kLocalWrite),
            MemCheck::kOk);
}

TEST_F(MemoryTest, LocalCheckRejectsBadKey) {
  pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base(), 8, 0xdead, kLocalRead), MemCheck::kBadKey);
}

// Deregistration blanks a region's keys to 0; key 0 must never resolve
// (it would otherwise match the dead region's blanked keys) and
// double-deregistration must fail cleanly.
TEST_F(MemoryTest, SentinelAndBlankedKeysNeverResolve) {
  const auto a = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base(), 8, 0, kLocalRead), MemCheck::kBadKey);
  EXPECT_FALSE(pd.Deregister(0));
  ASSERT_TRUE(pd.Deregister(a.lkey));
  EXPECT_EQ(pd.region_count(), 0u);
  EXPECT_FALSE(pd.Deregister(a.lkey));  // already gone
  EXPECT_FALSE(pd.Deregister(0));       // the blanked key value
  EXPECT_EQ(pd.region_count(), 0u);
  EXPECT_EQ(pd.CheckLocal(base(), 8, 0, kLocalRead), MemCheck::kBadKey);
  EXPECT_EQ(pd.CheckLocal(base(), 8, a.lkey, kLocalRead), MemCheck::kBadKey);
}

TEST_F(MemoryTest, LocalCheckRejectsOutOfBounds) {
  const auto& mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base() + 1020, 8, mr.lkey, kLocalRead),
            MemCheck::kOutOfBounds);
  EXPECT_EQ(pd.CheckLocal(base() - 8, 8, mr.lkey, kLocalRead),
            MemCheck::kOutOfBounds);
}

TEST_F(MemoryTest, RemoteCheckUsesRkeyNotLkey) {
  const auto& mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckRemote(base(), 8, mr.rkey, kRemoteWrite), MemCheck::kOk);
  EXPECT_EQ(pd.CheckRemote(base(), 8, mr.lkey, kRemoteWrite),
            MemCheck::kBadKey);
}

TEST_F(MemoryTest, PermissionBitsEnforced) {
  const auto& ro = pd.Register(buf.get(), 512, kLocalRead | kRemoteRead);
  EXPECT_EQ(pd.CheckRemote(base(), 8, ro.rkey, kRemoteRead), MemCheck::kOk);
  EXPECT_EQ(pd.CheckRemote(base(), 8, ro.rkey, kRemoteWrite),
            MemCheck::kNoPermission);
  EXPECT_EQ(pd.CheckRemote(base(), 8, ro.rkey, kRemoteAtomic),
            MemCheck::kNoPermission);
  EXPECT_EQ(pd.CheckLocal(base(), 8, ro.lkey, kLocalWrite),
            MemCheck::kNoPermission);
}

TEST_F(MemoryTest, DeregisterInvalidatesKeys) {
  const auto mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_TRUE(pd.Deregister(mr.lkey));
  EXPECT_EQ(pd.CheckLocal(base(), 8, mr.lkey, kLocalRead), MemCheck::kBadKey);
  EXPECT_EQ(pd.CheckRemote(base(), 8, mr.rkey, kRemoteRead),
            MemCheck::kBadKey);
  EXPECT_FALSE(pd.Deregister(mr.lkey));
}

TEST_F(MemoryTest, ZeroLengthAccessInsideRegionIsOk) {
  const auto& mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base(), 0, mr.lkey, kLocalRead), MemCheck::kOk);
}

TEST_F(MemoryTest, ReregisterKeepsKeysAndAppliesNewBounds) {
  const auto mr = pd.Register(buf.get(), 1024, kAccessAll);
  ASSERT_TRUE(pd.Reregister(mr.lkey, buf.get(), 256, kAccessAll));
  EXPECT_EQ(pd.CheckLocal(base(), 256, mr.lkey, kLocalRead), MemCheck::kOk);
  EXPECT_EQ(pd.CheckLocal(base() + 256, 8, mr.lkey, kLocalRead),
            MemCheck::kOutOfBounds);
  EXPECT_EQ(pd.CheckRemote(base(), 8, mr.rkey, kRemoteWrite), MemCheck::kOk);
  EXPECT_EQ(pd.region_count(), 1u);
  // An rkey is not a rereg handle, and unknown keys fail cleanly.
  EXPECT_FALSE(pd.Reregister(mr.rkey, buf.get(), 64, kAccessAll));
  EXPECT_FALSE(pd.Reregister(0xdead, buf.get(), 64, kAccessAll));
}

// A key names its region by arithmetic, (key - first key) / 2, with lkeys
// at even offsets and rkeys at odd ones. Every key that arithmetic does
// not map to a live region of the asked-for kind must miss.
TEST_F(MemoryTest, KeyArithmeticRejectsKeysItDoesNotName) {
  const auto a = pd.Register(buf.get(), 1024, kAccessAll);
  const auto b = pd.Register(buf.get() + 1024, 1024, kAccessAll);
  ASSERT_TRUE(pd.Deregister(a.lkey));
  const auto c = pd.Register(buf.get() + 2048, 1024, kAccessAll);
  ASSERT_EQ(b.lkey, a.lkey + 2);
  ASSERT_EQ(c.rkey, a.lkey + 5);
  // An rkey passed as an lkey, and the other way round.
  EXPECT_EQ(pd.CheckLocal(b.addr, 8, b.rkey, kLocalRead), MemCheck::kBadKey);
  EXPECT_EQ(pd.CheckRemote(b.addr, 8, b.lkey, kRemoteRead), MemCheck::kBadKey);
  // The first key not yet issued, and the rkey after it.
  EXPECT_EQ(pd.CheckLocal(c.addr, 8, c.rkey + 1, kLocalRead),
            MemCheck::kBadKey);
  EXPECT_EQ(pd.CheckRemote(c.addr, 8, c.rkey + 2, kRemoteRead),
            MemCheck::kBadKey);
  // A deregistered region's keys, after later registrations.
  EXPECT_EQ(pd.CheckLocal(a.addr, 8, a.lkey, kLocalRead), MemCheck::kBadKey);
  EXPECT_EQ(pd.CheckRemote(a.addr, 8, a.rkey, kRemoteRead), MemCheck::kBadKey);
  // The key just below the first one issued, and the largest key.
  for (const std::uint32_t key : {0x0FFFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(pd.CheckLocal(b.addr, 8, key, kLocalRead), MemCheck::kBadKey);
    EXPECT_EQ(pd.CheckRemote(b.addr, 8, key, kRemoteRead), MemCheck::kBadKey);
  }
  // The keys the arithmetic does name still resolve.
  EXPECT_EQ(pd.CheckLocal(b.addr, 8, b.lkey, kLocalRead), MemCheck::kOk);
  EXPECT_EQ(pd.CheckRemote(c.addr, 8, c.rkey, kRemoteRead), MemCheck::kOk);
}

TEST(MemoryRegion, ContainsHandlesEdges) {
  MemoryRegion mr;
  mr.addr = 1000;
  mr.length = 100;
  EXPECT_TRUE(mr.Contains(1000, 100));
  EXPECT_TRUE(mr.Contains(1099, 1));
  EXPECT_FALSE(mr.Contains(1099, 2));
  EXPECT_FALSE(mr.Contains(999, 1));
}

TEST(Dma, ReadWriteRoundTrip) {
  std::uint64_t word = 0;
  dma::WriteU64(dma::AddrOf(&word), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(word, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(dma::ReadU64(dma::AddrOf(&word)), 0xdeadbeefcafef00dULL);
  std::uint32_t half = 0;
  dma::WriteU32(dma::AddrOf(&half), 0x12345678u);
  EXPECT_EQ(dma::ReadU32(dma::AddrOf(&half)), 0x12345678u);
}

TEST(Dma, CopyHandlesOverlap) {
  char data[16] = "abcdefghijklmno";
  dma::Copy(dma::AddrOf(data + 2), dma::AddrOf(data), 8);
  EXPECT_EQ(data[2], 'a');
  EXPECT_EQ(data[9], 'h');
}

}  // namespace
}  // namespace redn::rnic
