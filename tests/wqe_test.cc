// Unit tests for the WQE binary layout — the foundation of self-modifying
// chains. Field offsets are load-bearing: RedN programs compute raw
// addresses of opcode/id/src fields.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "rnic/wqe.h"

namespace redn::rnic {
namespace {

TEST(WqeLayout, SizeAndOffsetsAreStable) {
  EXPECT_EQ(kWqeSize, 64u);
  EXPECT_EQ(FieldOffset(WqeField::kCtrl), 0u);
  EXPECT_EQ(FieldOffset(WqeField::kRemoteAddr), 8u);
  EXPECT_EQ(FieldOffset(WqeField::kRkey), 16u);
  EXPECT_EQ(FieldOffset(WqeField::kFlags), 20u);
  EXPECT_EQ(FieldOffset(WqeField::kLocalAddr), 24u);
  EXPECT_EQ(FieldOffset(WqeField::kLength), 32u);
  EXPECT_EQ(FieldOffset(WqeField::kLkey), 36u);
  EXPECT_EQ(FieldOffset(WqeField::kCompareAdd), 40u);
  EXPECT_EQ(FieldOffset(WqeField::kSwap), 48u);
  EXPECT_EQ(FieldOffset(WqeField::kTargetId), 56u);
  EXPECT_EQ(FieldOffset(WqeField::kImm), 60u);
}

TEST(WqeCtrl, PacksOpcodeAndId) {
  const std::uint64_t ctrl = PackCtrl(Opcode::kWrite, 0x123456789abcULL);
  EXPECT_EQ(CtrlOpcode(ctrl), Opcode::kWrite);
  EXPECT_EQ(CtrlWrId(ctrl), 0x123456789abcULL);
}

TEST(WqeCtrl, IdIsMaskedTo48Bits) {
  // The 48-bit operand limit of RedN constructs (§3.5) comes from here.
  const std::uint64_t big = 0xffffffffffffffffULL;
  const std::uint64_t ctrl = PackCtrl(Opcode::kNoop, big);
  EXPECT_EQ(CtrlWrId(ctrl), kWrIdMask);
  EXPECT_EQ(CtrlOpcode(ctrl), Opcode::kNoop);
}

TEST(WqeCtrl, NoopWithIdEqualsBareId) {
  // Opcode::kNoop must be 0 so that a CAS comparing {NOOP, x} against the
  // ctrl word can use the bare 48-bit key as its compare operand.
  const std::uint64_t x = 0x0000ab12cd34ef56ULL & kWrIdMask;
  EXPECT_EQ(PackCtrl(Opcode::kNoop, x), x);
}

TEST(WqeView, StoreLoadRoundTrip) {
  alignas(8) std::array<std::byte, kWqeSize> slot{};
  ProtectionDomain pd;
  WqeView view(slot.data(), pd);
  WqeImage img;
  img.ctrl = PackCtrl(Opcode::kCompSwap, 42);
  img.remote_addr = 0x1111222233334444ULL;
  img.rkey = 0xaaaa;
  img.flags = kFlagSignaled;
  img.local_addr = 0x5555666677778888ULL;
  img.length = 4096;
  img.lkey = 0xbbbb;
  img.compare_add = 0x1234;
  img.swap = 0x5678;
  img.target_id = 7;
  img.imm = 99;
  view.Store(img);
  const WqeImage back = view.Load();
  EXPECT_EQ(back.ctrl, img.ctrl);
  EXPECT_EQ(back.remote_addr, img.remote_addr);
  EXPECT_EQ(back.rkey, img.rkey);
  EXPECT_EQ(back.flags, img.flags);
  EXPECT_EQ(back.local_addr, img.local_addr);
  EXPECT_EQ(back.length, img.length);
  EXPECT_EQ(back.lkey, img.lkey);
  EXPECT_EQ(back.compare_add, img.compare_add);
  EXPECT_EQ(back.swap, img.swap);
  EXPECT_EQ(back.target_id, img.target_id);
  EXPECT_EQ(back.imm, img.imm);
}

TEST(WqeView, OpcodeRewriteViaCasLikeWrite) {
  // The self-modification primitive: overwriting the ctrl word flips the
  // opcode while preserving the id.
  alignas(8) std::array<std::byte, kWqeSize> slot{};
  ProtectionDomain pd;
  WqeView view(slot.data(), pd);
  view.set_ctrl(PackCtrl(Opcode::kNoop, 777));
  EXPECT_EQ(view.opcode(), Opcode::kNoop);
  // Simulate the CAS swap: write {WRITE, 777} at the ctrl address.
  dma::WriteU64(view.FieldAddr(WqeField::kCtrl), PackCtrl(Opcode::kWrite, 777));
  EXPECT_EQ(view.opcode(), Opcode::kWrite);
  EXPECT_EQ(view.wr_id(), 777u);
}

TEST(WqeView, FieldAddrPointsIntoSlot) {
  alignas(8) std::array<std::byte, kWqeSize> slot{};
  ProtectionDomain pd;
  WqeView view(slot.data(), pd);
  EXPECT_EQ(view.FieldAddr(WqeField::kCtrl), dma::AddrOf(slot.data()));
  EXPECT_EQ(view.FieldAddr(WqeField::kSwap), dma::AddrOf(slot.data()) + 48);
}

TEST(WqeView, ClearZeroesSlot) {
  alignas(8) std::array<std::byte, kWqeSize> slot;
  std::memset(slot.data(), 0xff, kWqeSize);
  ProtectionDomain pd;
  WqeView view(slot.data(), pd);
  view.Clear();
  EXPECT_EQ(view.ctrl(), 0u);
  EXPECT_EQ(view.opcode(), Opcode::kNoop);
}

TEST(WqeImage, FlagHelpers) {
  WqeImage img;
  img.flags = kFlagSignaled | kFlagSgeTable;
  EXPECT_TRUE(img.signaled());
  EXPECT_TRUE(img.uses_sge_table());
  img.flags = 0;
  EXPECT_FALSE(img.signaled());
  EXPECT_FALSE(img.uses_sge_table());
}

TEST(Opcode, NamesAreUnique) {
  for (int a = 0; a < static_cast<int>(Opcode::kOpcodeCount); ++a) {
    for (int b = a + 1; b < static_cast<int>(Opcode::kOpcodeCount); ++b) {
      EXPECT_STRNE(OpcodeName(static_cast<Opcode>(a)),
                   OpcodeName(static_cast<Opcode>(b)));
    }
  }
}

}  // namespace
}  // namespace redn::rnic
