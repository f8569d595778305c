// Work Queue Entry (WQE) binary layout.
//
// WQEs live as raw bytes inside work-queue ring buffers in (simulated) host
// memory, exactly like mlx5 WQEs live in a memory-mapped send queue. RedN's
// entire trick depends on this: a CAS/WRITE/RECV-scatter that targets the
// *address of a WQE field* rewrites the program the NIC will execute.
//
// Layout (64 bytes, little-endian words):
//
//   offset 0  : u64 ctrl         [63:48] opcode | [47:0] wr_id ("id" field)
//   offset 8  : u64 remote_addr
//   offset 16 : u32 rkey
//   offset 20 : u32 flags        bit0 SIGNALED, bit1 SGE_TABLE
//   offset 24 : u64 local_addr   (or SGE-table pointer when SGE_TABLE)
//   offset 32 : u32 length       (or SGE count when SGE_TABLE)
//   offset 36 : u32 lkey
//   offset 40 : u64 compare_add  CAS compare / ADD operand / WAIT+ENABLE count
//   offset 48 : u64 swap         CAS swap / CALC operand
//   offset 56 : u32 target_id    WAIT: CQ id / ENABLE: QP id
//   offset 60 : u32 imm
//
// The ctrl word packs the opcode into the top 16 bits and the 48-bit wr_id
// below it. This is why RedN conditionals carry 48-bit operands (§3.5): one
// 64-bit CAS on the ctrl word compares {opcode, id} against {NOOP, x} and can
// swap in {WRITE, x}, flipping a no-op into an enabled instruction exactly
// when the ids match.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "rnic/memory.h"

namespace redn::rnic {

inline constexpr std::size_t kWqeSize = 64;
inline constexpr std::uint64_t kWrIdMask = (1ULL << 48) - 1;

enum class Opcode : std::uint16_t {
  kNoop = 0,  // must be 0 so a bare 48-bit key compares equal to a NOOP ctrl
  kWrite = 1,
  kWriteImm = 2,
  kRead = 3,
  kSend = 4,
  kSendImm = 5,
  kRecv = 6,
  kCompSwap = 7,   // CAS
  kFetchAdd = 8,   // ADD
  kCalcMax = 9,    // vendor Calc verb (ConnectX)
  kCalcMin = 10,
  kWait = 11,      // cross-channel: block until CQ count reaches threshold
  kEnable = 12,    // cross-channel: raise a managed queue's fetch limit
  kOpcodeCount = 13,
};

const char* OpcodeName(Opcode op);

enum WqeFlags : std::uint32_t {
  kFlagSignaled = 1u << 0,  // produce a CQE (and count toward WAIT)
  kFlagSgeTable = 1u << 1,  // local_addr points to an Sge[length] table
                            // in the region lkey names
};

// Scatter/gather element for multi-entry lists (RECV scatter, READ response
// scatter). A RECV can scatter into at most kMaxSges entries (§5.3: "RECVs
// can only perform 16 scatters").
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};
inline constexpr int kMaxSges = 16;

// Field identifiers used to compute self-modification target addresses.
enum class WqeField : std::uint32_t {
  kCtrl = 0,         // the {opcode, wr_id} word — CAS target for conditionals
  kRemoteAddr = 8,
  kRkey = 16,
  kFlags = 20,
  kLocalAddr = 24,
  kLength = 32,
  kLkey = 36,
  kCompareAdd = 40,
  kSwap = 48,
  kTargetId = 56,
  kImm = 60,
};

constexpr std::size_t FieldOffset(WqeField f) { return static_cast<std::size_t>(f); }

// Packs {opcode, id} into a ctrl word.
constexpr std::uint64_t PackCtrl(Opcode op, std::uint64_t wr_id) {
  return (static_cast<std::uint64_t>(op) << 48) | (wr_id & kWrIdMask);
}
constexpr Opcode CtrlOpcode(std::uint64_t ctrl) {
  return static_cast<Opcode>(ctrl >> 48);
}
constexpr std::uint64_t CtrlWrId(std::uint64_t ctrl) { return ctrl & kWrIdMask; }

// A decoded, value-semantics snapshot of one WQE. The NIC operates on
// snapshots taken at *fetch* time — this is what makes prefetch staleness
// observable and doorbell ordering necessary.
//
// The member order mirrors the wire layout word for word (static_asserts
// below), so a fetch is ONE 64-byte copy, a post is one 64-byte store, and
// a fetch can tell whether a slot still holds the image last decoded there
// with a single memcmp instead of a field-by-field reload.
struct WqeImage {
  std::uint64_t ctrl = 0;
  std::uint64_t remote_addr = 0;
  std::uint32_t rkey = 0;
  std::uint32_t flags = 0;
  std::uint64_t local_addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
  std::uint64_t compare_add = 0;
  std::uint64_t swap = 0;
  std::uint32_t target_id = 0;
  std::uint32_t imm = 0;

  Opcode opcode() const { return CtrlOpcode(ctrl); }
  std::uint64_t wr_id() const { return CtrlWrId(ctrl); }
  bool signaled() const { return flags & kFlagSignaled; }
  bool uses_sge_table() const { return flags & kFlagSgeTable; }
};

static_assert(sizeof(WqeImage) == kWqeSize &&
                  std::is_trivially_copyable_v<WqeImage>,
              "WqeImage must be memcpy-compatible with the raw WQE bytes");
static_assert(offsetof(WqeImage, ctrl) == FieldOffset(WqeField::kCtrl) &&
                  offsetof(WqeImage, remote_addr) ==
                      FieldOffset(WqeField::kRemoteAddr) &&
                  offsetof(WqeImage, rkey) == FieldOffset(WqeField::kRkey) &&
                  offsetof(WqeImage, flags) == FieldOffset(WqeField::kFlags) &&
                  offsetof(WqeImage, local_addr) ==
                      FieldOffset(WqeField::kLocalAddr) &&
                  offsetof(WqeImage, length) == FieldOffset(WqeField::kLength) &&
                  offsetof(WqeImage, lkey) == FieldOffset(WqeField::kLkey) &&
                  offsetof(WqeImage, compare_add) ==
                      FieldOffset(WqeField::kCompareAdd) &&
                  offsetof(WqeImage, swap) == FieldOffset(WqeField::kSwap) &&
                  offsetof(WqeImage, target_id) ==
                      FieldOffset(WqeField::kTargetId) &&
                  offsetof(WqeImage, imm) == FieldOffset(WqeField::kImm),
              "WqeImage member order must match the wire layout");

// Mutable view over 64 raw WQE bytes in host memory. The driver (verbs
// layer) uses it to post WRs; RDMA verbs modify the same bytes via dma::*.
// The ring is registered memory of `pd`, so every store passes its
// copy-on-write hook first.
class WqeView {
 public:
  WqeView(std::byte* base, ProtectionDomain& pd) : base_(base), pd_(&pd) {}

  std::uint64_t addr() const { return dma::AddrOf(base_); }
  std::uint64_t FieldAddr(WqeField f) const { return addr() + FieldOffset(f); }

  // Load/Store are inline, and — because WqeImage mirrors the wire layout —
  // each is a single 64-byte block copy the compiler vectorizes. This runs
  // once per fetched/posted WQE on the hot path.
  WqeImage Load() const {
    WqeImage img;
    dma::Read(&img, addr(), kWqeSize);
    return img;
  }
  void Store(const WqeImage& img) {
    pd_->BeforeStore(addr(), kWqeSize);
    dma::Write(addr(), &img, kWqeSize);
  }
  // True when the raw slot bytes equal `img`: at fetch, one memcmp decides
  // whether the slot's last decoded image is still current.
  bool Matches(const WqeImage& img) const {
    return std::memcmp(base_, &img, kWqeSize) == 0;
  }
  void Clear();

  // Typed field accessors (reads/writes through dma helpers).
  std::uint64_t ctrl() const { return dma::ReadU64(FieldAddr(WqeField::kCtrl)); }
  void set_ctrl(std::uint64_t v) {
    pd_->BeforeStore(FieldAddr(WqeField::kCtrl), 8);
    dma::WriteU64(FieldAddr(WqeField::kCtrl), v);
  }
  Opcode opcode() const { return CtrlOpcode(ctrl()); }
  void set_opcode(Opcode op) { set_ctrl(PackCtrl(op, CtrlWrId(ctrl()))); }
  std::uint64_t wr_id() const { return CtrlWrId(ctrl()); }
  void set_wr_id(std::uint64_t id) { set_ctrl(PackCtrl(opcode(), id)); }

 private:
  std::byte* base_;
  ProtectionDomain* pd_;
};

}  // namespace redn::rnic
