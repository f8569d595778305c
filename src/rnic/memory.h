// Registered memory: protection domains, memory regions, key checks, DMA.
//
// Simulated RDMA targets *real process memory*: an address in a WQE is a
// reinterpret_cast of a host pointer. Registration attaches lkey/rkey
// capability tokens and access rights; every NIC access is checked the way
// the hardware's MTT/MPT would check it. This is what makes self-modifying
// chains honest — the "code region" is the WQ ring buffer itself, registered
// like any other memory.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace redn::rnic {

// Access rights for a memory region (bitmask).
enum Access : std::uint32_t {
  kLocalRead = 1u << 0,   // usable as a gather source
  kLocalWrite = 1u << 1,  // usable as a scatter target
  kRemoteRead = 1u << 2,
  kRemoteWrite = 1u << 3,
  kRemoteAtomic = 1u << 4,
  kAccessAll = kLocalRead | kLocalWrite | kRemoteRead | kRemoteWrite | kRemoteAtomic,
};

struct MemoryRegion {
  std::uint64_t addr = 0;  // start address (host pointer value)
  std::size_t length = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  std::uint32_t access = 0;

  bool Contains(std::uint64_t a, std::size_t len) const {
    return a >= addr && a + len <= addr + length && a + len >= a;
  }
};

// Why an access check failed (surfaces as a CQE error status).
enum class MemCheck {
  kOk,
  kBadKey,
  kOutOfBounds,
  kNoPermission,
};

struct CarriedBytes;

class ProtectionDomain {
 public:
  // Registers [ptr, ptr+len) and returns the region descriptor by value:
  // the internal region store reallocates as it grows, so a reference into
  // it would dangle across a later Register.
  MemoryRegion Register(void* ptr, std::size_t len, std::uint32_t access);

  // Removes a region; accesses with its keys fail afterwards.
  bool Deregister(std::uint32_t lkey);

  // ibv_rereg_mr analogue: rebinds an existing registration to new bounds
  // and rights while KEEPING its lkey/rkey values. The region is edited in
  // place, so the next check of either key sees the new extent.
  bool Reregister(std::uint32_t lkey, void* ptr, std::size_t len,
                  std::uint32_t access);

  // Validates a local (lkey) access. Inline: it runs once per SGE on every
  // data verb.
  MemCheck CheckLocal(std::uint64_t addr, std::size_t len, std::uint32_t lkey,
                      std::uint32_t required_access) const {
    return Check(Resolve(lkey, /*remote=*/false), addr, len, required_access);
  }

  // Validates a remote (rkey) access.
  MemCheck CheckRemote(std::uint64_t addr, std::size_t len, std::uint32_t rkey,
                       std::uint32_t required_access) const {
    return Check(Resolve(rkey, /*remote=*/true), addr, len, required_access);
  }

  std::size_t region_count() const { return live_count_; }

  // --- Copy-on-write of deferred copies ---------------------------------
  // A deferred copy (CarriedBytes) pins its checked source extents here,
  // in the domain that registered them, until its delivery copies from
  // them. Every store into memory registered here — NIC or host — calls
  // BeforeStore first: it materializes each pinned copy whose extents
  // overlap [addr, addr + len), so that copy still delivers the bytes of
  // its issue instant. Deregister and a shrinking Reregister materialize
  // the copies they would strand. Inline: a store outside the bounding
  // interval of every pin, or with no pin at all, costs two compares.
  void BeforeStore(std::uint64_t addr, std::size_t len) {
    if (addr < pin_hi_ && addr + len > pin_lo_) {
      MaterializeOverlapping(addr, len);
    }
  }
  void Pin(CarriedBytes* c);
  void Unpin(CarriedBytes* c);
  // Whether a deferred copy pins a byte of [addr, addr + len).
  bool Pinned(std::uint64_t addr, std::size_t len) const;

 private:
  // First key ever issued. Register hands out keys as consecutive
  // (lkey, rkey) pairs counting up from here and never reuses one, so a
  // key names its region: regions_[(key - kFirstKey) / 2], an lkey at an
  // even offset and an rkey at an odd one.
  static constexpr std::uint32_t kFirstKey = 0x1000;

  // The live region `key` names as an rkey (`remote`) or an lkey, or null.
  // A key below kFirstKey wraps to an index past the end, like a key not
  // yet issued. The key compare rejects the other kind of key and a region
  // Deregister blanked (its keys are 0).
  const MemoryRegion* Resolve(std::uint32_t key, bool remote) const {
    const std::size_t index = (key - kFirstKey) / 2;
    if (index >= regions_.size()) return nullptr;
    const MemoryRegion& mr = regions_[index];
    return (remote ? mr.rkey : mr.lkey) == key ? &mr : nullptr;
  }
  MemoryRegion* ResolveLkey(std::uint32_t lkey) {
    return const_cast<MemoryRegion*>(Resolve(lkey, /*remote=*/false));
  }
  static MemCheck Check(const MemoryRegion* mr, std::uint64_t addr,
                        std::size_t len, std::uint32_t required_access) {
    if (mr == nullptr) return MemCheck::kBadKey;
    if ((mr->access & required_access) != required_access) {
      return MemCheck::kNoPermission;
    }
    if (!mr->Contains(addr, len)) return MemCheck::kOutOfBounds;
    return MemCheck::kOk;
  }

  void MaterializeOverlapping(std::uint64_t addr, std::size_t len);

  std::uint32_t next_key_ = kFirstKey;
  std::size_t live_count_ = 0;
  std::vector<MemoryRegion> regions_;  // one per key pair; dereg blanks keys
  std::vector<CarriedBytes*> pinned_;
  // Bounding interval of every pinned extent: exact after a materialize,
  // conservative (never too small) after an Unpin. Empty when lo >= hi.
  std::uint64_t pin_lo_ = ~std::uint64_t{0};
  std::uint64_t pin_hi_ = 0;
};

// The bytes a data verb carries from its source to its destination. A copy
// at issue fills `bytes`. A deferred copy — source and destination on one
// event domain — keeps the protection-checked source extents instead,
// pinned in the source's ProtectionDomain, and its delivery copies straight
// from them: one copy per delivered byte. `len` is the byte count either
// way.
//
// Debug builds checksum a deferred source when it is pinned, and Verify
// aborts at delivery when the bytes changed since: a store into registered
// memory that skipped BeforeStore fails loudly instead of silently moving a
// result.
struct CarriedBytes {
  struct Extent {
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
  };
  static constexpr int kMaxExtents = 16;  // a gather list's SGE limit

  std::vector<std::byte> bytes;
  std::uint64_t len = 0;
  std::array<Extent, kMaxExtents> extents{};
  int extent_count = 0;
  ProtectionDomain* pinned_in = nullptr;  // non-null while deferred
  bool verify = false;                    // deferred at issue (Debug)
  std::uint64_t issue_sum = 0;

  bool deferred() const { return pinned_in != nullptr; }
  // Appends one checked source extent (len > 0) and counts its bytes.
  void AddExtent(std::uint64_t addr, std::uint64_t n) {
    extents[static_cast<std::size_t>(extent_count++)] = Extent{addr, n};
    len += n;
  }
  bool Overlaps(std::uint64_t addr, std::size_t n) const;
  // Copies the extents into `bytes`: the copy at issue, or the
  // materialization of a deferred copy just before its source changes.
  void Gather();
  // Copies carried bytes [offset, offset + n) to `dst`.
  void CopyOut(std::uint64_t offset, std::uint64_t dst, std::size_t n) const;
  // Delivery is done: drops the pin, if any. `len` stays for the CQE.
  void Unpin() {
    if (pinned_in != nullptr) pinned_in->Unpin(this);
  }
  // Back to empty for reuse, keeping the buffer's capacity.
  void Clear() {
    Unpin();
    bytes.clear();
    len = 0;
    extent_count = 0;
    verify = false;
  }
  // Aborts when a copy deferred at issue no longer carries the bytes it
  // was pinned with (Debug builds; a no-op otherwise).
  void Verify() const;
};

// DMA helpers: all NIC memory traffic funnels through these, so tests can
// rely on memcpy semantics (no strict-aliasing surprises). They are inline
// on purpose: a WQE fetch/store touches every field through them (~20 calls
// per WQE), and as out-of-line functions they dominated the per-verb cost
// of the data path. Inlined, a WqeView::Load collapses into straight-line
// loads the compiler can schedule and vectorize.
namespace dma {
inline void Copy(std::uint64_t dst, std::uint64_t src, std::size_t len) {
  std::memmove(reinterpret_cast<void*>(dst), reinterpret_cast<const void*>(src),
               len);
}
inline void Write(std::uint64_t dst, const void* src, std::size_t len) {
  std::memcpy(reinterpret_cast<void*>(dst), src, len);
}
inline void Read(void* dst, std::uint64_t src, std::size_t len) {
  std::memcpy(dst, reinterpret_cast<const void*>(src), len);
}
// Appends `len` bytes from simulated memory to `out` without resize()'s
// zero-fill (insert copies straight from the source). CarriedBytes::Gather
// is its one caller: a gather or READ capture copied at issue, or a
// deferred copy materialized before a store overwrites its source.
inline void ReadAppend(std::vector<std::byte>& out, std::uint64_t src,
                       std::size_t len) {
  const std::byte* p = reinterpret_cast<const std::byte*>(src);
  out.insert(out.end(), p, p + len);
}
inline std::uint64_t ReadU64(std::uint64_t addr) {
  std::uint64_t v;
  Read(&v, addr, sizeof(v));
  return v;
}
inline void WriteU64(std::uint64_t addr, std::uint64_t value) {
  Write(addr, &value, sizeof(value));
}
inline std::uint32_t ReadU32(std::uint64_t addr) {
  std::uint32_t v;
  Read(&v, addr, sizeof(v));
  return v;
}
inline void WriteU32(std::uint64_t addr, std::uint32_t value) {
  Write(addr, &value, sizeof(value));
}
inline std::uint64_t AddrOf(const void* p) {
  return reinterpret_cast<std::uint64_t>(p);
}
}  // namespace dma

}  // namespace redn::rnic
