// Registered memory: protection domains, memory regions, key checks, DMA.
//
// Simulated RDMA targets *real process memory*: an address in a WQE is a
// reinterpret_cast of a host pointer. Registration attaches lkey/rkey
// capability tokens and access rights; every NIC access is checked the way
// the hardware's MTT/MPT would check it. This is what makes self-modifying
// chains honest — the "code region" is the WQ ring buffer itself, registered
// like any other memory.
#pragma once

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

// One-entry memoization of the last MR lookup a queue performed. RedN
// traffic hits the same 2-3 regions (code ring, hash table, value heap)
// millions of times, so the common case is "same key as last time": a hit
// validates against the cached extent directly and skips both the table
// probe and the region-store load.
//
// Caching the extent makes staleness dangerous: ibv_rereg_mr-style
// re-registration keeps the *same* lkey/rkey values while changing bounds,
// so a key compare alone would happily validate against the old extent
// (e.g. a client writing through `remote_mr_cache` past a shrunk region).
// The epoch tag closes that hole: the owning ProtectionDomain bumps its
// epoch on every Deregister/Reregister, and a hit requires both the key
// and the epoch to match — any mutation of the key space invalidates every
// outstanding cache entry at once.
struct MrCacheEntry {
  std::uint32_t key = 0;      // 0 = empty (real keys start at 0x1000)
  std::uint32_t epoch = 0;    // ProtectionDomain::epoch() at fill time
  std::uint64_t addr = 0;     // cached extent + rights of the resolved MR
  std::uint64_t length = 0;
  std::uint32_t access = 0;
};

class ProtectionDomain {
 public:
  // Registers [ptr, ptr+len) and returns the region descriptor by value:
  // the internal region store reallocates as it grows, so a reference into
  // it would dangle across a later Register.
  MemoryRegion Register(void* ptr, std::size_t len, std::uint32_t access);

  // Removes a region; accesses with its keys fail afterwards.
  bool Deregister(std::uint32_t lkey);

  // ibv_rereg_mr analogue: rebinds an existing registration to new bounds
  // and rights while KEEPING its lkey/rkey values — the hardware behaviour
  // that makes stale extent caches dangerous. Bumps the epoch so every
  // MrCacheEntry filled before the rereg misses and re-resolves.
  bool Reregister(std::uint32_t lkey, void* ptr, std::size_t len,
                  std::uint32_t access);

  // Validates a local (lkey) access. `cache`, when given, is consulted
  // before the key table and refreshed on a successful lookup. The hit
  // path is inline: it runs once per SGE on every data verb, and a valid
  // (key, epoch) entry answers from the cached extent alone.
  MemCheck CheckLocal(std::uint64_t addr, std::size_t len, std::uint32_t lkey,
                      std::uint32_t required_access,
                      MrCacheEntry* cache = nullptr) const {
    if (cache != nullptr && cache->key == lkey && cache->epoch == epoch_) {
      return CheckCached(*cache, addr, len, required_access);
    }
    return CheckSlow(addr, len, lkey, required_access, /*remote=*/false, cache);
  }

  // Validates a remote (rkey) access.
  MemCheck CheckRemote(std::uint64_t addr, std::size_t len, std::uint32_t rkey,
                       std::uint32_t required_access,
                       MrCacheEntry* cache = nullptr) const {
    if (cache != nullptr && cache->key == rkey && cache->epoch == epoch_) {
      return CheckCached(*cache, addr, len, required_access);
    }
    return CheckSlow(addr, len, rkey, required_access, /*remote=*/true, cache);
  }

  std::size_t region_count() const { return live_count_; }
  // Generation counter for MrCacheEntry validation; bumped by every
  // Deregister/Reregister (key-space mutation).
  std::uint32_t epoch() const { return epoch_; }

 private:
  // Open-addressed key table: maps an lkey or rkey to its region slot.
  // Both key kinds share one table (the key counter never collides them),
  // so a remote check is a single probe instead of the old two-map
  // rkey->lkey->region chain.
  struct TableSlot {
    std::uint32_t key = 0;    // kEmptyKey / kTombstoneKey / a real key
    std::uint32_t index = 0;  // slot in regions_
  };
  static constexpr std::uint32_t kEmptyKey = 0;
  static constexpr std::uint32_t kTombstoneKey = 1;
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};
  // First key ever issued. Values below it (the sentinels above, and the
  // zeroes Deregister blanks a region's keys to) are never valid lookups;
  // Resolve rejects them up front so a blanked key cannot alias an empty
  // table slot or a dead region.
  static constexpr std::uint32_t kFirstKey = 0x1000;

  static std::size_t Mix(std::uint32_t key) {
    return static_cast<std::size_t>(key * 2654435761u);
  }
  std::uint32_t Find(std::uint32_t key) const;  // region index or kNotFound
  void Insert(std::uint32_t key, std::uint32_t index);
  void GrowTable();

  // Table probe + kind check (lkey vs rkey); cache handling lives in the
  // Check* fast paths.
  const MemoryRegion* Resolve(std::uint32_t key, bool remote) const;
  // Permission + bounds against a validated cache entry (same arithmetic as
  // MemoryRegion::Contains, overflow check included).
  static MemCheck CheckCached(const MrCacheEntry& e, std::uint64_t addr,
                              std::size_t len, std::uint32_t required_access) {
    if ((e.access & required_access) != required_access) {
      return MemCheck::kNoPermission;
    }
    if (addr >= e.addr && addr + len <= e.addr + e.length && addr + len >= addr) {
      return MemCheck::kOk;
    }
    return MemCheck::kOutOfBounds;
  }
  // Miss path: table probe, cache refill, full check.
  MemCheck CheckSlow(std::uint64_t addr, std::size_t len, std::uint32_t key,
                     std::uint32_t required_access, bool remote,
                     MrCacheEntry* cache) const;

  std::uint32_t next_key_ = kFirstKey;
  std::uint32_t epoch_ = 0;
  std::size_t live_count_ = 0;
  std::vector<MemoryRegion> regions_;  // append-only; dereg blanks keys
  std::vector<TableSlot> table_;       // power-of-two, linear probing
  std::size_t table_used_ = 0;         // live + tombstone slots
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
// zero-fill (insert copies straight from the source). Keeps gather/READ
// capture inside the dma funnel so read-side instrumentation has the same
// single choke point the write side does.
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
