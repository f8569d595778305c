// RDMA-visible hash table and value heap.
//
// The layouts here are part of the offload ABI: the RNIC program reads
// buckets with scatter lists that drop bucket fields directly into WQE
// fields (Fig 9), so offsets are fixed and documented.
//
// Bucket (24 bytes):
//   offset 0  : u64 key   48-bit key; 0 = empty (keys must be non-zero)
//   offset 8  : u64 ptr   address of the value bytes (registered heap)
//   offset 16 : u32 len   value length
//   offset 20 : u32 pad
//
// A READ of the first 20 bytes scatters as:
//   key -> response WQE ctrl word   (sets id = key, opcode = NOOP)
//   ptr -> response WQE local_addr  (the value the WRITE will send)
//   len -> response WQE length
//
// Hashing is 2-choice (the paper's H = 2, "common in practice [24]"): a key
// lives in bucket H1(k) or H2(k). For the FaRM-style one-sided baseline the
// table also exposes hopscotch neighbourhoods of H1 (6 buckets).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "rnic/device.h"

namespace redn::kv {

inline constexpr std::size_t kBucketSize = 24;
inline constexpr std::size_t kBucketKeyOff = 0;
inline constexpr std::size_t kBucketPtrOff = 8;
inline constexpr std::size_t kBucketLenOff = 16;
inline constexpr std::uint64_t kKeyMask = (1ULL << 48) - 1;

// 48-bit mixers for the two bucket choices.
std::uint64_t Hash1(std::uint64_t key);
std::uint64_t Hash2(std::uint64_t key);

// --- Value patterns ---------------------------------------------------------
// Both value layouts are runs of the 0..255 ramp: byte i of a run is
// (start + i) mod 256. The two helpers copy and compare whole runs from a
// 512-byte table, so they never build a pattern byte by byte.
void FillRamp(void* dst, std::size_t n, std::uint8_t start);
bool MatchesRamp(const void* src, std::size_t n, std::uint8_t start);

// --- Versioned values -------------------------------------------------------
// When the KV service runs a write path, every value starts with a u64
// version tag (0 = seeded, +1 per applied put); payload bytes follow. The
// payload is a pure function of (key, version): byte i (i >= 8) is
// (key + 131 * version + i) mod 256. Readers, the chain successor, and
// anti-entropy resync can therefore all verify bytes without keeping a
// shadow copy of the store.
inline constexpr std::uint32_t kValueVersionBytes = 8;

// Version tag of the value at `addr` (little-endian u64 in bytes [0, 8)).
std::uint64_t ValueVersion(std::uint64_t addr);
// The writers below store into registered memory of `pd`, passing its
// store hook first.
void SetValueVersion(rnic::ProtectionDomain& pd, std::uint64_t addr,
                     std::uint64_t version);

// Writes the tag and fills bytes [8, len) with the pattern. len >= 8.
void WriteVersionedValue(rnic::ProtectionDomain& pd, std::uint64_t addr,
                         std::uint32_t len, std::uint64_t key,
                         std::uint64_t version);

// True iff the value's payload matches the pattern for (key, its own tag).
// len >= 8.
bool VersionedValueIntact(std::uint64_t addr, std::uint32_t len,
                          std::uint64_t key);

// Bump allocator over one registered region: values live here so a single
// rkey covers everything the response WRITE may point at. The region is not
// pre-zeroed: every byte is written when its slot is handed out (Reserve's
// zeroes, Store's copy, or the caller's fill after ReserveForOverwrite).
// Under ASan the bytes not yet handed out are poisoned, so a NIC or host
// read of a never-written heap byte fails loudly.
class ValueHeap {
 public:
  ValueHeap(rnic::RnicDevice& dev, std::size_t capacity_bytes);

  // Copies `len` bytes in and returns their address; 8-byte aligned.
  std::uint64_t Store(const void* data, std::uint32_t len);
  // Reserves zeroed space without data.
  std::uint64_t Reserve(std::uint32_t len);
  // Reserves space the caller overwrites in full before anything reads it
  // (a value fill), so no byte is written twice. The slot has passed the
  // store hook, so the caller's fill needs none of its own.
  std::uint64_t ReserveForOverwrite(std::uint32_t len);

  std::uint32_t lkey() const { return mr_.lkey; }
  std::uint32_t rkey() const { return mr_.rkey; }
  std::uint64_t base() const { return mr_.addr; }
  std::size_t used() const { return used_; }
  std::size_t capacity() const { return capacity_; }

 private:
  rnic::ProtectionDomain& pd_;
  std::unique_ptr<std::byte[]> mem_;
  std::size_t capacity_;
  std::size_t used_ = 0;
  rnic::MemoryRegion mr_;
};

// Where RdmaHashTable::Insert put a key. Insert never evicts, so the
// answer stays true until the key is erased. Only kBucket keys are in the
// two slots a NIC-offloaded 2-bucket probe (HashGetOffload) reads; a key
// that fell back to the hopscotch neighbourhood is host-visible via Lookup
// but invisible to the offload, so NIC-served workloads draw from kBucket
// keys or treat such gets as misses.
enum class Placement : std::uint8_t {
  kNone,          // not stored
  kBucket,        // its H1 or H2 bucket
  kNeighborhood,  // another slot of the H1 neighbourhood
};

// Fixed-size 2-choice hash table in registered memory.
class RdmaHashTable {
 public:
  struct Config {
    std::size_t buckets = 1 << 16;  // power of two
  };

  RdmaHashTable(rnic::RnicDevice& dev, Config cfg);

  // Inserts key -> (ptr, len) and reports where it landed: kNone if both
  // candidate buckets and the H1 neighbourhood are full (or key is 0).
  // `force_second` plants the key in its H2 bucket even if H1 is free —
  // used to construct the collision experiments (Fig 11).
  Placement Insert(std::uint64_t key, std::uint64_t ptr, std::uint32_t len,
                   bool force_second = false);
  // Prefetches `key`'s H1 bucket for writing: a store loop issues it a few
  // inserts ahead, so the random bucket access overlaps the work between.
  void PrefetchBucket1(std::uint64_t key) const;

  bool Erase(std::uint64_t key);
  void Clear();

  struct Entry {
    std::uint64_t ptr;
    std::uint32_t len;
  };
  // Host-side lookup (used by the two-sided baseline's CPU handler).
  std::optional<Entry> Lookup(std::uint64_t key) const;

  // Bucket addresses for building triggers / one-sided reads.
  std::uint64_t BucketAddr1(std::uint64_t key) const;
  std::uint64_t BucketAddr2(std::uint64_t key) const;
  // Start of the H1 hopscotch neighbourhood and its byte length.
  std::uint64_t NeighborhoodAddr(std::uint64_t key) const;
  std::uint32_t NeighborhoodBytes() const;

  std::uint32_t rkey() const { return mr_.rkey; }
  std::uint32_t lkey() const { return mr_.lkey; }
  std::size_t size() const { return count_; }
  std::size_t buckets() const { return cfg_.buckets; }

 private:
  std::size_t IndexOf1(std::uint64_t key) const;
  std::size_t IndexOf2(std::uint64_t key) const;
  std::uint64_t SlotAddr(std::size_t index) const;
  bool TryPlace(std::size_t index, std::uint64_t key, std::uint64_t ptr,
                std::uint32_t len);

  Config cfg_;
  rnic::ProtectionDomain& pd_;
  std::unique_ptr<std::byte[]> mem_;
  rnic::MemoryRegion mr_;
  std::size_t count_ = 0;
};

}  // namespace redn::kv
