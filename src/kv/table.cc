#include "kv/table.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <new>

namespace redn::kv {
namespace {

std::uint64_t Mix(std::uint64_t x, std::uint64_t salt) {
  x += salt;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Two periods of the ramp: kRamp + start is a 256-byte run from any start.
constexpr std::array<std::uint8_t, 512> kRamp = [] {
  std::array<std::uint8_t, 512> r{};
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = static_cast<std::uint8_t>(i);
  }
  return r;
}();

// Buckets in a key's hopscotch neighbourhood, from its H1 bucket on.
constexpr int kNeighborhoodBuckets = 6;

// The versioned payload's first byte: (key + 131 * version + 8) mod 256.
std::uint8_t PayloadStart(std::uint64_t key, std::uint64_t version) {
  return static_cast<std::uint8_t>(key + 131 * version + kValueVersionBytes);
}

}  // namespace

std::uint64_t Hash1(std::uint64_t key) { return Mix(key, 0x51ed270b0a1ce86dULL); }
std::uint64_t Hash2(std::uint64_t key) { return Mix(key, 0xc2b2ae3d27d4eb4fULL); }

void FillRamp(void* dst, std::size_t n, std::uint8_t start) {
  auto* p = static_cast<std::uint8_t*>(dst);
  std::memcpy(p, kRamp.data() + start, std::min<std::size_t>(n, 256));
  // The run repeats every 256 bytes, so each copy can double what is
  // filled.
  for (std::size_t done = 256; done < n; done *= 2) {
    std::memcpy(p + done, p, std::min(done, n - done));
  }
}

bool MatchesRamp(const void* src, std::size_t n, std::uint8_t start) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  for (std::size_t i = 0; i < n; i += 256) {
    if (std::memcmp(p + i, kRamp.data() + start,
                    std::min<std::size_t>(n - i, 256)) != 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t ValueVersion(std::uint64_t addr) {
  return rnic::dma::ReadU64(addr);
}

void SetValueVersion(rnic::ProtectionDomain& pd, std::uint64_t addr,
                     std::uint64_t version) {
  pd.BeforeStore(addr, 8);
  rnic::dma::WriteU64(addr, version);
}

void WriteVersionedValue(rnic::ProtectionDomain& pd, std::uint64_t addr,
                         std::uint32_t len, std::uint64_t key,
                         std::uint64_t version) {
  pd.BeforeStore(addr, len);
  rnic::dma::WriteU64(addr, version);
  FillRamp(reinterpret_cast<void*>(addr + kValueVersionBytes),
           len - kValueVersionBytes, PayloadStart(key, version));
}

bool VersionedValueIntact(std::uint64_t addr, std::uint32_t len,
                          std::uint64_t key) {
  return MatchesRamp(reinterpret_cast<const void*>(addr + kValueVersionBytes),
                     len - kValueVersionBytes,
                     PayloadStart(key, rnic::dma::ReadU64(addr)));
}

ValueHeap::ValueHeap(rnic::RnicDevice& dev, std::size_t capacity_bytes)
    : pd_(dev.pd()),
      mem_(std::make_unique_for_overwrite<std::byte[]>(capacity_bytes)),
      capacity_(capacity_bytes) {
  ASAN_POISON_MEMORY_REGION(mem_.get(), capacity_bytes);
  mr_ = dev.pd().Register(mem_.get(), capacity_bytes, rnic::kAccessAll);
}

std::uint64_t ValueHeap::Store(const void* data, std::uint32_t len) {
  const std::uint64_t addr = ReserveForOverwrite(len);
  std::memcpy(reinterpret_cast<void*>(addr), data, len);
  return addr;
}

std::uint64_t ValueHeap::Reserve(std::uint32_t len) {
  const std::uint64_t addr = ReserveForOverwrite(len);
  std::memset(reinterpret_cast<void*>(addr), 0, len);
  return addr;
}

std::uint64_t ValueHeap::ReserveForOverwrite(std::uint32_t len) {
  const std::size_t aligned = (len + 7u) & ~std::size_t{7};
  if (used_ + aligned > capacity_) {
    throw std::bad_alloc();
  }
  std::byte* slot = mem_.get() + used_;
  used_ += aligned;
  pd_.BeforeStore(rnic::dma::AddrOf(slot), aligned);
  ASAN_UNPOISON_MEMORY_REGION(slot, aligned);
  // The alignment padding is part of no value; zero it so every byte
  // handed out is defined.
  std::memset(slot + len, 0, aligned - len);
  return rnic::dma::AddrOf(slot);
}

RdmaHashTable::RdmaHashTable(rnic::RnicDevice& dev, Config cfg)
    : cfg_(cfg), pd_(dev.pd()) {
  const std::size_t bytes = cfg_.buckets * kBucketSize;
  mem_ = std::make_unique<std::byte[]>(bytes);  // value-initialized: empty
  mr_ = dev.pd().Register(mem_.get(), bytes, rnic::kAccessAll);
}

std::size_t RdmaHashTable::IndexOf1(std::uint64_t key) const {
  return Hash1(key) & (cfg_.buckets - 1);
}

std::size_t RdmaHashTable::IndexOf2(std::uint64_t key) const {
  return Hash2(key) & (cfg_.buckets - 1);
}

std::uint64_t RdmaHashTable::SlotAddr(std::size_t index) const {
  return mr_.addr + index * kBucketSize;
}

bool RdmaHashTable::TryPlace(std::size_t index, std::uint64_t key,
                             std::uint64_t ptr, std::uint32_t len) {
  const std::uint64_t addr = SlotAddr(index);
  const std::uint64_t existing = rnic::dma::ReadU64(addr + kBucketKeyOff);
  if (existing != 0 && existing != key) return false;
  if (existing == 0) ++count_;
  pd_.BeforeStore(addr, kBucketSize);
  rnic::dma::WriteU64(addr + kBucketKeyOff, key);
  rnic::dma::WriteU64(addr + kBucketPtrOff, ptr);
  rnic::dma::WriteU32(addr + kBucketLenOff, len);
  return true;
}

Placement RdmaHashTable::Insert(std::uint64_t key, std::uint64_t ptr,
                                std::uint32_t len, bool force_second) {
  key &= kKeyMask;
  if (key == 0) return Placement::kNone;  // 0 is the empty sentinel
  const std::size_t base = IndexOf1(key);
  if (!force_second && TryPlace(base, key, ptr, len)) return Placement::kBucket;
  if (TryPlace(IndexOf2(key), key, ptr, len)) return Placement::kBucket;
  // Hopscotch-style fallback: try the rest of the H1 neighbourhood.
  for (int i = 1; i < kNeighborhoodBuckets; ++i) {
    if (TryPlace((base + i) & (cfg_.buckets - 1), key, ptr, len)) {
      return Placement::kNeighborhood;
    }
  }
  return Placement::kNone;
}

void RdmaHashTable::PrefetchBucket1(std::uint64_t key) const {
  __builtin_prefetch(reinterpret_cast<const void*>(BucketAddr1(key)),
                     /*rw=*/1);
}

bool RdmaHashTable::Erase(std::uint64_t key) {
  key &= kKeyMask;
  auto clear = [&](std::size_t index) {
    const std::uint64_t addr = SlotAddr(index);
    if (rnic::dma::ReadU64(addr + kBucketKeyOff) == key) {
      pd_.BeforeStore(addr, kBucketSize);
      rnic::dma::WriteU64(addr + kBucketKeyOff, 0);
      rnic::dma::WriteU64(addr + kBucketPtrOff, 0);
      rnic::dma::WriteU32(addr + kBucketLenOff, 0);
      --count_;
      return true;
    }
    return false;
  };
  if (clear(IndexOf2(key))) return true;
  const std::size_t base = IndexOf1(key);
  for (int i = 0; i < kNeighborhoodBuckets; ++i) {
    if (clear((base + i) & (cfg_.buckets - 1))) return true;
  }
  return false;
}

void RdmaHashTable::Clear() {
  pd_.BeforeStore(mr_.addr, mr_.length);
  std::memset(mem_.get(), 0, cfg_.buckets * kBucketSize);
  count_ = 0;
}

std::optional<RdmaHashTable::Entry> RdmaHashTable::Lookup(
    std::uint64_t key) const {
  key &= kKeyMask;
  auto probe = [&](std::size_t index) -> std::optional<Entry> {
    const std::uint64_t addr = SlotAddr(index);
    if (rnic::dma::ReadU64(addr + kBucketKeyOff) == key) {
      return Entry{rnic::dma::ReadU64(addr + kBucketPtrOff),
                   rnic::dma::ReadU32(addr + kBucketLenOff)};
    }
    return std::nullopt;
  };
  if (auto e = probe(IndexOf2(key))) return e;
  const std::size_t base = IndexOf1(key);
  for (int i = 0; i < kNeighborhoodBuckets; ++i) {
    if (auto e = probe((base + i) & (cfg_.buckets - 1))) return e;
  }
  return std::nullopt;
}

std::uint64_t RdmaHashTable::BucketAddr1(std::uint64_t key) const {
  return SlotAddr(IndexOf1(key & kKeyMask));
}

std::uint64_t RdmaHashTable::BucketAddr2(std::uint64_t key) const {
  return SlotAddr(IndexOf2(key & kKeyMask));
}

std::uint64_t RdmaHashTable::NeighborhoodAddr(std::uint64_t key) const {
  // Clamp so the window stays inside the table (no wraparound read).
  std::size_t base = IndexOf1(key & kKeyMask);
  const std::size_t max_base = cfg_.buckets - kNeighborhoodBuckets;
  if (base > max_base) base = max_base;
  return SlotAddr(base);
}

std::uint32_t RdmaHashTable::NeighborhoodBytes() const {
  return static_cast<std::uint32_t>(kNeighborhoodBuckets * kBucketSize);
}

}  // namespace redn::kv
