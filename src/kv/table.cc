#include "kv/table.h"

#include <algorithm>
#include <cstring>

namespace redn::kv {
namespace {

std::uint64_t Mix(std::uint64_t x, std::uint64_t salt) {
  x += salt;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t Hash1(std::uint64_t key) { return Mix(key, 0x51ed270b0a1ce86dULL); }
std::uint64_t Hash2(std::uint64_t key) { return Mix(key, 0xc2b2ae3d27d4eb4fULL); }

std::uint64_t ValueVersion(std::uint64_t addr) {
  return rnic::dma::ReadU64(addr);
}

void SetValueVersion(std::uint64_t addr, std::uint64_t version) {
  rnic::dma::WriteU64(addr, version);
}

void WriteVersionedValue(std::uint64_t addr, std::uint32_t len,
                         std::uint64_t key, std::uint64_t version) {
  rnic::dma::WriteU64(addr, version);
  auto* p = reinterpret_cast<std::uint8_t*>(addr);
  for (std::uint32_t i = kValueVersionBytes; i < len; ++i) {
    p[i] = VersionedPatternByte(key, version, i);
  }
}

bool VersionedValueIntact(std::uint64_t addr, std::uint32_t len,
                          std::uint64_t key) {
  const std::uint64_t version = rnic::dma::ReadU64(addr);
  const auto* p = reinterpret_cast<const std::uint8_t*>(addr);
  // The pattern repeats every 256 bytes, so two periods hold every
  // 256-byte window of it: build them once (the loop vectorizes) and
  // memcmp the value a window at a time.
  std::uint8_t pattern[512];
  const std::uint32_t built = std::min<std::uint32_t>(len, sizeof pattern);
  for (std::uint32_t i = 0; i < built; ++i) {
    pattern[i] = VersionedPatternByte(key, version, i);
  }
  for (std::uint32_t i = kValueVersionBytes; i < len;) {
    const std::uint32_t n = std::min<std::uint32_t>(len - i, 256);
    if (std::memcmp(p + i, pattern + (i & 255), n) != 0) return false;
    i += n;
  }
  return true;
}

ValueHeap::ValueHeap(rnic::RnicDevice& dev, std::size_t capacity_bytes)
    : mem_(std::make_unique<std::byte[]>(capacity_bytes)),
      capacity_(capacity_bytes) {
  std::memset(mem_.get(), 0, capacity_bytes);
  mr_ = dev.pd().Register(mem_.get(), capacity_bytes, rnic::kAccessAll);
}

std::uint64_t ValueHeap::Store(const void* data, std::uint32_t len) {
  const std::uint64_t addr = Reserve(len);
  std::memcpy(reinterpret_cast<void*>(addr), data, len);
  return addr;
}

std::uint64_t ValueHeap::Reserve(std::uint32_t len) {
  const std::size_t aligned = (len + 7u) & ~std::size_t{7};
  if (used_ + aligned > capacity_) {
    throw std::bad_alloc();
  }
  const std::uint64_t addr = mr_.addr + used_;
  used_ += aligned;
  return addr;
}

RdmaHashTable::RdmaHashTable(rnic::RnicDevice& dev, Config cfg) : cfg_(cfg) {
  const std::size_t bytes = cfg_.buckets * kBucketSize;
  mem_ = std::make_unique<std::byte[]>(bytes);
  std::memset(mem_.get(), 0, bytes);
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
  rnic::dma::WriteU64(addr + kBucketKeyOff, key);
  rnic::dma::WriteU64(addr + kBucketPtrOff, ptr);
  rnic::dma::WriteU32(addr + kBucketLenOff, len);
  return true;
}

bool RdmaHashTable::Insert(std::uint64_t key, std::uint64_t ptr,
                           std::uint32_t len, bool force_second) {
  key &= kKeyMask;
  if (key == 0) return false;  // 0 is the empty sentinel
  if (!force_second && TryPlace(IndexOf1(key), key, ptr, len)) return true;
  if (TryPlace(IndexOf2(key), key, ptr, len)) return true;
  // Hopscotch-style fallback: try the H1 neighbourhood.
  const std::size_t base = IndexOf1(key);
  for (int i = 1; i < cfg_.neighborhood; ++i) {
    if (TryPlace((base + i) & (cfg_.buckets - 1), key, ptr, len)) return true;
  }
  return false;
}

bool RdmaHashTable::Erase(std::uint64_t key) {
  key &= kKeyMask;
  auto clear = [&](std::size_t index) {
    const std::uint64_t addr = SlotAddr(index);
    if (rnic::dma::ReadU64(addr + kBucketKeyOff) == key) {
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
  for (int i = 0; i < cfg_.neighborhood; ++i) {
    if (clear((base + i) & (cfg_.buckets - 1))) return true;
  }
  return false;
}

void RdmaHashTable::Clear() {
  std::memset(mem_.get(), 0, cfg_.buckets * kBucketSize);
  count_ = 0;
}

bool RdmaHashTable::NicVisible(std::uint64_t key) const {
  key &= kKeyMask;
  return rnic::dma::ReadU64(SlotAddr(IndexOf1(key)) + kBucketKeyOff) == key ||
         rnic::dma::ReadU64(SlotAddr(IndexOf2(key)) + kBucketKeyOff) == key;
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
  for (int i = 0; i < cfg_.neighborhood; ++i) {
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
  const std::size_t max_base = cfg_.buckets - cfg_.neighborhood;
  if (base > max_base) base = max_base;
  return SlotAddr(base);
}

std::uint32_t RdmaHashTable::NeighborhoodBytes() const {
  return static_cast<std::uint32_t>(cfg_.neighborhood * kBucketSize);
}

std::uint64_t RdmaHashTable::BucketKeyAt(std::size_t index) const {
  return rnic::dma::ReadU64(SlotAddr(index) + kBucketKeyOff);
}

}  // namespace redn::kv
