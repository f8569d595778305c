#include "rnic/memory.h"

#include <cstring>

namespace redn::rnic {

std::uint32_t ProtectionDomain::Find(std::uint32_t key) const {
  if (table_.empty()) return kNotFound;
  const std::size_t mask = table_.size() - 1;
  std::size_t i = Mix(key) & mask;
  for (;;) {
    const TableSlot& slot = table_[i];
    if (slot.key == key) return slot.index;
    if (slot.key == kEmptyKey) return kNotFound;
    i = (i + 1) & mask;  // skips tombstones too
  }
}

void ProtectionDomain::Insert(std::uint32_t key, std::uint32_t index) {
  // Grow at ~70% occupancy (tombstones included) to keep probes short.
  if (table_.empty() || (table_used_ + 1) * 10 >= table_.size() * 7) {
    GrowTable();
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t i = Mix(key) & mask;
  while (table_[i].key != kEmptyKey && table_[i].key != kTombstoneKey) {
    i = (i + 1) & mask;
  }
  if (table_[i].key == kEmptyKey) ++table_used_;
  table_[i] = TableSlot{key, index};
}

void ProtectionDomain::GrowTable() {
  const std::size_t cap = table_.empty() ? 64 : table_.size() * 2;
  std::vector<TableSlot> old = std::move(table_);
  table_.assign(cap, TableSlot{});
  table_used_ = 0;
  const std::size_t mask = cap - 1;
  for (const TableSlot& slot : old) {
    if (slot.key == kEmptyKey || slot.key == kTombstoneKey) continue;
    std::size_t i = Mix(slot.key) & mask;
    while (table_[i].key != kEmptyKey) i = (i + 1) & mask;
    table_[i] = slot;
    ++table_used_;
  }
}

MemoryRegion ProtectionDomain::Register(void* ptr, std::size_t len,
                                        std::uint32_t access) {
  MemoryRegion mr;
  mr.addr = dma::AddrOf(ptr);
  mr.length = len;
  mr.lkey = next_key_++;
  mr.rkey = next_key_++;
  mr.access = access;
  const std::uint32_t index = static_cast<std::uint32_t>(regions_.size());
  regions_.push_back(mr);
  Insert(mr.lkey, index);
  Insert(mr.rkey, index);
  ++live_count_;
  return regions_[index];
}

bool ProtectionDomain::Deregister(std::uint32_t lkey) {
  if (lkey < kFirstKey) return false;  // sentinel / blanked-key values
  const std::uint32_t index = Find(lkey);
  if (index == kNotFound) return false;
  MemoryRegion& mr = regions_[index];
  if (mr.lkey != lkey) return false;  // an rkey is not a deregistration handle
  const std::size_t mask = table_.size() - 1;
  for (std::uint32_t key : {mr.lkey, mr.rkey}) {
    std::size_t i = Mix(key) & mask;
    while (table_[i].key != key) i = (i + 1) & mask;
    table_[i].key = kTombstoneKey;
  }
  // Blank the keys so a stale table hit fails its key compare; the epoch
  // bump invalidates every outstanding MrCacheEntry at once.
  mr.lkey = 0;
  mr.rkey = 0;
  mr.access = 0;
  --live_count_;
  ++epoch_;
  return true;
}

bool ProtectionDomain::Reregister(std::uint32_t lkey, void* ptr,
                                  std::size_t len, std::uint32_t access) {
  if (lkey < kFirstKey) return false;
  const std::uint32_t index = Find(lkey);
  if (index == kNotFound) return false;
  MemoryRegion& mr = regions_[index];
  if (mr.lkey != lkey) return false;  // an rkey is not a rereg handle
  mr.addr = dma::AddrOf(ptr);
  mr.length = len;
  mr.access = access;
  // Same keys, new extent: every cache entry filled before this instant
  // holds the old bounds and must miss.
  ++epoch_;
  return true;
}

const MemoryRegion* ProtectionDomain::Resolve(std::uint32_t key,
                                              bool remote) const {
  if (key < kFirstKey) return nullptr;  // sentinel / blanked-key values
  const std::uint32_t index = Find(key);
  if (index == kNotFound) return nullptr;
  const MemoryRegion& mr = regions_[index];
  // The table holds both key kinds; reject an rkey used as an lkey (and
  // vice versa), exactly like the old per-kind maps did.
  if ((remote ? mr.rkey : mr.lkey) != key) return nullptr;
  return &mr;
}

MemCheck ProtectionDomain::CheckSlow(std::uint64_t addr, std::size_t len,
                                     std::uint32_t key,
                                     std::uint32_t required_access, bool remote,
                                     MrCacheEntry* cache) const {
  const MemoryRegion* mr = Resolve(key, remote);
  if (mr == nullptr) return MemCheck::kBadKey;
  if (cache != nullptr) {
    *cache = MrCacheEntry{key, epoch_, mr->addr, mr->length, mr->access};
  }
  if ((mr->access & required_access) != required_access) return MemCheck::kNoPermission;
  if (!mr->Contains(addr, len)) return MemCheck::kOutOfBounds;
  return MemCheck::kOk;
}

}  // namespace redn::rnic
