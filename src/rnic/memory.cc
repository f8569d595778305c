#include "rnic/memory.h"

namespace redn::rnic {

MemoryRegion ProtectionDomain::Register(void* ptr, std::size_t len,
                                        std::uint32_t access) {
  MemoryRegion mr;
  mr.addr = dma::AddrOf(ptr);
  mr.length = len;
  mr.lkey = next_key_++;
  mr.rkey = next_key_++;
  mr.access = access;
  regions_.push_back(mr);
  ++live_count_;
  return mr;
}

bool ProtectionDomain::Deregister(std::uint32_t lkey) {
  MemoryRegion* mr = ResolveLkey(lkey);
  if (mr == nullptr) return false;
  // Blank the keys so both fail Resolve's key compare from now on.
  mr->lkey = 0;
  mr->rkey = 0;
  --live_count_;
  return true;
}

bool ProtectionDomain::Reregister(std::uint32_t lkey, void* ptr,
                                  std::size_t len, std::uint32_t access) {
  MemoryRegion* mr = ResolveLkey(lkey);
  if (mr == nullptr) return false;
  mr->addr = dma::AddrOf(ptr);
  mr->length = len;
  mr->access = access;
  return true;
}

}  // namespace redn::rnic
