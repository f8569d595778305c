#include "rnic/memory.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace redn::rnic {

#ifndef NDEBUG
namespace {
// FNV-1a over the bytes `c` carries, read from wherever they live now.
std::uint64_t Checksum(const CarriedBytes& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::byte* p, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<std::uint8_t>(p[i])) * 0x100000001b3ULL;
    }
  };
  if (!c.deferred()) {
    mix(c.bytes.data(), c.bytes.size());
    return h;
  }
  for (int i = 0; i < c.extent_count; ++i) {
    const CarriedBytes::Extent& e = c.extents[static_cast<std::size_t>(i)];
    mix(reinterpret_cast<const std::byte*>(e.addr), e.len);
  }
  return h;
}
}  // namespace
#endif

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
  // A copy deferred from the region carries its bytes from here on: the
  // memory may be reused once it is no longer registered.
  MaterializeOverlapping(mr->addr, mr->length);
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
  const MemoryRegion rebound{dma::AddrOf(ptr), len, 0, 0, 0};
  if (!rebound.Contains(mr->addr, mr->length)) {
    MaterializeOverlapping(mr->addr, mr->length);
  }
  mr->addr = dma::AddrOf(ptr);
  mr->length = len;
  mr->access = access;
  return true;
}

void ProtectionDomain::Pin(CarriedBytes* c) {
  c->pinned_in = this;
  pinned_.push_back(c);
  for (int i = 0; i < c->extent_count; ++i) {
    const CarriedBytes::Extent& e = c->extents[static_cast<std::size_t>(i)];
    pin_lo_ = std::min(pin_lo_, e.addr);
    pin_hi_ = std::max(pin_hi_, e.addr + e.len);
  }
#ifndef NDEBUG
  c->verify = true;
  c->issue_sum = Checksum(*c);
#endif
}

void ProtectionDomain::Unpin(CarriedBytes* c) {
  c->pinned_in = nullptr;
  // Few copies are in flight at once; the newest is the likeliest to go.
  const auto it = std::find(pinned_.rbegin(), pinned_.rend(), c);
  if (it != pinned_.rend()) pinned_.erase(std::next(it).base());
  if (pinned_.empty()) {
    pin_lo_ = ~std::uint64_t{0};
    pin_hi_ = 0;
  }
}

bool ProtectionDomain::Pinned(std::uint64_t addr, std::size_t len) const {
  return std::any_of(
      pinned_.begin(), pinned_.end(),
      [&](const CarriedBytes* c) { return c->Overlaps(addr, len); });
}

void ProtectionDomain::MaterializeOverlapping(std::uint64_t addr,
                                              std::size_t len) {
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  std::size_t kept = 0;
  for (CarriedBytes* c : pinned_) {
    if (c->Overlaps(addr, len)) {
      c->Gather();
      c->pinned_in = nullptr;
      continue;
    }
    for (int i = 0; i < c->extent_count; ++i) {
      const CarriedBytes::Extent& e = c->extents[static_cast<std::size_t>(i)];
      lo = std::min(lo, e.addr);
      hi = std::max(hi, e.addr + e.len);
    }
    pinned_[kept++] = c;
  }
  pinned_.resize(kept);
  pin_lo_ = lo;
  pin_hi_ = hi;
}

bool CarriedBytes::Overlaps(std::uint64_t addr, std::size_t n) const {
  for (int i = 0; i < extent_count; ++i) {
    const Extent& e = extents[static_cast<std::size_t>(i)];
    if (addr < e.addr + e.len && addr + n > e.addr) return true;
  }
  return false;
}

void CarriedBytes::Gather() {
  bytes.clear();
  for (int i = 0; i < extent_count; ++i) {
    const Extent& e = extents[static_cast<std::size_t>(i)];
    dma::ReadAppend(bytes, e.addr, e.len);
  }
}

void CarriedBytes::CopyOut(std::uint64_t offset, std::uint64_t dst,
                           std::size_t n) const {
  if (!deferred()) {
    dma::Write(dst, bytes.data() + offset, n);
    return;
  }
  for (int i = 0; i < extent_count && n > 0; ++i) {
    const Extent& e = extents[static_cast<std::size_t>(i)];
    if (offset >= e.len) {
      offset -= e.len;
      continue;
    }
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(e.len - offset, n));
    dma::Copy(dst, e.addr + offset, chunk);
    dst += chunk;
    n -= chunk;
    offset = 0;
  }
}

void CarriedBytes::Verify() const {
#ifndef NDEBUG
  if (verify && Checksum(*this) != issue_sum) {
    std::fprintf(stderr,
                 "deferred copy of %llu bytes changed between issue and "
                 "delivery: a store into registered memory skipped "
                 "ProtectionDomain::BeforeStore\n",
                 static_cast<unsigned long long>(len));
    std::abort();
  }
#endif
}

}  // namespace redn::rnic
