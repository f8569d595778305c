// Offloaded array search — the paper's `while` loop examples (Figs 5 & 6).
//
//   input x; i = 0;
//   while (i < n) { if (x == A[i]) send(i); i++; }         (Fig 5, unrolled)
//   while (1)     { if (x == A[i]) { send(i); break; } i++ }  (Fig 6, break)
//
// The loop is unrolled (size known a priori) as a core::UnrolledLoop: each
// iteration READs A[i], drops it into the id field of that iteration's
// response WR, and a CAS against {NOOP, x} promotes the response — which
// sends the *index* back. The break variant rewrites the response WR header
// so the next iteration's WAIT never fires, as the list traversal's does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "redn/program.h"

namespace redn::offloads {

using core::Program;
using core::WrRef;
using rnic::QueuePair;

// A searchable array of 64-bit values in one registered region.
class SearchArray {
 public:
  SearchArray(rnic::RnicDevice& dev, std::vector<std::uint64_t> values);

  std::uint64_t ElementAddr(int i) const { return mr_.addr + i * 8u; }
  std::uint32_t rkey() const { return mr_.rkey; }
  int size() const { return static_cast<int>(n_); }
  std::uint64_t At(int i) const { return rnic::dma::ReadU64(ElementAddr(i)); }
  void Set(int i, std::uint64_t v) {
    pd_.BeforeStore(ElementAddr(i), 8);
    rnic::dma::WriteU64(ElementAddr(i), v);
  }

 private:
  rnic::ProtectionDomain& pd_;
  std::unique_ptr<std::uint64_t[]> data_;
  std::size_t n_;
  rnic::MemoryRegion mr_;
};

class ArraySearchOffload {
 public:
  struct Config {
    bool use_break = false;
  };

  // Arms ONE search over the whole array on `client_qp` (managed SQ). On a
  // hit the matching element's *index* (8 bytes) is WRITE_IMM'd to
  // (resp_addr, resp_rkey) with imm = 1.
  ArraySearchOffload(rnic::RnicDevice& server, const SearchArray& array,
                     QueuePair* client_qp, Config cfg, std::uint64_t resp_addr,
                     std::uint32_t resp_rkey);
  ~ArraySearchOffload() { prog_.Abort(); }

  // Trigger: PackCtrl(NOOP, x) repeated once per element.
  std::uint32_t TriggerBytes() const { return static_cast<std::uint32_t>(n_) * 8; }
  void BuildTrigger(std::uint64_t x, std::byte* out) const;

  // WRs posted for the search, its trigger RECV included.
  int wrs_posted() const { return prog_.budget().total() + 1; }

 private:
  Program prog_;
  QueuePair* chain_;
  int n_;
  std::unique_ptr<std::uint64_t[]> index_consts_;  // payloads: 0,1,2,...
  rnic::MemoryRegion idx_mr_;
  std::unique_ptr<std::byte[]> tmpl_;  // break-variant header templates
  rnic::MemoryRegion tmpl_mr_;
};

}  // namespace redn::offloads
