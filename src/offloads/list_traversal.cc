#include "offloads/list_traversal.h"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace redn::offloads {

using rnic::Opcode;
using rnic::WqeField;

ListStore::ListStore(rnic::RnicDevice& dev, std::size_t max_nodes,
                     std::uint32_t value_len)
    : pd_(dev.pd()), value_len_(value_len), max_nodes_(max_nodes) {
  const std::size_t bytes = max_nodes * node_bytes();
  mem_ = std::make_unique<std::byte[]>(bytes);
  std::memset(mem_.get(), 0, bytes);
  mr_ = dev.pd().Register(mem_.get(), bytes, rnic::kAccessAll);
}

std::uint64_t ListStore::Append(std::uint64_t key, const void* value) {
  assert(count_ < max_nodes_);
  const std::uint64_t addr = mr_.addr + count_ * node_bytes();
  pd_.BeforeStore(addr, node_bytes());
  rnic::dma::WriteU64(addr, key & rnic::kWrIdMask);
  rnic::dma::WriteU64(addr + 8, 0);  // next: patched below
  rnic::dma::Write(addr + 16, value, value_len_);
  if (count_ == 0) {
    head_ = addr;
  } else {
    pd_.BeforeStore(tail_ + 8, 8);
    rnic::dma::WriteU64(tail_ + 8, addr);
  }
  tail_ = addr;
  ++count_;
  return addr;
}

void ListStore::AppendPattern(std::uint64_t key) {
  std::vector<std::byte> v(value_len_);
  for (std::uint32_t i = 0; i < value_len_; ++i) v[i] = PatternByte(key, i);
  Append(key, v.data());
}

ListTraversalOffload::ListTraversalOffload(rnic::RnicDevice& server,
                                           const ListStore& list,
                                           QueuePair* client_qp, Config cfg,
                                           std::uint64_t resp_addr,
                                           std::uint32_t resp_rkey)
    : list_(list), prog_(server) {
  assert(client_qp->sq.managed());
  // Direct RECV injection is limited to 16 scatters (paper §5.3): the head
  // plus one per iteration.
  if (cfg.iterations < 1 || cfg.iterations > 15) {
    throw std::invalid_argument(
        "ListTraversalOffload: iterations must be in [1, 15], got " +
        std::to_string(cfg.iterations));
  }
  chain_ = prog_.NewChainQueue(4096);
  const std::uint32_t vlen = list_.value_len();
  const int n = cfg.iterations;
  iterations_ = n;

  // Scratch layout: [sink 8B][staging n*vlen][templates n*24B].
  const std::size_t scratch_bytes = 8 + std::size_t(n) * vlen + n * 24;
  scratch_ = std::make_unique<std::byte[]>(scratch_bytes);
  std::memset(scratch_.get(), 0, scratch_bytes);
  scratch_mr_ =
      server.pd().Register(scratch_.get(), scratch_bytes, rnic::kAccessAll);
  const rnic::Sge sink{scratch_mr_.addr, 8, scratch_mr_.lkey};
  const rnic::Sge templates{scratch_mr_.addr + 8 + std::size_t(n) * vlen,
                            static_cast<std::uint32_t>(n) * 24,
                            scratch_mr_.lkey};

  // The paper's R3 copy is optimised away: the trigger RECV injects x into
  // every CAS directly (possible for lists of <= 15 nodes given the
  // 16-scatter limit).
  core::UnrolledLoop loop(prog_, chain_, client_qp, resp_addr, resp_rkey,
                          cfg.use_break ? &templates : nullptr);
  for (int i = 0; i < n; ++i) {
    // READ_i: node -> {key, next, value}. The key goes to the CAS target,
    // `next` patches READ_{i+1}'s remote address, and the value is staged
    // for the response.
    const rnic::Sge staging{scratch_mr_.addr + 8 + std::size_t(i) * vlen, vlen,
                            scratch_mr_.lkey};
    const rnic::Sge scatter[] = {
        i == n - 1 ? sink
                   : loop.ReadSlot(i + 1).FieldSge(WqeField::kRemoteAddr),
        staging,
    };
    // Iteration 0's node address is injected by the RECV; the others are
    // patched by the READ before them.
    loop.Iterate(staging, /*read_addr=*/0, list_.rkey(), list_.node_bytes(),
                 scatter);
  }
  // Trigger RECV: packed x into every iteration's CAS compare (direct
  // injection), then the head address into READ_0.remote_addr.
  const rnic::Sge head = loop.ReadSlot(0).FieldSge(WqeField::kRemoteAddr);
  loop.PostTrigger({&head, 1});
  prog_.Launch();
}

void ListTraversalOffload::BuildTrigger(std::uint64_t key,
                                        std::byte* out) const {
  // x repeated once per iteration (one scatter per CAS), then the head.
  const std::uint64_t packed = rnic::PackCtrl(Opcode::kNoop, key);
  for (int i = 0; i < iterations_; ++i) {
    std::memcpy(out + i * 8, &packed, 8);
  }
  const std::uint64_t head = list_.head();
  std::memcpy(out + iterations_ * 8, &head, 8);
}

}  // namespace redn::offloads
