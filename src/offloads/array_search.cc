#include "offloads/array_search.h"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace redn::offloads {

using rnic::Opcode;
using rnic::WqeField;

SearchArray::SearchArray(rnic::RnicDevice& dev,
                         std::vector<std::uint64_t> values)
    : pd_(dev.pd()), n_(values.size()) {
  data_ = std::make_unique<std::uint64_t[]>(n_);
  for (std::size_t i = 0; i < n_; ++i) data_[i] = values[i] & rnic::kWrIdMask;
  mr_ = dev.pd().Register(data_.get(), n_ * 8, rnic::kAccessAll);
}

ArraySearchOffload::ArraySearchOffload(rnic::RnicDevice& server,
                                       const SearchArray& array,
                                       QueuePair* client_qp, Config cfg,
                                       std::uint64_t resp_addr,
                                       std::uint32_t resp_rkey)
    : prog_(server), n_(array.size()) {
  assert(client_qp->sq.managed());
  // One RECV scatter per element, and a RECV scatters into at most 16.
  if (n_ < 1 || n_ > 15) {
    throw std::invalid_argument(
        "ArraySearchOffload: the array must hold [1, 15] elements, got " +
        std::to_string(n_));
  }
  chain_ = prog_.NewChainQueue(static_cast<std::uint32_t>(4 * n_ + 16));

  index_consts_ = std::make_unique<std::uint64_t[]>(n_);
  for (int i = 0; i < n_; ++i) index_consts_[i] = static_cast<std::uint64_t>(i);
  idx_mr_ = server.pd().Register(index_consts_.get(), n_ * 8, rnic::kAccessAll);
  tmpl_ = std::make_unique<std::byte[]>(std::size_t(n_) * 24);
  tmpl_mr_ = server.pd().Register(tmpl_.get(), std::size_t(n_) * 24,
                                  rnic::kAccessAll);

  const rnic::Sge templates{tmpl_mr_.addr, static_cast<std::uint32_t>(n_) * 24,
                            tmpl_mr_.lkey};
  core::UnrolledLoop loop(prog_, chain_, client_qp, resp_addr, resp_rkey,
                          cfg.use_break ? &templates : nullptr);
  // Iteration i READs A[i] as its key and, on a hit, sends the index i.
  for (int i = 0; i < n_; ++i) {
    loop.Iterate({rnic::dma::AddrOf(&index_consts_[i]), 8, idx_mr_.lkey},
                 array.ElementAddr(i), array.rkey(), 8);
  }
  loop.PostTrigger();
  prog_.Launch();
}

void ArraySearchOffload::BuildTrigger(std::uint64_t x, std::byte* out) const {
  const std::uint64_t packed = rnic::PackCtrl(Opcode::kNoop, x);
  for (int i = 0; i < n_; ++i) std::memcpy(out + i * 8, &packed, 8);
}

}  // namespace redn::offloads
