#include "kv/resync.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "kv/table.h"
#include "rnic/memory.h"
#include "sim/simulator.h"
#include "verbs/verbs.h"

namespace redn::kv {
namespace {
// RDMA READs a session keeps in flight (fewer when it has fewer items).
constexpr std::size_t kWindow = 32;
}  // namespace

ResyncSession::ResyncSession(sim::Simulator& sim, Config cfg,
                             std::vector<Item> items, DoneFn on_done)
    : sim_(sim),
      cfg_(cfg),
      items_(std::move(items)),
      on_done_(std::move(on_done)) {
  if (cfg_.qp == nullptr) {
    throw std::invalid_argument("ResyncSession: a requester QP is required");
  }
  for (const Item& it : items_) {
    if (it.len < kValueVersionBytes) {
      throw std::invalid_argument(
          "ResyncSession: item shorter than the version tag");
    }
    slot_bytes_ = std::max(slot_bytes_, it.len);
  }
  const int window = static_cast<int>(std::min(kWindow, items_.size()));
  const std::size_t bytes = static_cast<std::size_t>(window) * slot_bytes_;
  staging_ = std::make_unique<std::byte[]>(bytes);
  std::memset(staging_.get(), 0, bytes);
  staging_mr_ =
      cfg_.qp->device->pd().Register(staging_.get(), bytes, rnic::kAccessAll);
  slot_item_.assign(static_cast<std::size_t>(window), 0);
  for (int s = window - 1; s >= 0; --s) free_slots_.push_back(s);
}

void ResyncSession::Start() {
  if (started_) return;
  started_ = true;
  stats_.started = sim_.now();
  if (items_.empty()) {
    Finish();
    return;
  }
  // The session owns this CQ's notify hook until it finishes; the guard on
  // done_ (rather than unhooking) avoids destroying the executing lambda
  // from inside its own invocation.
  cfg_.qp->send_cq->SetHostNotify([this] {
    if (done_) return;
    rnic::Cqe cqe;
    while (cfg_.qp->device->PollCq(cfg_.qp->send_cq, 1, &cqe) == 1) {
      const int slot = static_cast<int>(cqe.wr_id);
      const Item& it = items_[slot_item_[static_cast<std::size_t>(slot)]];
      ++stats_.keys_scanned;
      if (cqe.status != rnic::WcStatus::kSuccess) {
        // Donor died (or the QP flushed) mid-sync: the staged bytes never
        // arrived. Leave the local value alone and mark the session failed:
        // the orchestrator re-reads every key of a failed session.
        stats_.failed = true;
      } else {
        stats_.bytes_read += it.len;
        const std::uint64_t slot_addr =
            staging_mr_.addr + static_cast<std::uint64_t>(slot) * slot_bytes_;
        const std::uint64_t staged = ValueVersion(slot_addr);
        const std::uint64_t local = ValueVersion(it.local_addr);
        if (staged >= local) {
          // Peer wins ties: idempotent, and a dual-applied put (local ==
          // staged) just rewrites identical bytes.
          cfg_.qp->device->pd().BeforeStore(it.local_addr, it.len);
          rnic::dma::Copy(it.local_addr, slot_addr, it.len);
          ++stats_.keys_applied;
        } else {
          // A put landed here after the READ was issued — local is newer.
          ++stats_.keys_kept_local;
        }
      }
      free_slots_.push_back(slot);
      ++completed_;
    }
    if (stats_.failed) {
      // The QP is wrecked; further posts would vanish without flush CQEs.
      // Finish now with whatever reconciled — the orchestrator puts the
      // session's keys back on its missed list for the next pass.
      Finish();
      return;
    }
    if (completed_ == items_.size()) {
      Finish();
      return;
    }
    Pump();
  });
  Pump();
}

void ResyncSession::Pump() {
  bool posted = false;
  while (!free_slots_.empty() && next_ < items_.size()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    slot_item_[static_cast<std::size_t>(slot)] = next_;
    const Item& it = items_[next_++];
    verbs::SendWr wr = verbs::MakeRead(
        staging_mr_.addr + static_cast<std::uint64_t>(slot) * slot_bytes_,
        it.len, staging_mr_.lkey, it.remote_addr, cfg_.remote_rkey,
        /*signaled=*/true);
    wr.wr_id = static_cast<std::uint64_t>(slot);
    verbs::PostSend(cfg_.qp, wr);
    posted = true;
  }
  if (posted) verbs::RingDoorbell(cfg_.qp);
}

void ResyncSession::Finish() {
  if (done_) return;
  done_ = true;
  stats_.finished = sim_.now();
  if (on_done_) on_done_(stats_);
}

}  // namespace redn::kv
