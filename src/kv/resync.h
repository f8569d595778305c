// Anti-entropy re-sync for the chain-replicated KV service.
//
// When a shard re-joins after a crash (or heals from a window in which
// forwarded writes could not reach it), its store may be behind its chain
// peer. A ResyncSession streams the affected key range back with one-sided
// RDMA READs against the peer's value heap and reconciles per key by the
// value's embedded version tag (kv::WriteVersionedValue layout):
//
//   staged_version >= local_version  ->  adopt the peer's bytes
//   staged_version <  local_version  ->  keep the local value
//
// Ties go to the peer: a crashed re-joiner was wiped to version 0, so a tie
// means "seed value on both sides" and adopting is a no-op; on a stale
// shard's resync a tie means both replicas already applied the same put. The >= is
// what makes re-running a session idempotent.
//
// The session runs open-loop over a window of in-flight READs (wr_id =
// staging-slot index) and reconciles each value as its READ completes, so
// the transfer overlaps with normal traffic — including dual-apply: puts
// forwarded to the resyncing shard while the session runs land with higher
// versions and are never clobbered by the stale bytes the session stages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rnic/device.h"

namespace redn::kv {

class ResyncSession {
 public:
  // One key to reconcile. Addresses are value addresses (version tag
  // first): `remote_addr` in the donor's registered heap, `local_addr` in
  // the resyncing shard's heap.
  struct Item {
    std::uint64_t key = 0;
    std::uint64_t remote_addr = 0;
    std::uint64_t local_addr = 0;
    std::uint32_t len = 0;
  };

  struct Config {
    // Requester QP on the resyncing shard's device, already RTS, whose
    // peer lives on the donor shard. The session takes over the QP's send
    // CQ host-notify hook for its lifetime.
    rnic::QueuePair* qp = nullptr;
    std::uint32_t remote_rkey = 0;  // donor value-heap rkey
    int window = 32;                // READs kept in flight
  };

  struct Stats {
    std::uint64_t keys_scanned = 0;
    std::uint64_t keys_applied = 0;     // peer's bytes adopted
    std::uint64_t keys_kept_local = 0;  // local version was newer
    std::uint64_t bytes_read = 0;
    sim::Nanos started = 0;
    sim::Nanos finished = 0;
    // A READ completed in error (the donor's or this shard's link died
    // mid-sync); the orchestrator re-reads every key of a failed session.
    bool failed = false;
  };

  using DoneFn = std::function<void(const Stats&)>;

  ResyncSession(sim::Simulator& sim, Config cfg, std::vector<Item> items,
                DoneFn on_done);

  // Issues the first window of READs. No-op on an empty item list (the
  // done callback still fires, synchronously).
  void Start();

  bool done() const { return done_; }
  const Stats& stats() const { return stats_; }

 private:
  void Pump();
  void Finish();

  sim::Simulator& sim_;
  Config cfg_;
  std::vector<Item> items_;
  DoneFn on_done_;

  // Staging: `window` slots of max item length each, registered on the
  // resyncing shard's device so READ responses can land in them.
  std::unique_ptr<std::byte[]> staging_;
  rnic::MemoryRegion staging_mr_;
  std::uint32_t slot_bytes_ = 0;
  std::vector<int> free_slots_;
  std::vector<std::size_t> slot_item_;  // slot -> index into items_

  std::size_t next_ = 0;       // next item to issue
  std::size_t completed_ = 0;  // items reconciled
  bool started_ = false;
  bool done_ = false;
  Stats stats_;
};

}  // namespace redn::kv
