// Work queues and completion queues.
//
// A WorkQueue is a circular buffer of 64-byte WQE slots living in registered
// host memory. All progress counters are *monotonic absolute indices* (never
// reset on wrap) — this mirrors ConnectX behaviour and is load-bearing for
// RedN: WQ recycling re-executes old slots by pushing the execution limit
// past the number of posted WQEs, and WAIT/ENABLE thresholds must keep
// increasing (the paper's ADD-on-wqe_count trick, §3.4).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "rnic/wqe.h"
#include "sim/time.h"

namespace redn::rnic {

class RnicDevice;
class WorkQueue;
struct QueuePair;

// Completion status carried in a CQE. One byte: the Cqe below is packed to
// 32 bytes so a whole CQE rides inline in an event capture (together with a
// device, CQ, and visibility timestamp) within the simulator's 64-byte
// inline storage — the completion path schedules one event per CQE with no
// pooled shuttle.
enum class WcStatus : std::uint8_t {
  kSuccess,
  kLocalAccessError,   // lkey / bounds / permission on the local side
  kRemoteAccessError,  // rkey / bounds / permission on the remote side
  kRnrError,           // SEND arrived with no RECV posted
  kAlignmentError,     // atomic target not 8-byte aligned
  kBadOpcode,          // malformed WQE (e.g. RECV opcode in a send queue)
  kRetryExcError,      // transport retry budget spent (peer unreachable)
  kRnrRetryExcError,   // RNR retry budget spent (receiver never ready)
  kWrFlushError,       // WR flushed: queued behind a failure / QP in ERROR
};

const char* WcStatusName(WcStatus s);

struct Cqe {
  std::uint64_t wr_id = 0;
  sim::Nanos completed_at = 0;  // NIC-internal completion time
  std::uint32_t qp_id = 0;
  std::uint32_t byte_len = 0;
  std::uint32_t imm = 0;
  Opcode opcode = Opcode::kNoop;
  WcStatus status = WcStatus::kSuccess;
  bool has_imm = false;
};
static_assert(sizeof(Cqe) == 32, "Cqe must stay small enough to inline into "
                                 "an event capture (see RnicDevice::DeliverCqe)");

// Completion queue. Two notions of visibility:
//  - hw_count: cumulative number of CQEs as seen *inside* the NIC; WAIT
//    verbs compare their threshold against this.
//  - host entries: CQEs become pollable only after the CQE DMA delay.
class CompletionQueue {
 public:
  CompletionQueue(std::uint32_t id) : id_(id) {}

  std::uint32_t id() const { return id_; }
  std::uint64_t hw_count() const { return hw_count_; }

  // --- engine side ---
  // Waiters are a binary min-heap ordered by (threshold, seq): hw_count is
  // monotonic, so BumpHwCount only ever needs the smallest thresholds, and
  // the registration seq preserves FIFO wake order among equal thresholds.
  // The old linear scan walked every parked waiter per CQE; the heap pops
  // exactly the ready ones.
  struct Waiter {
    std::uint64_t threshold;
    std::uint64_t seq;
    WorkQueue* wq;
  };
  void AddWaiter(WorkQueue* wq, std::uint64_t threshold);
  // Bumps the NIC-internal count; returns waiters whose threshold is now met
  // (removed from the wait list). The returned vector is a member scratch
  // buffer reused across calls — consume it before the next BumpHwCount.
  const std::vector<WorkQueue*>& BumpHwCount();
  void PushHostEntry(sim::Nanos visible_at, const Cqe& cqe) {
    host_entries_.push_back({visible_at, cqe});
  }

  // --- host side ---
  // Pops up to `max` CQEs visible at time `now`.
  int Poll(sim::Nanos now, int max, Cqe* out);
  // Instant at which the oldest undelivered host entry becomes pollable
  // (CQEs are polled in completion order, so the front entry gates the
  // rest), or -1 if none is in flight. Poll helpers use this to advance
  // simulated time now that CQE delivery no longer schedules an
  // unconditional host-visibility event.
  sim::Nanos NextVisibleAt() const {
    return host_entries_.empty() ? -1 : host_entries_.front().first;
  }

  // Host notification hook: invoked (in simulation context) whenever a CQE
  // becomes host-visible. Models an interrupt / busy-poll observation point;
  // actors add their own poll-interval or event-wakeup delay on top.
  // Arm it before the CQEs of interest are delivered: the wake-up is
  // scheduled at the CQE's NIC-internal delivery instant, so a CQE already
  // past that point when the hook is armed will not fire it (poll instead).
  void SetHostNotify(std::function<void()> fn) { host_notify_ = std::move(fn); }
  const std::function<void()>& host_notify() const { return host_notify_; }

 private:
  std::uint32_t id_;
  std::function<void()> host_notify_;
  std::uint64_t hw_count_ = 0;
  std::uint64_t next_waiter_seq_ = 0;
  std::vector<Waiter> waiters_;            // min-heap by (threshold, seq)
  std::vector<WorkQueue*> ready_scratch_;  // reused by BumpHwCount
  std::deque<std::pair<sim::Nanos, Cqe>> host_entries_;
};

// A cached, MR-validated resolution of a WQE's (non-table) scatter/gather
// element: the protection-check result of CheckLocal, remembered per slot.
// Self-validating: a hit requires the PD epoch and the WQE's {addr, length,
// lkey} to match what was validated, so neither ring recycling nor
// re-registration can replay a stale check. Content is NOT cached — gathers
// and scatters still move live bytes at execution time.
struct SgePlan {
  Sge sge{};                  // the validated element
  std::uint32_t pd_epoch = 0; // ProtectionDomain::epoch() at validation
  std::uint32_t access = 0;   // rights proven so far (kLocalRead/kLocalWrite)

  bool Covers(std::uint64_t addr, std::uint32_t length, std::uint32_t lkey,
              std::uint32_t required_access, std::uint32_t epoch) const {
    return (access & required_access) == required_access &&
           pd_epoch == epoch && sge.addr == addr && sge.length == length &&
           sge.lkey == lkey;
  }
};

// One direction of a queue pair (send queue or receive queue).
class WorkQueue {
 public:
  void Init(QueuePair* qp, bool is_send, std::byte* slots, std::uint32_t capacity,
            bool managed, CompletionQueue* cq, int pu_index);

  QueuePair* qp() const { return qp_; }
  bool is_send() const { return is_send_; }
  bool managed() const { return managed_; }
  std::uint32_t capacity() const { return capacity_; }
  CompletionQueue* cq() const { return cq_; }
  int pu_index() const { return pu_index_; }

  // Ring (buffer) slot of absolute index `idx`. The modulo is a runtime
  // integer divide (capacities are not forced to powers of two — chain
  // queues size to their program length), so hot paths compute it ONCE and
  // use the *B accessors below.
  std::size_t BufSlot(std::uint64_t idx) const {
    return static_cast<std::size_t>(idx % capacity_);
  }

  // Raw slot view for absolute index `idx` (wraps modulo capacity).
  WqeView Slot(std::uint64_t idx) const { return SlotAtB(BufSlot(idx)); }
  WqeView SlotAtB(std::size_t s) const {
    return WqeView(slots_ + s * kWqeSize);
  }
  std::uint64_t SlotAddr(std::uint64_t idx, WqeField f) const {
    return Slot(idx).FieldAddr(f);
  }
  std::uint64_t RingBase() const { return dma::AddrOf(slots_); }
  std::uint64_t RingBytes() const {
    return static_cast<std::uint64_t>(capacity_) * kWqeSize;
  }

  // Fetched snapshot for absolute index `idx` (send queues only).
  WqeImage& ImageAt(std::uint64_t idx) { return images_[BufSlot(idx)]; }
  WqeImage& ImageAtB(std::size_t s) { return images_[s]; }

  // --- decoded-WQE translation cache ---------------------------------------
  // `decoded_` marks ring slots whose `images_` entry is a candidate decode.
  // The candidate is trusted only after WqeView::Matches verifies it against
  // the live slot bytes (one memcmp) — the backstop that keeps host-side
  // raw-DMA WQE patches (the §4 "expose WQ buffer" trick) honest even
  // though they bypass every tracked write path.
  bool DecodedAtB(std::size_t s) const { return decoded_[s]; }
  void MarkDecodedAtB(std::size_t s) { decoded_[s] = 1; }

  // Driver write-through (PostSend): the driver hands the NIC the decoded
  // image it just stored, the same way mlx5 BlueFlame doorbells carry WQE
  // bytes inline — the later fetch still pays its simulated latency but
  // verifies instead of re-decoding.
  void PostImage(std::uint64_t idx, const WqeImage& img) {
    const std::size_t s = BufSlot(idx);
    WqeView slot = SlotAtB(s);
    // Re-posting an identical WQE (the steady-state driver loop) is one
    // 64-byte compare: no slot store, no cache update — the candidate
    // decode, whatever its state, is settled by the verify at fetch time.
    if (slot.Matches(img)) {
      if (!DecodedAtB(s) && SnapshotWritable(idx)) {
        ImageAtB(s) = img;
        MarkDecodedAtB(s);
      }
      return;
    }
    slot.Store(img);
    if (SnapshotWritable(idx)) {
      ImageAtB(s) = img;
      MarkDecodedAtB(s);
    }
  }

  // NIC write-through: a tracked store just landed on the ring slots in
  // [first, last] (buffer-slot indices). Cached decodes are refreshed from
  // the live bytes — the essence of self-modifying chains is that the next
  // fetch of the slot executes the *modified* form. Returns how many live
  // cache entries the write invalidated (for the device counters).
  //
  // Managed queues only: on a non-managed queue `images_` holds the
  // *committed doorbell-time snapshot* for not-yet-executed slots, and
  // doorbell ordering demands that snapshot stay stale — there the verify
  // at the next (recycling) fetch re-decodes instead. The same hazard
  // guards the one managed slot that is fetched but still executing (a
  // parked WAIT re-reads its image on resume): skip it and let the verify
  // settle the next lap.
  int RefreshSlots(std::uint64_t first, std::uint64_t last) {
    if (!managed_) return 0;
    const bool in_flight = fetch_horizon > next_exec;
    const std::uint64_t live_slot = next_exec % capacity_;
    int invalidated = 0;
    for (std::uint64_t s = first; s <= last; ++s) {
      if (!decoded_[s] || (in_flight && s == live_slot)) continue;
      WqeView slot(slots_ + s * kWqeSize);
      if (slot.Matches(images_[s])) continue;  // write was a no-op re-store
      images_[s] = slot.Load();
      ++invalidated;
    }
    return invalidated;
  }

  // Whether the driver may write `idx`'s snapshot through at post time. On
  // a non-managed queue a slot already inside the fetch horizon (an
  // enable-ahead or prefetch-batch overshoot snapshotted it before it was
  // posted) holds a COMMITTED stale snapshot that doorbell ordering says
  // must execute as-is — posting over it updates ring bytes only, exactly
  // like the pre-cache engine. Managed slots are safe: the one
  // fetched-but-unexecuted slot can never be re-posted (the SQ overflow
  // guard), and everything else is fetched at execution time.
  bool SnapshotWritable(std::uint64_t idx) const {
    return managed_ || idx >= fetch_horizon;
  }

  // Per-slot validated SGE resolution (see SgePlan).
  SgePlan& PlanAt(std::uint64_t idx) { return plans_[BufSlot(idx)]; }

  // --- progress counters (all monotonic) ---
  std::uint64_t posted = 0;         // WQEs written by the driver
  std::uint64_t exec_limit = 0;     // doorbell (non-managed) / enable (managed)
  std::uint64_t fetch_horizon = 0;  // WQEs snapshotted by the NIC
  std::uint64_t next_exec = 0;      // next WQE to issue
  std::uint64_t consumed = 0;       // RQ only: RECVs consumed by arrivals

  // --- engine state ---
  bool busy = false;     // a fetch/issue is in flight for this queue
  bool waiting = false;  // blocked in a WAIT verb
  bool error = false;    // QP moved to error state; no further processing

  // Last MR this queue's gathers/scatters resolved (see MrCacheEntry).
  MrCacheEntry mr_cache;

  // Snapshot of the control verb (WAIT/ENABLE) currently being issued.
  // Valid while `busy` or `waiting` holds (only one issue is ever in flight
  // per WQ), so control-verb events capture {device, wq, idx} and read the
  // image here. Data verbs stage their image in the pooled Payload instead
  // — either way captures stay within the simulator's inline event storage.
  WqeImage inflight_img{};

 private:
  QueuePair* qp_ = nullptr;
  bool is_send_ = true;
  std::byte* slots_ = nullptr;
  std::uint32_t capacity_ = 0;
  bool managed_ = false;
  CompletionQueue* cq_ = nullptr;
  int pu_index_ = 0;
  std::vector<WqeImage> images_;       // send queues only (empty on an RQ)
  std::vector<std::uint8_t> decoded_;  // translation-cache flags (SQ only)
  std::vector<SgePlan> plans_;         // per-slot validated SGE resolutions
};

}  // namespace redn::rnic
