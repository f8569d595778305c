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

// One direction of a queue pair (send queue or receive queue).
class WorkQueue {
 public:
  // `slots` is registered memory of `pd`, the QP's device's.
  void Init(QueuePair* qp, bool is_send, std::byte* slots, std::uint32_t capacity,
            bool managed, CompletionQueue* cq, int pu_index,
            ProtectionDomain& pd);

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
    return WqeView(slots_ + s * kWqeSize, *pd_);
  }
  std::uint64_t SlotAddr(std::uint64_t idx, WqeField f) const {
    return Slot(idx).FieldAddr(f);
  }

  // The image the NIC last decoded from each ring slot (send queues only).
  // On a non-managed queue the images of fetched-but-unexecuted slots are
  // the doorbell-time snapshot: they execute as fetched, whatever the ring
  // holds by then. A managed queue fetches each slot right before issuing
  // it. Either way RnicDevice::FetchSlot keeps a slot's image when the
  // live bytes still equal it and reloads it when they differ.
  WqeImage& ImageAt(std::uint64_t idx) { return images_[BufSlot(idx)]; }
  WqeImage& ImageAtB(std::size_t s) { return images_[s]; }

  // Driver post (PostSend): one 64-byte store into the ring slot. The NIC
  // sees the WQE only when it fetches the slot.
  void PostImage(std::uint64_t idx, const WqeImage& img) {
    Slot(idx).Store(img);
  }

  // --- progress counters (all monotonic) ---
  std::uint64_t posted = 0;         // WQEs written by the driver
  std::uint64_t exec_limit = 0;     // doorbell (non-managed) / enable (managed)
  std::uint64_t fetch_horizon = 0;  // WQEs snapshotted by the NIC
  std::uint64_t next_exec = 0;      // next WQE to issue
  std::uint64_t consumed = 0;       // RQ only: RECVs consumed by arrivals

  // --- engine state ---
  bool busy = false;     // a fetch/issue is in flight for this queue
  bool waiting = false;  // blocked in a WAIT verb
  // Send queues only: the error latch. A failed WR, a QP error or a kill
  // sets it, and nothing more issues until RnicDevice::Rearm clears it.
  bool error = false;

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
  ProtectionDomain* pd_ = nullptr;
  std::uint32_t capacity_ = 0;
  bool managed_ = false;
  CompletionQueue* cq_ = nullptr;
  int pu_index_ = 0;
  std::vector<WqeImage> images_;  // send queues only (empty on an RQ)
};

}  // namespace redn::rnic
