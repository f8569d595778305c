// ibverbs-flavoured posting API over the simulated RNIC.
//
// This mirrors how RedN's C implementation drives libibverbs/libmlx5:
// the driver builds WQE bytes directly into the (registered) send-queue
// ring, then rings the doorbell — or, for managed queues, does *not* ring
// it and lets ENABLE verbs drive execution. Post* functions return the
// absolute WQE index so offload code can compute field addresses for
// self-modification (the libmlx5 "expose WQ buffer" trick from §4).
#pragma once

#include <cstdint>
#include <vector>

#include "rnic/device.h"
#include "rnic/queues.h"
#include "rnic/wqe.h"
#include "sim/simulator.h"

namespace redn::verbs {

using rnic::Cqe;
using rnic::CompletionQueue;
using rnic::Opcode;
using rnic::QueuePair;
using rnic::Sge;
using rnic::WcStatus;
using rnic::WqeField;

// A work request in builder form. Exactly one of {inline gather (local_addr/
// length/lkey), sge_table} is used; sge_table points to caller-owned stable
// storage (the NIC reads it at execution time).
struct SendWr {
  Opcode opcode = Opcode::kNoop;
  std::uint64_t wr_id = 0;
  bool signaled = true;

  std::uint64_t local_addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
  const Sge* sge_table = nullptr;
  std::uint32_t sge_count = 0;

  std::uint64_t remote_addr = 0;
  std::uint32_t rkey = 0;

  std::uint64_t compare_add = 0;  // CAS compare / ADD addend / CALC operand
  std::uint64_t swap = 0;         // CAS swap
  std::uint32_t imm = 0;

  // Cross-channel (§3.1): WAIT waits on a CQ, ENABLE drives a QP's SQ.
  std::uint32_t target_id = 0;
  std::uint64_t threshold = 0;  // WAIT: CQ count; ENABLE: WQE limit
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  std::uint64_t local_addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
  const Sge* sge_table = nullptr;
  std::uint32_t sge_count = 0;
};

// --- WR constructors -------------------------------------------------------

SendWr MakeNoop(bool signaled = true);
SendWr MakeWrite(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                 std::uint64_t raddr, std::uint32_t rkey, bool signaled = true);
SendWr MakeWriteImm(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                    std::uint64_t raddr, std::uint32_t rkey, std::uint32_t imm,
                    bool signaled = true);
SendWr MakeRead(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                std::uint64_t raddr, std::uint32_t rkey, bool signaled = true);
SendWr MakeSend(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                bool signaled = true);
SendWr MakeSendImm(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                   std::uint32_t imm, bool signaled = true);
SendWr MakeCas(std::uint64_t raddr, std::uint32_t rkey, std::uint64_t compare,
               std::uint64_t swap, std::uint64_t result_addr = 0,
               std::uint32_t result_lkey = 0, bool signaled = true);
SendWr MakeFetchAdd(std::uint64_t raddr, std::uint32_t rkey, std::uint64_t add,
                    std::uint64_t result_addr = 0, std::uint32_t result_lkey = 0,
                    bool signaled = true);
SendWr MakeCalcMax(std::uint64_t raddr, std::uint32_t rkey, std::uint64_t operand,
                   bool signaled = true);
SendWr MakeWait(const CompletionQueue* cq, std::uint64_t count,
                bool signaled = false);
SendWr MakeEnable(const QueuePair* target_qp, std::uint64_t limit,
                  bool signaled = false);

// --- Posting ---------------------------------------------------------------

namespace detail {
// Encodes a builder-form WR into the 64-byte WQE image.
rnic::WqeImage ToImage(const SendWr& wr);
// Cold path of PostSend, out of line so the hot path inlines cleanly.
[[noreturn]] void ThrowSqOverflow(const QueuePair* qp);
[[noreturn]] void ThrowRqOverflow(const QueuePair* qp);
}  // namespace detail

// Writes the WQE into the next send-queue slot. Returns the absolute WQE
// index. Does NOT ring the doorbell. Inline: the driver loop runs once per
// verb, and posting through WorkQueue::PostImage both collapses the store
// to one 64-byte copy and hands the NIC's translation cache the decoded
// image (write-through, BlueFlame-style).
inline std::uint64_t PostSend(QueuePair* qp, const SendWr& wr) {
  // The unexecuted backlog must fit the ring: overwriting a slot the NIC
  // has not executed yet silently corrupts the program, so this check stays
  // on in every build type.
  if (qp->sq.posted - qp->sq.next_exec >= qp->sq.capacity()) [[unlikely]] {
    detail::ThrowSqOverflow(qp);
  }
  const std::uint64_t idx = qp->sq.posted;
  qp->sq.PostImage(idx, detail::ToImage(wr));
  ++qp->sq.posted;
  return idx;
}

// PostSend + doorbell, the common non-managed path.
inline std::uint64_t PostSendNow(QueuePair* qp, const SendWr& wr) {
  const std::uint64_t idx = PostSend(qp, wr);
  qp->device->RingDoorbell(qp);
  return idx;
}

// Writes the RECV into the next receive-queue slot and returns its absolute
// index. Throws if the RQ already holds `capacity` unconsumed RECVs.
std::uint64_t PostRecv(QueuePair* qp, const RecvWr& wr);

inline void RingDoorbell(QueuePair* qp) { qp->device->RingDoorbell(qp); }

inline int PollCq(QueuePair* qp, CompletionQueue* cq, int max, Cqe* out) {
  return qp->device->PollCq(cq, max, out);
}

// Address of a field of a posted (or future) send WQE — the self-
// modification handle. `idx` is the absolute WQE index PostSend returned.
inline std::uint64_t WqeFieldAddr(const QueuePair* qp, std::uint64_t idx,
                                  WqeField f) {
  return qp->sq.SlotAddr(idx, f);
}

// --- Test / client conveniences --------------------------------------------

// Runs the simulator until a CQE is pollable on `cq` (or the event queue
// drains / `deadline` passes). Returns true and fills `out` on success.
bool AwaitCqe(sim::Simulator& sim, rnic::RnicDevice& dev, CompletionQueue* cq,
              Cqe* out, sim::Nanos deadline = -1);

// Awaits `n` CQEs, discarding all but the last.
bool AwaitCqes(sim::Simulator& sim, rnic::RnicDevice& dev, CompletionQueue* cq,
               int n, Cqe* last, sim::Nanos deadline = -1);

}  // namespace redn::verbs
