#include "verbs/verbs.h"

#include <cassert>
#include <stdexcept>

namespace redn::verbs {
namespace detail {

rnic::WqeImage ToImage(const SendWr& wr) {
  rnic::WqeImage img;
  img.ctrl = rnic::PackCtrl(wr.opcode, wr.wr_id);
  img.remote_addr = wr.remote_addr;
  img.rkey = wr.rkey;
  img.flags = wr.signaled ? static_cast<std::uint32_t>(rnic::kFlagSignaled) : 0u;
  if (wr.sge_table != nullptr) {
    img.flags |= rnic::kFlagSgeTable;
    img.local_addr = rnic::dma::AddrOf(wr.sge_table);
    img.length = wr.sge_count;
  } else {
    img.local_addr = wr.local_addr;
    img.length = wr.length;
    img.lkey = wr.lkey;
  }
  img.compare_add = wr.compare_add != 0 ? wr.compare_add : wr.threshold;
  img.swap = wr.swap;
  img.target_id = wr.target_id;
  img.imm = wr.imm;
  return img;
}

void ThrowSqOverflow(const QueuePair* qp) {
  throw std::runtime_error(
      "send queue overflow on qp " + std::to_string(qp->id) + " (" +
      qp->device->name() + "): posted " +
      std::to_string(qp->sq.posted) + " executed " +
      std::to_string(qp->sq.next_exec) + " capacity " +
      std::to_string(qp->sq.capacity()) +
      "; size the QP for the full pre-posted chain");
}

void ThrowRqOverflow(const QueuePair* qp) {
  throw std::runtime_error(
      "receive queue overflow on qp " + std::to_string(qp->id) + " (" +
      qp->device->name() + "): posted " + std::to_string(qp->rq.posted) +
      " consumed " + std::to_string(qp->rq.consumed) + " capacity " +
      std::to_string(qp->rq.capacity()) +
      "; size the RQ for every RECV outstanding at once");
}

}  // namespace detail

SendWr MakeNoop(bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kNoop;
  wr.signaled = signaled;
  return wr;
}

SendWr MakeWrite(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                 std::uint64_t raddr, std::uint32_t rkey, bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = laddr;
  wr.length = len;
  wr.lkey = lkey;
  wr.remote_addr = raddr;
  wr.rkey = rkey;
  wr.signaled = signaled;
  return wr;
}

SendWr MakeWriteImm(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                    std::uint64_t raddr, std::uint32_t rkey, std::uint32_t imm,
                    bool signaled) {
  SendWr wr = MakeWrite(laddr, len, lkey, raddr, rkey, signaled);
  wr.opcode = Opcode::kWriteImm;
  wr.imm = imm;
  return wr;
}

SendWr MakeRead(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                std::uint64_t raddr, std::uint32_t rkey, bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kRead;
  wr.local_addr = laddr;
  wr.length = len;
  wr.lkey = lkey;
  wr.remote_addr = raddr;
  wr.rkey = rkey;
  wr.signaled = signaled;
  return wr;
}

SendWr MakeSend(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.local_addr = laddr;
  wr.length = len;
  wr.lkey = lkey;
  wr.signaled = signaled;
  return wr;
}

SendWr MakeSendImm(std::uint64_t laddr, std::uint32_t len, std::uint32_t lkey,
                   std::uint32_t imm, bool signaled) {
  SendWr wr = MakeSend(laddr, len, lkey, signaled);
  wr.opcode = Opcode::kSendImm;
  wr.imm = imm;
  return wr;
}

SendWr MakeCas(std::uint64_t raddr, std::uint32_t rkey, std::uint64_t compare,
               std::uint64_t swap, std::uint64_t result_addr,
               std::uint32_t result_lkey, bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kCompSwap;
  wr.remote_addr = raddr;
  wr.rkey = rkey;
  wr.compare_add = compare;
  wr.swap = swap;
  wr.local_addr = result_addr;
  wr.length = result_addr != 0 ? 8 : 0;
  wr.lkey = result_lkey;
  wr.signaled = signaled;
  return wr;
}

SendWr MakeFetchAdd(std::uint64_t raddr, std::uint32_t rkey, std::uint64_t add,
                    std::uint64_t result_addr, std::uint32_t result_lkey,
                    bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kFetchAdd;
  wr.remote_addr = raddr;
  wr.rkey = rkey;
  wr.compare_add = add;
  wr.local_addr = result_addr;
  wr.length = result_addr != 0 ? 8 : 0;
  wr.lkey = result_lkey;
  wr.signaled = signaled;
  return wr;
}

SendWr MakeCalcMax(std::uint64_t raddr, std::uint32_t rkey,
                   std::uint64_t operand, bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kCalcMax;
  wr.remote_addr = raddr;
  wr.rkey = rkey;
  wr.compare_add = operand;
  wr.signaled = signaled;
  return wr;
}

SendWr MakeWait(const CompletionQueue* cq, std::uint64_t count, bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kWait;
  wr.target_id = cq->id();
  wr.threshold = count;
  wr.signaled = signaled;
  return wr;
}

SendWr MakeEnable(const QueuePair* target_qp, std::uint64_t limit,
                  bool signaled) {
  SendWr wr;
  wr.opcode = Opcode::kEnable;
  wr.target_id = target_qp->id;
  wr.threshold = limit;
  wr.signaled = signaled;
  return wr;
}

std::uint64_t PostRecv(QueuePair* qp, const RecvWr& wr) {
  // Same contract as PostSend (ibv_post_recv's ENOMEM): the next slot must
  // not still hold an unconsumed RECV, or that RECV is silently lost.
  if (qp->rq.posted - qp->rq.consumed >= qp->rq.capacity()) [[unlikely]] {
    detail::ThrowRqOverflow(qp);
  }
  rnic::WqeImage img;
  img.ctrl = rnic::PackCtrl(Opcode::kRecv, wr.wr_id);
  img.flags = rnic::kFlagSignaled;
  if (wr.sge_table != nullptr) {
    img.flags |= rnic::kFlagSgeTable;
    img.local_addr = rnic::dma::AddrOf(wr.sge_table);
    img.length = wr.sge_count;
  } else {
    img.local_addr = wr.local_addr;
    img.length = wr.length;
    img.lkey = wr.lkey;
  }
  const std::uint64_t idx = qp->rq.posted;
  qp->rq.Slot(idx).Store(img);
  qp->device->NotifyRecvPosted(qp);
  return idx;
}

bool AwaitCqe(sim::Simulator& sim, rnic::RnicDevice& dev, CompletionQueue* cq,
              Cqe* out, sim::Nanos deadline) {
  for (;;) {
    if (dev.PollCq(cq, 1, out) == 1) return true;
    if (deadline >= 0 && sim.now() > deadline) return false;
    // CQE delivery stages host entries with a visibility timestamp instead
    // of scheduling a wake-up event, so advance the clock to that instant
    // ourselves when nothing else happens first.
    const sim::Nanos vis = cq->NextVisibleAt();
    sim::Nanos next;
    const bool has_event = sim.PeekNextEventTime(&next);
    if (vis >= 0 && (!has_event || next > vis)) {
      sim.RunUntil(vis);
      continue;
    }
    if (!sim.Step()) return dev.PollCq(cq, 1, out) == 1;
  }
}

bool AwaitCqes(sim::Simulator& sim, rnic::RnicDevice& dev, CompletionQueue* cq,
               int n, Cqe* last, sim::Nanos deadline) {
  for (int i = 0; i < n; ++i) {
    if (!AwaitCqe(sim, dev, cq, last, deadline)) return false;
  }
  return true;
}

}  // namespace redn::verbs
