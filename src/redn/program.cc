#include "redn/program.h"

#include <algorithm>

namespace redn::core {
namespace {

bool IsCopy(Opcode op) {
  switch (op) {
    case Opcode::kNoop:  // placeholder that a CAS may flip into a WRITE
    case Opcode::kWrite:
    case Opcode::kWriteImm:
    case Opcode::kRead:
    case Opcode::kSend:
    case Opcode::kSendImm:
      return true;
    default:
      return false;
  }
}

bool IsAtomic(Opcode op) {
  switch (op) {
    case Opcode::kCompSwap:
    case Opcode::kFetchAdd:
    case Opcode::kCalcMax:
    case Opcode::kCalcMin:
      return true;
    default:
      return false;
  }
}

}  // namespace

Program::Program(rnic::RnicDevice& dev, int port, std::uint32_t control_depth)
    : dev_(dev), port_(port) {
  rnic::QpConfig cfg;
  cfg.sq_depth = control_depth;
  cfg.rq_depth = 16;
  cfg.managed = false;
  cfg.port = port_;
  cfg.send_cq = dev_.CreateCq();
  cfg.recv_cq = dev_.CreateCq();
  control_ = dev_.CreateQp(cfg);
  rnic::ConnectSelf(control_);
  owned_.push_back(control_);
}

QueuePair* Program::NewChainQueue(std::uint32_t depth) {
  rnic::QpConfig cfg;
  cfg.sq_depth = depth;
  cfg.rq_depth = 16;
  cfg.managed = true;
  cfg.port = port_;
  cfg.send_cq = dev_.CreateCq();
  cfg.recv_cq = dev_.CreateCq();
  QueuePair* qp = dev_.CreateQp(cfg);
  rnic::ConnectSelf(qp);
  owned_.push_back(qp);
  return qp;
}

QueuePair* Program::NewPlainQueue(std::uint32_t depth) {
  rnic::QpConfig cfg;
  cfg.sq_depth = depth;
  cfg.rq_depth = 16;
  cfg.managed = false;
  cfg.port = port_;
  cfg.send_cq = dev_.CreateCq();
  cfg.recv_cq = dev_.CreateCq();
  QueuePair* qp = dev_.CreateQp(cfg);
  rnic::ConnectSelf(qp);
  owned_.push_back(qp);
  return qp;
}

void Program::SetOwner(int pid) {
  for (QueuePair* qp : owned_) qp->owner_pid = pid;
}

void Program::Abort() {
  for (QueuePair* qp : owned_) {
    qp->alive = false;
    qp->sq.error = true;
    qp->rq.error = true;
  }
}

WrRef Program::Post(QueuePair* q, const verbs::SendWr& wr) {
  if (IsCopy(wr.opcode)) {
    ++budget_.copy;
  } else if (IsAtomic(wr.opcode)) {
    ++budget_.atomics;
  } else if (wr.opcode == Opcode::kWait || wr.opcode == Opcode::kEnable) {
    ++budget_.sync;
  }
  if (wr.signaled) ++SignalCount(q->send_cq);
  const std::uint64_t idx = verbs::PostSend(q, wr);
  return WrRef{q, idx};
}

const Sge* Program::MakeSgeTable(std::span<const Sge> sges) {
  if (sge_used_ + sges.size() > sge_cap_) {
    sge_cap_ = std::max(kSgeChunk, sges.size());
    sge_chunks_.push_back(std::make_unique_for_overwrite<Sge[]>(sge_cap_));
    sge_used_ = 0;
  }
  Sge* table = sge_chunks_.back().get() + sge_used_;
  std::copy(sges.begin(), sges.end(), table);
  sge_used_ += sges.size();
  return table;
}

WrRef Program::Wait(CompletionQueue* cq, std::uint64_t count, bool signaled) {
  return Post(control_, verbs::MakeWait(cq, count, signaled));
}

WrRef Program::Enable(QueuePair* q, std::uint64_t limit) {
  return Post(control_, verbs::MakeEnable(q, limit));
}

WrRef Program::OpcodeCas(WrRef target, std::uint64_t operand, Opcode from,
                         Opcode to) {
  verbs::SendWr cas = verbs::MakeCas(
      target.FieldAddr(WqeField::kCtrl), target.CodeRkey(),
      rnic::PackCtrl(from, operand), rnic::PackCtrl(to, operand));
  return Post(control_, cas);
}

WrRef Program::FetchAdd(std::uint64_t addr, std::uint32_t rkey,
                        std::uint64_t delta) {
  return Post(control_, verbs::MakeFetchAdd(addr, rkey, delta));
}

WrRef Program::EmitEqualIf(CompletionQueue* trigger_cq,
                           std::uint64_t trigger_count, WrRef target,
                           std::uint64_t operand, Opcode then_op) {
  Wait(trigger_cq, trigger_count);
  WrRef cas = OpcodeCas(target, operand, Opcode::kNoop, then_op);
  Wait(control_cq(), SignalsPosted(control_cq()));
  Enable(target.qp, target.idx + 1);
  return cas;
}

void Program::Launch() { dev_.RingDoorbell(control_); }

std::uint64_t Program::SignalsPosted(const CompletionQueue* cq) const {
  for (const auto& [c, n] : signals_) {
    if (c == cq) return n;
  }
  return 0;
}

std::uint64_t& Program::SignalCount(const CompletionQueue* cq) {
  for (auto& [c, n] : signals_) {
    if (c == cq) return n;
  }
  return signals_.emplace_back(cq, 0).second;
}

}  // namespace redn::core
