#include "redn/program.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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
    : dev_(dev), port_(port), control_(NewQueue(control_depth, false)) {}

QueuePair* Program::NewQueue(std::uint32_t depth, bool managed) {
  rnic::QpConfig cfg;
  cfg.sq_depth = depth;
  cfg.rq_depth = 16;
  cfg.managed = managed;
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
  for (QueuePair* qp : owned_) dev_.Kill(qp);
}

WrRef Program::Post(QueuePair* q, const verbs::SendWr& wr) {
  if (IsCopy(wr.opcode)) {
    ++budget_.copy;
  } else if (IsAtomic(wr.opcode)) {
    ++budget_.atomics;
  } else if (wr.opcode == Opcode::kWait || wr.opcode == Opcode::kEnable) {
    ++budget_.sync;
  }
  const std::uint64_t retired_at = wr.signaled ? ++SignalCount(q->send_cq) : 0;
  const std::uint64_t idx = verbs::PostSend(q, wr);
  return WrRef{q, idx, retired_at};
}

const Sge* Program::CarveSgeTable(std::span<const Sge> sges,
                                  std::uint32_t* lkey) {
  if (sge_used_ + sges.size() > sge_cap_) {
    sge_cap_ = std::max(kSgeChunk, sges.size());
    sge_chunks_.push_back(std::make_unique_for_overwrite<Sge[]>(sge_cap_));
    sge_lkey_ = dev_.pd()
                    .Register(sge_chunks_.back().get(), sge_cap_ * sizeof(Sge),
                              rnic::kLocalRead)
                    .lkey;
    sge_used_ = 0;
  }
  Sge* table = sge_chunks_.back().get() + sge_used_;
  dev_.pd().BeforeStore(rnic::dma::AddrOf(table), sges.size() * sizeof(Sge));
  std::copy(sges.begin(), sges.end(), table);
  sge_used_ += sges.size();
  *lkey = sge_lkey_;
  return table;
}

WrRef Program::Wait(CompletionQueue* cq, std::uint64_t count, bool signaled) {
  return Post(control_, verbs::MakeWait(cq, count, signaled));
}

WrRef Program::Enable(QueuePair* q, std::uint64_t limit) {
  return Post(control_, verbs::MakeEnable(q, limit));
}

WrRef Program::OpcodeCas(WrRef target, std::uint64_t operand, Opcode from,
                         Opcode to, QueuePair* q) {
  verbs::SendWr cas = verbs::MakeCas(
      target.FieldAddr(WqeField::kCtrl), target.CodeRkey(),
      rnic::PackCtrl(from, operand), rnic::PackCtrl(to, operand));
  return Post(q != nullptr ? q : control_, cas);
}

WrRef Program::FetchAdd(std::uint64_t addr, std::uint32_t rkey,
                        std::uint64_t delta) {
  return Post(control_, verbs::MakeFetchAdd(addr, rkey, delta));
}

WrRef Program::WaitFor(WrRef wr) {
  if (wr.retired_at == 0) {
    throw std::invalid_argument(
        "Program::WaitFor: the WR is unsignaled, so no completion count "
        "ever shows it retired");
  }
  return Wait(wr.qp->send_cq, wr.retired_at);
}

void Program::Steps(std::initializer_list<WrRef> wrs) {
  const WrRef* prev = nullptr;
  for (const WrRef& wr : wrs) {
    if (prev != nullptr) WaitFor(*prev);
    Release(wr);
    prev = &wr;
  }
}

WrRef Program::EmitEqualIf(CompletionQueue* trigger_cq,
                           std::uint64_t trigger_count, WrRef target,
                           std::uint64_t operand, Opcode then_op) {
  Wait(trigger_cq, trigger_count);
  WrRef cas = OpcodeCas(target, operand, Opcode::kNoop, then_op);
  WaitFor(cas);
  Release(target);
  return cas;
}

WrRef Program::Break(QueuePair* q, WrRef target, Opcode then_op,
                     const Sge& tmpl) {
  // The header: ctrl, remote_addr and rkey (copied from `target`), flags.
  assert(tmpl.length >= 24);
  dev_.pd().BeforeStore(tmpl.addr, 24);
  rnic::dma::WriteU64(tmpl.addr, rnic::PackCtrl(then_op, 0));
  rnic::dma::Copy(tmpl.addr + 8, target.FieldAddr(WqeField::kRemoteAddr), 12);
  rnic::dma::WriteU32(tmpl.addr + 20, 0);
  verbs::SendWr b = verbs::MakeWrite(tmpl.addr, 24, tmpl.lkey,
                                     target.FieldAddr(WqeField::kCtrl),
                                     target.CodeRkey());
  b.opcode = Opcode::kNoop;  // -> kWrite when a CAS promotes it
  return Post(q, b);
}

void Program::TriggerRecv(QueuePair* q, std::span<const Sge> injections,
                          std::uint64_t wr_id) {
  verbs::RecvWr rwr;
  rwr.wr_id = wr_id;
  SetSgeTable(rwr, injections);
  verbs::PostRecv(q, rwr);
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
  return signals_.emplace_back(cq, cq->hw_count()).second;
}

UnrolledLoop::UnrolledLoop(Program& prog, QueuePair* chain, QueuePair* resp_qp,
                           std::uint64_t resp_addr, std::uint32_t resp_rkey,
                           const Sge* break_templates)
    : prog_(prog),
      chain_(chain),
      resp_qp_(resp_qp),
      resp_addr_(resp_addr),
      resp_rkey_(resp_rkey),
      templates_(break_templates != nullptr ? *break_templates : Sge{}),
      first_read_(chain->sq.posted) {}

void UnrolledLoop::Iterate(const Sge& payload, std::uint64_t read_addr,
                           std::uint32_t read_rkey, std::uint32_t read_len,
                           std::span<const Sge> scatter) {
  assert(iterations_ < rnic::kMaxSges && "one RECV scatter per iteration");
  assert(scatter.size() < rnic::kMaxSges);
  const bool brk = templates_.length > 0;
  const int i = iterations_++;

  // With break, the response's miss completion feeds the next gate.
  verbs::SendWr resp = verbs::MakeWrite(payload.addr, payload.length,
                                        payload.lkey, resp_addr_, resp_rkey_,
                                        /*signaled=*/brk);
  resp.opcode = Opcode::kNoop;  // -> kWriteImm on a hit
  resp.imm = 1;
  const WrRef response = prog_.Post(resp_qp_, resp);

  // The CAS target: the response, or the break WR two slots after the READ.
  const WrRef read_slot = ReadSlot(i);
  const WrRef target = brk ? WrRef{chain_, read_slot.idx + 2} : response;
  Sge sges[rnic::kMaxSges];
  sges[0] = target.FieldSge(WqeField::kCtrl);
  std::copy(scatter.begin(), scatter.end(), sges + 1);
  verbs::SendWr read = verbs::MakeRead(0, read_len, 0, read_addr, read_rkey);
  prog_.SetSgeTable(read, std::span<const Sge>(sges, scatter.size() + 1));
  const WrRef rd = prog_.Post(chain_, read);
  assert(rd.idx == read_slot.idx);

  const WrRef cas = prog_.OpcodeCas(
      target, 0, Opcode::kNoop, brk ? Opcode::kWrite : Opcode::kWriteImm,
      chain_);
  injections_[i] = cas.FieldSge(WqeField::kCompareAdd);

  WrRef b;
  if (brk) {
    const Sge tmpl{templates_.addr + 24u * static_cast<std::uint64_t>(i), 24,
                   templates_.lkey};
    assert(tmpl.addr + 24 <= templates_.addr + templates_.length);
    b = prog_.Break(chain_, response, Opcode::kWriteImm, tmpl);
    assert(b.idx == target.idx);
  }

  if (i == 0) {
    prog_.Wait(resp_qp_->recv_cq, resp_qp_->rq.posted + 1);
  } else if (brk) {
    prog_.WaitFor(prev_response_);
  }
  if (brk) {
    prog_.Steps({rd, cas, b, response});
  } else {
    prog_.Steps({rd, cas, response});
  }
  prev_response_ = response;
}

void UnrolledLoop::PostTrigger(std::span<const Sge> tail) {
  assert(iterations_ + tail.size() <= rnic::kMaxSges);
  std::copy(tail.begin(), tail.end(), injections_ + iterations_);
  prog_.TriggerRecv(resp_qp_,
                    std::span<const Sge>(injections_, iterations_ + tail.size()));
}

}  // namespace redn::core
