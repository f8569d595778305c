#include "offloads/hash_lookup.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "verbs/verbs.h"

namespace redn::offloads {

using rnic::Opcode;
using rnic::WqeField;

HashGetOffload::RingDepths HashGetOffload::Depths(const Config& cfg,
                                                 int lane) {
  if (cfg.buckets != 1 && cfg.buckets != 2) {
    throw std::invalid_argument("HashGetOffload: buckets must be 1 or 2, got " +
                                std::to_string(cfg.buckets));
  }
  if (cfg.max_requests < 1) {
    throw std::invalid_argument(
        "HashGetOffload: max_requests must be >= 1, got " +
        std::to_string(cfg.max_requests));
  }
  // Sequential probes share lane 0; parallel ones take a lane each.
  const bool split = cfg.parallel && cfg.buckets == 2;
  const std::uint32_t probes =
      split ? 1u : (lane == 0 ? static_cast<std::uint32_t>(cfg.buckets) : 0u);
  const std::uint32_t requests = static_cast<std::uint32_t>(cfg.max_requests);
  const std::uint32_t per_lane = requests * probes;
  return RingDepths{
      .control = per_lane * kControlWrsPerProbe + kRingSlack,
      .chain = per_lane * kChainWrsPerProbe + kRingSlack,
      .response = per_lane * kResponseWrsPerProbe + kRingSlack,
      // Every request's RECV lands on lane 0's QP, whichever lane answers.
      .recv = (lane == 0 ? requests * kRecvsPerRequest : 0u) + kRingSlack,
  };
}

HashGetOffload::HashGetOffload(rnic::RnicDevice& server,
                               kv::RdmaHashTable& table, kv::ValueHeap& heap,
                               QueuePair* client_qp, QueuePair* client_qp2,
                               Config cfg)
    : server_(server),
      table_(table),
      heap_(heap),
      client_qp_(client_qp),
      client_qp2_(client_qp2),
      cfg_(cfg),
      prog_(server, cfg.port, Depths(cfg, 0).control),
      prog2_(server, cfg.port, Depths(cfg, 1).control),
      armed_(client_qp->recv_cq->hw_count()) {
  assert(client_qp_->sq.managed() && "response queue must be managed");
  m1_ = prog_.NewChainQueue(Depths(cfg, 0).chain);
  if (cfg_.parallel) {
    assert(client_qp2_ != nullptr && client_qp2_->sq.managed());
    m2_ = prog2_.NewChainQueue(Depths(cfg, 1).chain);
  }
}

void HashGetOffload::ArmBucketChain(Program& prog, QueuePair* chain,
                                    QueuePair* resp_qp,
                                    rnic::CompletionQueue* trigger_cq,
                                    std::uint64_t recv_seq,
                                    std::uint64_t resp_addr,
                                    std::uint32_t resp_rkey, std::uint32_t imm,
                                    rnic::Sge* recv_sges, bool signal_trigger) {
  // R4: the response (posted first so READ/CAS can reference its fields).
  verbs::SendWr r4;
  r4.opcode = Opcode::kNoop;  // becomes kWriteImm on a hit
  r4.signaled = false;        // misses stay invisible
  r4.local_addr = 0;          // <- bucket.ptr via READ scatter
  r4.length = 0;              // <- bucket.len via READ scatter
  r4.lkey = heap_.lkey();
  r4.remote_addr = resp_addr;
  r4.rkey = resp_rkey;
  r4.imm = imm;
  WrRef resp = prog.Post(resp_qp, r4);

  // READ: bucket -> response WQE fields. 20 bytes scatter as documented in
  // kv/table.h. remote_addr is injected by the trigger RECV.
  verbs::SendWr read;
  read.opcode = Opcode::kRead;
  const rnic::Sge scatter[] = {
      resp.FieldSge(WqeField::kCtrl),
      resp.FieldSge(WqeField::kLocalAddr),
      resp.FieldSge(WqeField::kLength, 4),
  };
  prog.SetSgeTable(read, scatter);
  read.remote_addr = 0;  // <- bucket address via trigger RECV
  read.rkey = table_.rkey();
  read.length = 20;
  WrRef rd = prog.Post(chain, read);

  // CAS: {NOOP, bucket.key} vs {NOOP, x}; on match -> {WRITE_IMM, 0}. The
  // trigger RECV injects PackCtrl(NOOP, x) into its compare word.
  WrRef cs = prog.OpcodeCas(resp, 0, Opcode::kNoop, Opcode::kWriteImm, chain);

  // Trigger injection points for this bucket probe.
  recv_sges[0] = cs.FieldSge(WqeField::kCompareAdd);
  recv_sges[1] = rd.FieldSge(WqeField::kRemoteAddr);

  // Control glue (doorbell ordering): trigger -> READ -> CAS -> response.
  prog.Wait(trigger_cq, recv_seq, signal_trigger);
  prog.Steps({rd, cs, resp});
}

void HashGetOffload::Arm(int n, std::uint64_t resp_addr,
                         std::uint32_t resp_rkey) {
  Post(static_cast<std::uint64_t>(std::max(n, 0)), resp_addr, resp_rkey,
       /*signaled_seq=*/0);
}

void HashGetOffload::Post(std::uint64_t n, std::uint64_t resp_addr,
                          std::uint32_t resp_rkey,
                          std::uint64_t signaled_seq) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seq = ++armed_;
    rnic::Sge recv_sges[4];  // two injection points per probed bucket
    // Bucket 1 probe rides prog_/m1_ and answers on client_qp_.
    ArmBucketChain(prog_, m1_, client_qp_, client_qp_->recv_cq, seq,
                   resp_addr, resp_rkey, static_cast<std::uint32_t>(seq),
                   &recv_sges[0], seq == signaled_seq);
    if (cfg_.buckets == 2) {
      if (cfg_.parallel) {
        // Triggers arrive on client_qp_; the parallel probe answers on the
        // second client-facing QP but gates on the same trigger CQ.
        ArmBucketChain(prog2_, m2_, client_qp2_, client_qp_->recv_cq, seq,
                       resp_addr, resp_rkey, static_cast<std::uint32_t>(seq),
                       &recv_sges[2], /*signal_trigger=*/false);
      } else {
        ArmBucketChain(prog_, m1_, client_qp_, client_qp_->recv_cq, seq,
                       resp_addr, resp_rkey, static_cast<std::uint32_t>(seq),
                       &recv_sges[2], /*signal_trigger=*/false);
      }
    }

    // One RECV consumes the trigger and feeds every probe in this request.
    prog_.TriggerRecv(
        client_qp_,
        std::span<const rnic::Sge>(recv_sges, std::size_t(cfg_.buckets) * 2),
        seq);
  }
  prog_.Launch();
  if (cfg_.parallel) prog2_.Launch();
}

void HashGetOffload::ArmAhead(int n, std::uint64_t resp_addr,
                              std::uint32_t resp_rkey) {
  if (cfg_.max_requests < kMinWindow) {
    throw std::invalid_argument(
        "HashGetOffload::ArmAhead: max_requests (the window) must be >= " +
        std::to_string(kMinWindow) + ", got " +
        std::to_string(cfg_.max_requests) +
        ": a refill must leave an armed request ahead of the NIC");
  }
  resp_addr_ = resp_addr;
  resp_rkey_ = resp_rkey;
  prog_.control_cq()->SetHostNotify([this] { Refill(); });
  owed_ += static_cast<std::uint64_t>(std::max(n, 0));
  if (refill_pending_) return;  // the pending refill posts these too
  const std::uint64_t window = static_cast<std::uint64_t>(cfg_.max_requests);
  const std::uint64_t consumed = client_qp_->recv_cq->hw_count();
  const std::uint64_t ahead = armed_ > consumed ? armed_ - consumed : 0;
  PostOwed(window > ahead ? window - ahead : 0);
}

void HashGetOffload::PostOwed(std::uint64_t limit) {
  const std::uint64_t batch = std::min(owed_, limit);
  owed_ -= batch;
  std::uint64_t signaled_seq = 0;
  if (owed_ > 0) {
    if (batch == 0) {
      throw std::runtime_error(
          "HashGetOffload::ArmAhead: the window of " +
          std::to_string(cfg_.max_requests) +
          " requests is full and no refill is pending; pass every request "
          "to serve to one ArmAhead call, or raise max_requests");
    }
    // The refill fires with W/2 - 1 armed requests still ahead of the NIC.
    const std::uint64_t margin =
        static_cast<std::uint64_t>(cfg_.max_requests) / 2 - 1;
    signaled_seq = armed_ + batch - std::min(margin, batch - 1);
    refill_pending_ = true;
  }
  Post(batch, resp_addr_, resp_rkey_, signaled_seq);
}

void HashGetOffload::Refill() {
  // Host bookkeeping first: nothing else polls these CQs, so without this
  // their host entries would grow by one CQE per trigger and per chain
  // verb for the whole run.
  rnic::Cqe cqes[16];
  for (rnic::CompletionQueue* cq :
       {prog_.control_cq(), client_qp_->recv_cq, m1_->send_cq,
        m2_ != nullptr ? m2_->send_cq : nullptr}) {
    if (cq == nullptr) continue;
    while (server_.PollCq(cq, 16, cqes) > 0) {
    }
  }
  refill_pending_ = false;
  // Retired, or the QP errored (its flushed RECVs bumped the trigger
  // count); the heal arms a fresh program, so there is nothing to post.
  if (owed_ == 0 || client_qp_->state == rnic::QpState::kError) return;
  if (client_qp_->recv_cq->hw_count() >= armed_) {
    throw std::runtime_error(
        "HashGetOffload: window too small: triggers consumed all " +
        std::to_string(armed_) + " armed requests while " +
        std::to_string(owed_) +
        " are still owed; ArmAhead needs fewer than max_requests / 2 "
        "triggers in flight, so raise max_requests or arm with Arm()");
  }
  ++refills_;
  PostOwed(static_cast<std::uint64_t>(cfg_.max_requests) / 2 + 1);
}

void HashGetOffload::BuildTrigger(std::uint64_t key, std::byte* out) const {
  const std::uint64_t packed = rnic::PackCtrl(Opcode::kNoop, key);
  std::uint64_t words[4] = {packed, table_.BucketAddr1(key), packed,
                            table_.BucketAddr2(key)};
  std::memcpy(out, words, TriggerBytes());
}

}  // namespace redn::offloads
