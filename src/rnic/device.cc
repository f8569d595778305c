#include "rnic/device.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/sharded.h"
#include "sim/transport.h"

namespace redn::rnic {

namespace {
// Wire payload of a READ request riding the packetized transport: the RETH
// (virtual address, rkey, length) beyond the per-packet header the
// transport already charges.
constexpr std::uint64_t kReadRequestBytes = 16;
}  // namespace

RnicDevice::RnicDevice(sim::Simulator& sim, NicConfig cfg, Calibration cal,
                       std::string name)
    : sim_(sim),
      cfg_(cfg),
      cal_(cal),
      name_(std::move(name)),
      pcie_(cal.pcie_gbps),
      membw_(cal.mem_gbps) {
  ports_.reserve(cfg_.ports);
  for (int p = 0; p < cfg_.ports; ++p) {
    ports_.emplace_back(cfg_.pus_per_port, cal_.link_gbps);
  }
  fabric_ports_.resize(cfg_.ports);
  next_pu_per_port_.assign(cfg_.ports, 0);
}

RnicDevice::~RnicDevice() = default;

CompletionQueue* RnicDevice::CreateCq() {
  cqs_.push_back(std::make_unique<CompletionQueue>(
      static_cast<std::uint32_t>(cqs_.size())));
  return cqs_.back().get();
}

QueuePair* RnicDevice::CreateQp(const QpConfig& qcfg) {
  assert(qcfg.send_cq && qcfg.recv_cq && "QPs require send and recv CQs");
  assert(qcfg.port >= 0 && qcfg.port < cfg_.ports);
  auto qp = std::make_unique<QueuePair>();
  qp->id = static_cast<std::uint32_t>(qps_.size());
  qp->device = this;
  qp->send_cq = qcfg.send_cq;
  qp->recv_cq = qcfg.recv_cq;
  qp->port = qcfg.port;
  qp->owner_pid = qcfg.owner_pid;
  if (qcfg.rate_ops_per_sec > 0) {
    qp->rate_gap = static_cast<sim::Nanos>(1e9 / qcfg.rate_ops_per_sec);
  }

  const std::size_t sq_bytes = qcfg.sq_depth * kWqeSize;
  const std::size_t rq_bytes = qcfg.rq_depth * kWqeSize;
  // make_unique<T[]> value-initializes: the rings start zeroed.
  qp->sq_buf = std::make_unique<std::byte[]>(sq_bytes);
  qp->rq_buf = std::make_unique<std::byte[]>(rq_bytes);
  // The WQ rings are the "code region": registered so RDMA verbs (including
  // loopback CAS/WRITE/RECV-scatter) can rewrite posted WQEs.
  qp->sq_mr = pd_.Register(qp->sq_buf.get(), sq_bytes, kAccessAll);
  qp->rq_mr = pd_.Register(qp->rq_buf.get(), rq_bytes, kAccessAll);

  int& rr = next_pu_per_port_[qcfg.port];
  const int pu = rr;
  rr = (rr + 1) % cfg_.pus_per_port;
  qp->sq.Init(qp.get(), /*is_send=*/true, qp->sq_buf.get(), qcfg.sq_depth,
              qcfg.managed, qcfg.send_cq, pu);
  qp->rq.Init(qp.get(), /*is_send=*/false, qp->rq_buf.get(), qcfg.rq_depth,
              /*managed=*/false, qcfg.recv_cq, pu);
  // Watch managed SQ rings for tracked NIC-side stores: a verb that
  // rewrites a posted WQE (the RedN self-modification trick) refreshes the
  // slot's cached decode through NoteDmaWrite, so the next doorbell-order
  // fetch of a self-modified slot still hits. Non-managed rings stay
  // unwatched — their snapshots must go stale by design, and the
  // verify-at-fetch re-decodes recycled slots. RQ WQEs are read fresh at
  // every consumption, so RQ rings never join either.
  if (qcfg.managed) {
    ring_watches_.Watch(qp->sq.RingBase(), qp->sq.RingBytes(), &qp->sq);
  }
  qps_.push_back(std::move(qp));
  return qps_.back().get();
}

CompletionQueue* RnicDevice::GetCq(std::uint32_t id) {
  return id < cqs_.size() ? cqs_[id].get() : nullptr;
}

QueuePair* RnicDevice::GetQp(std::uint32_t id) {
  return id < qps_.size() ? qps_[id].get() : nullptr;
}

void RnicDevice::RingDoorbell(QueuePair* qp) {
  WorkQueue& wq = qp->sq;
  if (wq.managed()) return;  // managed queues advance only via ENABLE
  ++counters_.doorbells;
  const std::uint64_t new_limit = wq.posted;
  if (new_limit <= wq.exec_limit) return;
  const sim::Nanos delay = cal_.doorbell_mmio + cal_.first_fetch;
  sim_.After(delay, [this, &wq, new_limit] {
    if (wq.error) return;
    SnapshotRange(wq, new_limit);
    wq.exec_limit = std::max(wq.exec_limit, new_limit);
    Advance(wq);
  });
}

void RnicDevice::NotifyRecvPosted(QueuePair* qp) { ++qp->rq.posted; }

int RnicDevice::PollCq(CompletionQueue* cq, int max, Cqe* out) {
  return cq->Poll(sim_.now(), max, out);
}

void RnicDevice::ApplyEnable(WorkQueue& wq, std::uint64_t limit) {
  wq.exec_limit = std::max(wq.exec_limit, limit);
  // A non-managed queue snapshots up to the new limit, so later WQE
  // rewrites are invisible; a managed queue keeps fetching one-by-one at
  // execution time. Sharing this between the ENABLE verb and HostEnable
  // keeps host-driven and verb-driven enables agreeing.
  if (!wq.managed()) SnapshotRange(wq, wq.exec_limit);
  Advance(wq);
}

void RnicDevice::HostEnable(QueuePair* qp, std::uint64_t limit) {
  WorkQueue& wq = qp->sq;
  sim_.After(cal_.doorbell_mmio, [this, &wq, limit] {
    if (wq.error) return;
    ApplyEnable(wq, limit);
  });
}

void RnicDevice::SetRateLimit(QueuePair* qp, double ops_per_sec) {
  qp->rate_gap =
      ops_per_sec > 0 ? static_cast<sim::Nanos>(1e9 / ops_per_sec) : 0;
  // The next-slot cursor was computed under the old gap; keeping it would
  // delay the first WQE after a reconfigure (or a QP reuse) by the stale
  // schedule. Pacing restarts from the next issue instant.
  qp->next_rate_slot = 0;
}

void RnicDevice::AttachPort(int port, sim::Fabric& fabric,
                            const sim::LinkSpec& spec) {
  assert(port >= 0 && port < cfg_.ports);
  assert(fabric_ports_[port].fabric == nullptr && "port already attached");
  // Passing the device's event domain lets the fabric register cross-shard
  // link latencies as lookahead floors (and reject zero-latency cross-shard
  // pairs) the moment the topology is declared.
  fabric_ports_[port] = FabricAttach{
      &fabric,
      fabric.Attach(spec, name_ + ":" + std::to_string(port), &sim_)};
}

void RnicDevice::KillProcessResources(int pid) {
  for (auto& qp : qps_) {
    if (qp->owner_pid == pid && qp->alive) {
      qp->alive = false;
      qp->state = QpState::kError;
      qp->sq.error = true;
      qp->rq.error = true;
    }
  }
}

void RnicDevice::ReviveProcessResources(int pid) {
  for (auto& qp : qps_) {
    if (qp->owner_pid == pid && !qp->alive) {
      qp->alive = true;  // still kError + latched; ModifyQp re-arms
    }
  }
}

bool RnicDevice::HasLiveQps() const {
  for (const auto& qp : qps_) {
    if (qp->alive) return true;
  }
  return false;
}

void RnicDevice::SnapshotRange(WorkQueue& wq, std::uint64_t upto) {
  for (std::uint64_t i = wq.fetch_horizon; i < upto; ++i) {
    FetchSlot(wq, i);
  }
  wq.fetch_horizon = std::max(wq.fetch_horizon, upto);
}

void RnicDevice::FetchSlot(WorkQueue& wq, std::uint64_t idx) {
  const std::size_t s = wq.BufSlot(idx);
  WqeImage& img = wq.ImageAtB(s);
  const WqeView slot = wq.SlotAtB(s);
  // The verify is the correctness backbone: a cached decode is trusted only
  // if the live slot bytes still equal it, so even host-side raw-DMA WQE
  // patches (which bypass every tracked write path) are always honoured —
  // exactly the snapshot the pre-cache fetch would have taken.
  if (wq.DecodedAtB(s)) {
    if (slot.Matches(img)) {
      ++counters_.wqe_cache_hits;
      return;
    }
    ++counters_.wqe_cache_invalidations;  // untracked write beat the filter
  }
  img = slot.Load();
  wq.MarkDecodedAtB(s);
  ++counters_.wqe_cache_misses;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

void RnicDevice::Advance(WorkQueue& wq) {
  if (wq.busy || wq.waiting || wq.error || !wq.qp()->alive) return;
  if (wq.next_exec >= wq.exec_limit) return;
  wq.busy = true;
  const std::uint64_t idx = wq.next_exec;
  if (idx >= wq.fetch_horizon) {
    if (wq.managed()) {
      // Doorbell order: one serialized WQE fetch through the port's fetch
      // unit. The snapshot is taken when the DMA completes, so modifications
      // made before that point are honoured — the essence of self-modifying
      // chains.
      auto& port = ports_[wq.qp()->port];
      const sim::Nanos done =
          port.fetch_unit.Reserve(sim_.now(), cal_.managed_fetch);
      ++counters_.managed_fetches;
      sim_.At(done, [this, &wq, idx] {
        if (wq.error || !wq.qp()->alive) {
          wq.busy = false;
          return;
        }
        FetchSlot(wq, idx);
        wq.fetch_horizon = std::max(wq.fetch_horizon, idx + 1);
        Issue(wq, idx);
      });
      return;
    }
    // Non-managed queue executing beyond its snapshot (recycling a plain
    // queue): fetch now, batch-granular.
    SnapshotRange(wq, idx + cfg_.prefetch_batch);
  }
  Issue(wq, idx);
}

void RnicDevice::Issue(WorkQueue& wq, std::uint64_t idx) {
  // Precondition: wq.busy == true, snapshot available. Control verbs stage
  // the image in wq.inflight_img (stable while busy); data verbs copy it
  // straight into their pooled Payload shuttle instead — one 64-byte copy
  // per verb, and the closures below only carry pointers and an index.
  const WqeImage& img = wq.ImageAt(idx);
  QueuePair* qp = wq.qp();
  auto& port = ports_[qp->port];
  auto& pu = port.pus[wq.pu_index()];
  const Opcode op = img.opcode();

  switch (op) {
    case Opcode::kWait: {
      wq.inflight_img = img;  // copy: ring slot may be recycled
      CompletionQueue* cq = GetCq(img.target_id);
      if (cq == nullptr) {
        FailWr(wq, img, sim_.now(), WcStatus::kBadOpcode);
        return;
      }
      if (cq->hw_count() >= img.compare_add) {
        const sim::Nanos done = pu.Reserve(sim_.now(), cal_.pu_wait);
        sim_.At(done,
                [this, &wq, idx] { FinishControlVerb(wq, idx, wq.inflight_img); });
      } else {
        // Block; the CQ will wake us when the threshold is reached.
        wq.busy = false;
        wq.waiting = true;
        cq->AddWaiter(&wq, img.compare_add);
      }
      return;
    }
    case Opcode::kEnable: {
      wq.inflight_img = img;  // copy: ring slot may be recycled
      const sim::Nanos done = pu.Reserve(sim_.now(), cal_.pu_enable);
      sim_.At(done, [this, &wq, idx] {
        const WqeImage& img = wq.inflight_img;
        QueuePair* target = GetQp(img.target_id);
        if (target != nullptr && target->alive) {
          ApplyEnable(target->sq, img.compare_add);
        }
        FinishControlVerb(wq, idx, img);
      });
      return;
    }
    case Opcode::kRecv:
      FailWr(wq, img, sim_.now(), WcStatus::kBadOpcode);
      return;
    default: {
      if (static_cast<std::uint16_t>(op) >=
          static_cast<std::uint16_t>(Opcode::kOpcodeCount)) {
        FailWr(wq, img, sim_.now(), WcStatus::kBadOpcode);
        return;
      }
      // Data verb: pipelined issue through the PU, subject to the QP rate
      // limiter (§3.5 Isolation).
      sim::Nanos start = sim_.now();
      if (qp->rate_gap > 0) {
        start = std::max(start, qp->next_rate_slot);
        qp->next_rate_slot = start + qp->rate_gap;
      }
      const sim::Nanos service =
          wq.managed() ? cal_.pu_managed_issue : PuService(op);
      const sim::Nanos t_issue = pu.Reserve(start, service);
      Payload* pl = payloads_.Acquire();
      pl->img = img;  // copy: ring slot may be recycled
      pl->slot = idx;
      sim_.At(t_issue, [this, &wq, idx, pl] {
        if (wq.error || !wq.qp()->alive) {
          payloads_.Release(pl);
          wq.busy = false;
          return;
        }
        ++counters_.executed_by_opcode[static_cast<int>(pl->img.opcode())];
        ExecuteData(wq, idx, pl, sim_.now());
        // Pipelining: the next WQE may issue without waiting for this one's
        // completion (WQ order).
        wq.next_exec = idx + 1;
        wq.busy = false;
        Advance(wq);
      });
      return;
    }
  }
}

void RnicDevice::FinishControlVerb(WorkQueue& wq, std::uint64_t idx,
                                   const WqeImage& img) {
  if (wq.error || !wq.qp()->alive) {
    wq.busy = false;
    return;
  }
  ++counters_.executed_by_opcode[static_cast<int>(img.opcode())];
  wq.next_exec = idx + 1;
  wq.busy = false;
  if (img.signaled()) {
    CompleteWr(wq.qp(), wq.cq(), img, sim_.now(), WcStatus::kSuccess, 0);
  }
  Advance(wq);
}

void RnicDevice::ResolveSges(const WqeImage& img, SgeScratch& out) const {
  if (img.uses_sge_table()) {
    int count = static_cast<int>(img.length);
    if (count > kMaxSges) count = kMaxSges;
    out.count = count;
    dma::Read(out.entries.data(), img.local_addr, sizeof(Sge) * count);
  } else {
    out.count = 1;
    out.entries[0] = Sge{img.local_addr, img.length, img.lkey};
  }
}

bool RnicDevice::GatherLocal(WorkQueue& wq, std::uint64_t idx,
                             const WqeImage& img, std::vector<std::byte>& out,
                             WcStatus* err) {
  const ProtectionDomain& pd = wq.qp()->device->pd_;
  if (!img.uses_sge_table()) {
    // Single-element fast path: the slot's SgePlan remembers the validated
    // CheckLocal result, so a recycled ring lap re-gathering through the
    // same {addr, length, lkey} skips the protection re-walk. Bytes are
    // still read live — only the *translation* is cached.
    if (img.length == 0) return true;
    SgePlan& plan = wq.PlanAt(idx);
    if (!plan.Covers(img.local_addr, img.length, img.lkey, kLocalRead,
                     pd.epoch())) {
      const MemCheck mc = pd.CheckLocal(img.local_addr, img.length, img.lkey,
                                        kLocalRead, &wq.mr_cache);
      if (mc != MemCheck::kOk) {
        *err = WcStatus::kLocalAccessError;
        return false;
      }
      plan.sge = Sge{img.local_addr, img.length, img.lkey};
      plan.pd_epoch = pd.epoch();
      plan.access = kLocalRead;
    }
    dma::ReadAppend(out, img.local_addr, img.length);
    return true;
  }
  SgeScratch sges;
  ResolveSges(img, sges);
  for (const Sge& sge : sges) {
    if (sge.length == 0) continue;
    const MemCheck mc = pd.CheckLocal(sge.addr, sge.length, sge.lkey,
                                      kLocalRead, &wq.mr_cache);
    if (mc != MemCheck::kOk) {
      *err = WcStatus::kLocalAccessError;
      return false;
    }
    dma::ReadAppend(out, sge.addr, sge.length);
  }
  return true;
}

bool RnicDevice::ScatterList(WorkQueue& wq, std::uint64_t idx,
                             const WqeImage& img, const std::byte* data,
                             std::size_t len, WcStatus* err) {
  const ProtectionDomain& pd = wq.qp()->device->pd_;
  if (!img.uses_sge_table()) {
    // Single-element fast path, mirroring GatherLocal. The plan may have
    // been validated for reads (a WRITE gather) — the write right is proven
    // on first use and remembered alongside.
    if (len == 0) return true;
    if (img.length == 0) {
      *err = WcStatus::kLocalAccessError;  // payload larger than scatter list
      return false;
    }
    const std::size_t chunk = std::min<std::size_t>(img.length, len);
    SgePlan& plan = wq.PlanAt(idx);
    if (plan.Covers(img.local_addr, img.length, img.lkey, kLocalWrite,
                    pd.epoch())) {
      dma::Write(img.local_addr, data, chunk);
    } else {
      const MemCheck mc =
          pd.CheckLocal(img.local_addr, chunk, img.lkey, kLocalWrite,
                        &wq.mr_cache);
      if (mc != MemCheck::kOk) {
        *err = WcStatus::kLocalAccessError;
        return false;
      }
      if (plan.Covers(img.local_addr, img.length, img.lkey, 0, pd.epoch())) {
        plan.access |= kLocalWrite;  // same element, new right proven
      } else if (chunk == img.length) {
        // Only a full-length check proves the whole element's bounds.
        plan.sge = Sge{img.local_addr, img.length, img.lkey};
        plan.pd_epoch = pd.epoch();
        plan.access = kLocalWrite;
      }
      dma::Write(img.local_addr, data, chunk);
    }
    NoteDmaWrite(img.local_addr, chunk);
    if (chunk < len) {
      *err = WcStatus::kLocalAccessError;  // payload larger than scatter list
      return false;
    }
    return true;
  }
  std::size_t consumed = 0;
  SgeScratch sges;
  ResolveSges(img, sges);
  for (const Sge& sge : sges) {
    if (consumed >= len) break;
    const std::size_t chunk =
        std::min<std::size_t>(sge.length, len - consumed);
    if (chunk == 0) continue;
    const MemCheck mc =
        pd.CheckLocal(sge.addr, chunk, sge.lkey, kLocalWrite, &wq.mr_cache);
    if (mc != MemCheck::kOk) {
      *err = WcStatus::kLocalAccessError;
      return false;
    }
    dma::Write(sge.addr, data + consumed, chunk);
    NoteDmaWrite(sge.addr, chunk);
    consumed += chunk;
  }
  if (consumed < len) {
    // Payload larger than the scatter list.
    *err = WcStatus::kLocalAccessError;
    return false;
  }
  return true;
}

void RnicDevice::ExecuteData(WorkQueue& wq, std::uint64_t idx, Payload* pl,
                             sim::Nanos t_issue) {
  const WqeImage& img = pl->img;
  QueuePair* qp = wq.qp();
  QueuePair* peer = qp->peer;
  // Fabric-routed QPs derive wire latency from the shared links; everything
  // else keeps the per-QP constant (loopback/compat path — bit-identical to
  // the pre-fabric model).
  const bool via_fabric = qp->via_fabric && peer != nullptr;
  const sim::Nanos ow = via_fabric ? FabricOneWay(qp, peer) : qp->net_one_way;
  const bool wire = via_fabric || ow > 0;
  const Opcode op = img.opcode();
  auto& port = ports_[qp->port];

  switch (op) {
    case Opcode::kNoop: {
      // NOP executes inside the NIC: WAIT verbs observe its completion
      // immediately (Fig 8's cheap completion ordering), but on a
      // wire-connected QP the host-visible CQE still pays the RC ack round
      // trip (Fig 7's remote-vs-local NOOP delta).
      CompleteWr(qp, qp->send_cq, img, t_issue + cal_.exec_noop,
                 WcStatus::kSuccess, 0,
                 /*force_cqe=*/false, /*host_extra=*/wire ? 2 * ow : 0);
      payloads_.Release(pl);
      return;
    }
    case Opcode::kWrite:
    case Opcode::kWriteImm:
    case Opcode::kSend:
    case Opcode::kSendImm: {
      // A cross-shard peer's alive flag is the responder shard's state; the
      // check runs there (SendAcrossFabric) and comes back as a NAK.
      if (peer == nullptr || (!CrossShard(peer) && !peer->alive)) {
        FailWr(wq, img, t_issue, WcStatus::kRemoteAccessError);
        payloads_.Release(pl);
        return;
      }
      WcStatus err = WcStatus::kSuccess;
      if (!GatherLocal(wq, idx, img, pl->bytes, &err)) {
        FailWr(wq, img, t_issue, err);
        payloads_.Release(pl);
        return;
      }
      const std::uint64_t len = pl->bytes.size();
      const sim::Nanos pcie_done = pcie_.Reserve(t_issue, len);
      const sim::Nanos mem_done = membw_.Reserve(t_issue, len);
      if (via_fabric && qp->transport != nullptr) {
        const sim::Nanos ready = std::max(
            {t_issue + ExecCost(op) + HostDataDelay(len), pcie_done, mem_done});
        SendOverTransport(wq, qp, peer, pl, op, ready);
        return;
      }
      sim::Nanos t_arrive;
      if (via_fabric) {
        // Egress waits for the host-side DMA, then the payload queues
        // through the shared links (src TX, then dst RX — the congested
        // server port under N-client load).
        const sim::Nanos ready = std::max(
            {t_issue + ExecCost(op) + HostDataDelay(len), pcie_done, mem_done});
        if (CrossShard(peer)) {
          SendAcrossFabric(wq, qp, peer, pl, op, ready);
          return;
        }
        t_arrive = FabricDeliver(qp, peer, ready, len);
      } else {
        const sim::Nanos link_done =
            wire ? port.link.Reserve(t_issue, len) : t_issue;
        t_arrive = std::max({t_issue + ExecCost(op) +
                                 DataDelay(len, wire ? &port.link : nullptr),
                             pcie_done, mem_done, link_done}) +
                   ow;
      }
      const sim::Nanos ack = wire ? ow + cal_.remote_ack_extra : 0;
      sim_.At(t_arrive, [this, &wq, qp, peer, pl, op, ack] {
        const WqeImage& img = pl->img;
        const std::uint64_t len = pl->bytes.size();
        if (wq.error) {  // QP flushed after an earlier failure
          payloads_.Release(pl);
          return;
        }
        WcStatus st = WcStatus::kSuccess;
        if (!peer->alive) {
          st = WcStatus::kRemoteAccessError;
        } else if (op == Opcode::kWrite || op == Opcode::kWriteImm) {
          st = peer->device->AcceptWrite(peer, img.remote_addr, img.rkey,
                                         pl->bytes.data(), len);
          if (st == WcStatus::kSuccess && op == Opcode::kWriteImm) {
            st = peer->device->AcceptSend(peer, nullptr, 0, img.imm,
                                          /*has_imm=*/true, len);
          }
        } else {
          st = peer->device->AcceptSend(
              peer, pl->bytes.data(), len, img.imm,
              /*has_imm=*/op == Opcode::kSendImm, len);
        }
        if (!qp->alive) {
          payloads_.Release(pl);
          return;
        }
        if (st != WcStatus::kSuccess && st != WcStatus::kRnrError) {
          // Remote failure: the QP enters error state immediately at the
          // responder (NAK); later-arriving WRs of this QP are flushed.
          wq.error = true;
          ++counters_.error_completions;
        }
        CompleteWr(qp, qp->send_cq, img, sim_.now() + ack, st,
                   static_cast<std::uint32_t>(len));
        payloads_.Release(pl);
      });
      return;
    }
    case Opcode::kRead: {
      if (peer == nullptr || (!CrossShard(peer) && !peer->alive)) {
        FailWr(wq, img, t_issue, WcStatus::kRemoteAccessError);
        payloads_.Release(pl);
        return;
      }
      if (via_fabric && qp->transport != nullptr) {
        ReadOverTransport(wq, qp, peer, pl, t_issue, ow);
        return;
      }
      if (via_fabric && CrossShard(peer)) {
        ReadAcrossFabric(wq, qp, peer, pl, t_issue, ow);
        return;
      }
      const sim::Nanos t_req = t_issue + ow;
      sim_.At(t_req, [this, &wq, qp, peer, pl, ow, wire] {
        const WqeImage& img = pl->img;
        if (!qp->alive) {  // requester died: flush silently
          payloads_.Release(pl);
          return;
        }
        if (!peer->alive) {
          // Target died mid-flight (the RunFailover window): the request is
          // NAKed instead of silently dropped — the requester must not hang.
          FailWr(wq, img, sim_.now() + ow, WcStatus::kRemoteAccessError);
          payloads_.Release(pl);
          return;
        }
        RnicDevice* rdev = peer->device;
        // Remote read length: with a scatter table, the WQE length field
        // holds the SGE count, so the byte count is the sum of the entries.
        std::uint64_t len = img.length;
        if (img.uses_sge_table()) {
          SgeScratch sges;
          ResolveSges(img, sges);
          len = 0;
          for (const Sge& sge : sges) len += sge.length;
        }
        const MemCheck mc =
            rdev->pd_.CheckRemote(img.remote_addr, len, img.rkey, kRemoteRead,
                                  &peer->remote_mr_cache);
        if (mc != MemCheck::kOk) {
          FailWr(wq, img, sim_.now() + ow, WcStatus::kRemoteAccessError);
          payloads_.Release(pl);
          return;
        }
        // Data is captured at the remote memory *now* (request arrival).
        if (len > 0) dma::ReadAppend(pl->bytes, img.remote_addr, len);
        const sim::Nanos t_req_now = sim_.now();
        sim::Nanos t_done;
        if (qp->via_fabric) {
          // The response DMA happens at the responder: its PCIe/memory are
          // what the transfer occupies, so N-client read scale-out contends
          // on the server's host interface, not each requester's own.
          const sim::Nanos pcie_done = rdev->pcie_.Reserve(t_req_now, len);
          const sim::Nanos mem_done = rdev->membw_.Reserve(t_req_now, len);
          const sim::Nanos ready = std::max(
              {t_req_now + ExecCost(Opcode::kRead) + rdev->HostDataDelay(len),
               pcie_done, mem_done});
          // The response payload rides the responder's TX link back through
          // the fabric, then pays the requester-side ack turnaround.
          t_done = FabricDeliver(peer, qp, ready, len) + cal_.remote_ack_extra;
        } else {
          sim::BandwidthResource* rlink =
              wire ? &rdev->ports_[peer->port].link : nullptr;
          const sim::Nanos link_done =
              wire ? rlink->Reserve(t_req_now, len) : t_req_now;
          const sim::Nanos pcie_done = pcie_.Reserve(t_req_now, len);
          const sim::Nanos mem_done = membw_.Reserve(t_req_now, len);
          t_done = std::max({t_req_now + ExecCost(Opcode::kRead) +
                                 DataDelay(len, rlink),
                             link_done, pcie_done, mem_done}) +
                   (wire ? ow + cal_.remote_ack_extra : 0);
        }
        sim_.At(t_done, [this, &wq, qp, pl] {
          if (!qp->alive) {
            payloads_.Release(pl);
            return;
          }
          WcStatus st = WcStatus::kSuccess;
          if (!ScatterList(wq, pl->slot, pl->img, pl->bytes.data(),
                           pl->bytes.size(), &st)) {
            FailWr(wq, pl->img, sim_.now(), st);
            payloads_.Release(pl);
            return;
          }
          CompleteWr(qp, qp->send_cq, pl->img, sim_.now(), WcStatus::kSuccess,
                     static_cast<std::uint32_t>(pl->bytes.size()));
          payloads_.Release(pl);
        });
      });
      return;
    }
    case Opcode::kCompSwap:
    case Opcode::kFetchAdd:
    case Opcode::kCalcMax:
    case Opcode::kCalcMin: {
      if (peer == nullptr || (!CrossShard(peer) && !peer->alive)) {
        FailWr(wq, img, t_issue, WcStatus::kRemoteAccessError);
        payloads_.Release(pl);
        return;
      }
      // If the peer dies before the RMW event runs, the completion below
      // must observe that the op never executed (rmw_done stays false) and
      // flush instead of reporting a success that touched nothing.
      pl->scratch = 0;
      pl->rmw_done = false;
      if (via_fabric && CrossShard(peer)) {
        AtomicAcrossFabric(wq, qp, peer, pl, op, t_issue, ow);
        return;
      }
      const sim::Nanos t_req = t_issue + ow;
      sim_.At(t_req, [this, &wq, qp, peer, pl, op, ow, wire] {
        const WqeImage& img = pl->img;
        if (!qp->alive) {  // requester died: flush silently
          payloads_.Release(pl);
          return;
        }
        if (!peer->alive) {
          FailWr(wq, img, sim_.now() + ow, WcStatus::kRemoteAccessError);
          payloads_.Release(pl);
          return;
        }
        RnicDevice* rdev = peer->device;
        const MemCheck mc = rdev->pd_.CheckRemote(
            img.remote_addr, 8, img.rkey, kRemoteAtomic, &peer->remote_mr_cache);
        if (mc != MemCheck::kOk) {
          FailWr(wq, img, sim_.now() + ow, WcStatus::kRemoteAccessError);
          payloads_.Release(pl);
          return;
        }
        if (img.remote_addr % 8 != 0) {
          FailWr(wq, img, sim_.now() + ow, WcStatus::kAlignmentError);
          payloads_.Release(pl);
          return;
        }
        // True atomics (CAS/ADD) serialize on the responder port's atomic
        // unit (PCIe concurrency control) — this is what limits CAS to
        // 8.4M/s. Vendor calc verbs (MAX/MIN) are not atomic RMWs on the
        // host bus and run at copy-verb rates (Table 3: MAX 63M/s).
        const bool true_atomic =
            op == Opcode::kCompSwap || op == Opcode::kFetchAdd;
        auto& unit = rdev->ports_[peer->port].atomic_unit;
        const sim::Nanos unit_done =
            true_atomic
                ? unit.Reserve(sim_.now(), rdev->cal_.atomic_unit_service)
                : sim_.now() + rdev->cal_.atomic_unit_service;
        // The RMW event below never releases `pl`; the completion event at
        // t_done >= unit_done (scheduled after it, so also later in FIFO
        // order at equal times) owns the release.
        sim_.At(unit_done, [pl, op, peer] {
          if (!peer->alive) return;  // died mid-flight: memory stays untouched
          pl->rmw_done = true;
          const WqeImage& img = pl->img;
          const std::uint64_t cur = dma::ReadU64(img.remote_addr);
          pl->scratch = cur;
          std::uint64_t next = cur;
          switch (op) {
            case Opcode::kCompSwap:
              if (cur == img.compare_add) next = img.swap;
              break;
            case Opcode::kFetchAdd:
              next = cur + img.compare_add;
              break;
            case Opcode::kCalcMax:
              next = std::max(cur, img.compare_add);
              break;
            case Opcode::kCalcMin:
              next = std::min(cur, img.compare_add);
              break;
            default:
              break;
          }
          dma::WriteU64(img.remote_addr, next);
          // The RedN conditional: atomics landing on WQE fields are the
          // canonical self-modification, so the write-through refresh here
          // is what keeps recycled chain rings hitting the cache.
          peer->device->NoteDmaWrite(img.remote_addr, 8);
        });
        const sim::Nanos t_done =
            unit_done + ExecCost(op) + (wire ? ow + cal_.remote_ack_extra : 0);
        sim_.At(t_done, [this, &wq, qp, pl] {
          if (!qp->alive) {
            payloads_.Release(pl);
            return;
          }
          if (!pl->rmw_done) {
            // The target died between the protection check and the RMW: the
            // op never executed, so a success completion would lie about
            // remote memory. NAK and flush instead.
            FailWr(wq, pl->img, sim_.now(), WcStatus::kRemoteAccessError);
            payloads_.Release(pl);
            return;
          }
          // Return the old value into the local sge, if one was given.
          if (pl->img.local_addr != 0) {
            WcStatus st = WcStatus::kSuccess;
            const std::byte* bytes =
                reinterpret_cast<const std::byte*>(&pl->scratch);
            WqeImage resp = pl->img;
            resp.length = 8;
            resp.flags &= ~kFlagSgeTable;
            if (!ScatterList(wq, pl->slot, resp, bytes, 8, &st)) {
              FailWr(wq, pl->img, sim_.now(), st);
              payloads_.Release(pl);
              return;
            }
          }
          CompleteWr(qp, qp->send_cq, pl->img, sim_.now(), WcStatus::kSuccess,
                     8);
          payloads_.Release(pl);
        });
      });
      return;
    }
    default:
      FailWr(wq, img, t_issue, WcStatus::kBadOpcode);
      payloads_.Release(pl);
      return;
  }
}

void RnicDevice::SendOverTransport(WorkQueue& wq, QueuePair* qp,
                                   QueuePair* peer, Payload* pl, Opcode op,
                                   sim::Nanos ready) {
  pl->st = WcStatus::kSuccess;
  pl->flushed = false;
  const std::uint64_t rg = qp->reset_gen;
  sim::Transport::MessageOps ops;
  // Ops that consume a RECV probe the responder's RQ before delivery: an
  // empty RQ (or an injected stall) answers RNR NAK and the transport
  // retries after backoff instead of completing with kRnrError. Only wired
  // when the transport's RNR engine is on — with rnr_retry_count == 0 the
  // probe is never consulted and AcceptSend keeps the legacy drop.
  if (op == Opcode::kSend || op == Opcode::kSendImm || op == Opcode::kWriteImm) {
    ops.rnr_probe = [this, peer](sim::Nanos) {
      if (!peer->alive) return true;  // let delivery surface the real error
      if (peer->stall_recvs > 0) {
        --peer->stall_recvs;
        ++peer->device->counters_.rnr_naks;
        return false;
      }
      if (peer->rq.consumed >= peer->rq.posted) {
        ++peer->device->counters_.rnr_naks;
        return false;
      }
      return true;
    };
  }
  if (CrossShard(peer)) {
    // Split-flow callback layout: on_deliver runs on the responder's shard
    // and may only touch responder-side state plus pl fields the requester
    // reads strictly later (pl->st — the ACK crossing orders it); every
    // requester-side outcome (wq.error check + latch, CQE, release) moves
    // to on_acked/on_failed on the requester's shard. One semantic shift vs
    // the same-shard path, cross-shard only: delivered bytes land in the
    // responder's memory even if the requester's WQ flushed mid-flight —
    // the responder cannot observe that, which is what a real NIC does too.
    ops.on_deliver =
        [peer, pl, op](sim::Nanos) {
          const std::uint64_t len = pl->bytes.size();
          WcStatus st = WcStatus::kSuccess;
          if (!peer->alive) {
            st = WcStatus::kRemoteAccessError;
          } else if (op == Opcode::kWrite || op == Opcode::kWriteImm) {
            st = peer->device->AcceptWrite(peer, pl->img.remote_addr,
                                           pl->img.rkey, pl->bytes.data(),
                                           len);
            if (st == WcStatus::kSuccess && op == Opcode::kWriteImm) {
              st = peer->device->AcceptSend(peer, nullptr, 0, pl->img.imm,
                                            /*has_imm=*/true, len);
            }
          } else {
            st = peer->device->AcceptSend(peer, pl->bytes.data(), len,
                                          pl->img.imm,
                                          /*has_imm=*/op == Opcode::kSendImm,
                                          len);
          }
          pl->st = st;
        };
    ops.on_acked =
        [this, &wq, qp, pl](sim::Nanos) {
          if (wq.error || !qp->alive) {
            payloads_.Release(pl);
            return;
          }
          if (pl->st != WcStatus::kSuccess && pl->st != WcStatus::kRnrError) {
            // Remote failure surfaces at the ACK (the NAK's arrival) on this
            // shard; later WRs of this QP flush from here on.
            wq.error = true;
            ++counters_.error_completions;
          }
          CompleteWr(qp, qp->send_cq, pl->img,
                     sim_.now() + cal_.remote_ack_extra, pl->st,
                     static_cast<std::uint32_t>(pl->bytes.size()));
          payloads_.Release(pl);
        };
    ops.on_failed =
        [this, qp, pl, rg](sim::Nanos t, sim::MsgFailure why) {
          if (!qp->alive || qp->state == QpState::kReset ||
              qp->reset_gen != rg) {
            payloads_.Release(pl);
            return;
          }
          FailQpOverTransport(qp, pl->img, t, StatusOf(why));
          payloads_.Release(pl);
        };
    qp->transport->SendMessageEx(qp->flow, ready, pl->bytes.size(),
                                 std::move(ops));
    return;
  }
  ops.on_deliver =
      [this, &wq, qp, peer, pl, op](sim::Nanos) {
        if (wq.error) {  // QP flushed after an earlier failure: no CQE
          pl->flushed = true;
          return;
        }
        const std::uint64_t len = pl->bytes.size();
        WcStatus st = WcStatus::kSuccess;
        if (!peer->alive) {
          st = WcStatus::kRemoteAccessError;
        } else if (op == Opcode::kWrite || op == Opcode::kWriteImm) {
          st = peer->device->AcceptWrite(peer, pl->img.remote_addr,
                                         pl->img.rkey, pl->bytes.data(), len);
          if (st == WcStatus::kSuccess && op == Opcode::kWriteImm) {
            st = peer->device->AcceptSend(peer, nullptr, 0, pl->img.imm,
                                          /*has_imm=*/true, len);
          }
        } else {
          st = peer->device->AcceptSend(peer, pl->bytes.data(), len,
                                        pl->img.imm,
                                        /*has_imm=*/op == Opcode::kSendImm,
                                        len);
        }
        if (!qp->alive) {
          pl->flushed = true;
          return;
        }
        if (st != WcStatus::kSuccess && st != WcStatus::kRnrError) {
          wq.error = true;
          ++counters_.error_completions;
        }
        pl->st = st;
      };
  ops.on_acked =
      [this, qp, pl](sim::Nanos) {
        if (pl->flushed || !qp->alive) {
          payloads_.Release(pl);
          return;
        }
        CompleteWr(qp, qp->send_cq, pl->img,
                   sim_.now() + cal_.remote_ack_extra, pl->st,
                   static_cast<std::uint32_t>(pl->bytes.size()));
        payloads_.Release(pl);
      };
  ops.on_failed =
      [this, qp, pl, rg](sim::Nanos t, sim::MsgFailure why) {
        // kReset: ModifyQp is tearing the flow down under us — a reset
        // discards in-flight work silently instead of erroring the QP it
        // just cleared. Same-foreign-domain split flows flush at the fence
        // echo, after the re-arm: the reset_gen mismatch covers them.
        if (pl->flushed || !qp->alive || qp->state == QpState::kReset ||
            qp->reset_gen != rg) {
          payloads_.Release(pl);
          return;
        }
        FailQpOverTransport(qp, pl->img, t, StatusOf(why));
        payloads_.Release(pl);
      };
  qp->transport->SendMessageEx(qp->flow, ready, pl->bytes.size(),
                               std::move(ops));
}

void RnicDevice::ReadOverTransport(WorkQueue& wq, QueuePair* qp,
                                   QueuePair* peer, Payload* pl,
                                   sim::Nanos t_issue, sim::Nanos ow) {
  if (CrossShard(peer)) {
    ReadOverTransportSplit(wq, qp, peer, pl, t_issue, ow);
    return;
  }
  // Protection and dead-peer NAKs return as constant-latency control
  // messages (`ow`): they are tiny, generated unconditionally by the
  // responder, and the requester must never hang on them — so they bypass
  // the loss injector, while the request and the data-bearing response ride
  // the lossy packetized flows.
  const std::uint64_t rg = qp->reset_gen;
  sim::Transport::MessageOps req;
  req.on_deliver =
      [this, &wq, qp, peer, pl, ow, rg](sim::Nanos) {
        if (!qp->alive) {  // requester died: flush silently
          payloads_.Release(pl);
          return;
        }
        const std::uint64_t prg = peer->reset_gen;
        if (!peer->alive) {
          // Target died before the (possibly retransmitted) request landed:
          // NAK instead of silently dropping — the requester must not hang
          // even when the loss injector ate the original transmission.
          FailWr(wq, pl->img, sim_.now() + ow, WcStatus::kRemoteAccessError);
          payloads_.Release(pl);
          return;
        }
        RnicDevice* rdev = peer->device;
        const WqeImage& img = pl->img;
        std::uint64_t len = img.length;
        if (img.uses_sge_table()) {
          SgeScratch sges;
          ResolveSges(img, sges);
          len = 0;
          for (const Sge& sge : sges) len += sge.length;
        }
        const MemCheck mc =
            rdev->pd_.CheckRemote(img.remote_addr, len, img.rkey, kRemoteRead,
                                  &peer->remote_mr_cache);
        if (mc != MemCheck::kOk) {
          FailWr(wq, img, sim_.now() + ow, WcStatus::kRemoteAccessError);
          payloads_.Release(pl);
          return;
        }
        // Data captured at the remote memory now (request delivery).
        if (len > 0) dma::ReadAppend(pl->bytes, img.remote_addr, len);
        const sim::Nanos now = sim_.now();
        const sim::Nanos pcie_done = rdev->pcie_.Reserve(now, len);
        const sim::Nanos mem_done = rdev->membw_.Reserve(now, len);
        const sim::Nanos ready = std::max(
            {now + ExecCost(Opcode::kRead) + rdev->HostDataDelay(len),
             pcie_done, mem_done});
        // The response payload rides the responder's flow back; READs
        // complete at in-order data delivery (no extra ack leg).
        sim::Transport::MessageOps resp;
        resp.on_deliver =
            [this, &wq, qp, pl](sim::Nanos) {
              if (!qp->alive) {
                payloads_.Release(pl);
                return;
              }
              WcStatus st = WcStatus::kSuccess;
              if (!ScatterList(wq, pl->slot, pl->img, pl->bytes.data(),
                               pl->bytes.size(), &st)) {
                FailWr(wq, pl->img, sim_.now(), st);
                payloads_.Release(pl);
                return;
              }
              CompleteWr(qp, qp->send_cq, pl->img,
                         sim_.now() + cal_.remote_ack_extra,
                         WcStatus::kSuccess,
                         static_cast<std::uint32_t>(pl->bytes.size()));
              payloads_.Release(pl);
            };
        resp.on_failed =
            [this, qp, peer, pl, rg, prg](sim::Nanos t, sim::MsgFailure why) {
              // The responder's flow died under the response: the READ must
              // still resolve on the requester CQ, and both ends of the
              // connection are now broken — except a responder mid-reset,
              // whose flow is being re-armed (not dying) and must stay
              // clear of the error latches the reset just dropped.
              if (peer->alive && peer->state != QpState::kReset &&
                  peer->reset_gen == prg) {
                peer->device->TransitionToError(peer);
              }
              if (!qp->alive || qp->state == QpState::kReset ||
                  qp->reset_gen != rg) {
                payloads_.Release(pl);
                return;
              }
              FailQpOverTransport(qp, pl->img, t, StatusOf(why));
              payloads_.Release(pl);
            };
        peer->transport->SendMessageEx(peer->flow, ready, len,
                                       std::move(resp));
      };
  req.on_failed =
      [this, qp, pl, rg](sim::Nanos t, sim::MsgFailure why) {
        // A lost READ request exhausting its retries surfaces on the
        // requester CQ instead of waiting forever on the response flow. A
        // requester mid-reset flushes silently (see SendOverTransport).
        if (!qp->alive || qp->state == QpState::kReset ||
            qp->reset_gen != rg) {
          payloads_.Release(pl);
          return;
        }
        FailQpOverTransport(qp, pl->img, t, StatusOf(why));
        payloads_.Release(pl);
      };
  qp->transport->SendMessageEx(qp->flow, t_issue, kReadRequestBytes,
                               std::move(req));
}

namespace {
// Cross-shard READ bundle. The requester's Payload stays owned by the
// request leg (released at its ACK or failure, always on the requester's
// shard); everything the other legs need rides here instead. `bytes` is
// written by the responder before the response send and read by the
// requester at response delivery — the mailbox crossing orders the two.
// `resolved` collapses the racing resolution paths (response delivery, NAK
// hop, response-flow failure hop, request-flow failure) to exactly one CQE;
// it is only ever touched on the requester's shard.
struct ReadCtx {
  WqeImage img{};
  std::uint64_t slot = 0;
  std::uint64_t len = 0;
  std::vector<std::byte> bytes;
  bool resolved = false;
};
}  // namespace

void RnicDevice::ReadOverTransportSplit(WorkQueue& wq, QueuePair* qp,
                                        QueuePair* peer, Payload* pl,
                                        sim::Nanos t_issue, sim::Nanos ow) {
  auto ctx = std::make_shared<ReadCtx>();
  ctx->img = pl->img;
  ctx->slot = pl->slot;
  // Resolve the SGE table at issue, on the requester's shard: the table
  // lives in requester memory, and reading it from the responder's shard
  // (where the same-shard path resolves it, at request arrival) would race
  // with requester-side chain rewrites.
  ctx->len = ctx->img.length;
  if (ctx->img.uses_sge_table()) {
    SgeScratch sges;
    ResolveSges(ctx->img, sges);
    ctx->len = 0;
    for (const Sge& sge : sges) ctx->len += sge.length;
  }
  const std::uint64_t rg = qp->reset_gen;
  const int req_shard = sim_.shard();
  sim::Transport::MessageOps req;
  req.on_deliver =
      [this, &wq, qp, peer, ctx, ow, rg, req_shard](sim::Nanos) {
        // Runs on the responder's shard: liveness, protection, DMA capture,
        // and the response send are all local; requester-side outcomes hop
        // back through the mailbox (ow is exactly the pair's registered
        // lookahead floor, so now + ow is always a legal crossing).
        RnicDevice* rdev = peer->device;
        sim::Simulator& dsim = rdev->sim_;
        const sim::Nanos dnow = dsim.now();
        if (!peer->alive) {
          // NAK: constant-latency control message (see the same-shard path).
          dsim.SendTo(req_shard, dnow + ow, [this, &wq, qp, ctx] {
            if (ctx->resolved || !qp->alive) return;
            ctx->resolved = true;
            FailWr(wq, ctx->img, sim_.now(), WcStatus::kRemoteAccessError);
          });
          return;
        }
        const std::uint64_t prg = peer->reset_gen;
        const WqeImage& img = ctx->img;
        const std::uint64_t len = ctx->len;
        const MemCheck mc =
            rdev->pd_.CheckRemote(img.remote_addr, len, img.rkey, kRemoteRead,
                                  &peer->remote_mr_cache);
        if (mc != MemCheck::kOk) {
          dsim.SendTo(req_shard, dnow + ow, [this, &wq, qp, ctx] {
            if (ctx->resolved || !qp->alive) return;
            ctx->resolved = true;
            FailWr(wq, ctx->img, sim_.now(), WcStatus::kRemoteAccessError);
          });
          return;
        }
        // Data captured at the remote memory now (request delivery).
        if (len > 0) dma::ReadAppend(ctx->bytes, img.remote_addr, len);
        const sim::Nanos pcie_done = rdev->pcie_.Reserve(dnow, len);
        const sim::Nanos mem_done = rdev->membw_.Reserve(dnow, len);
        const sim::Nanos ready = std::max(
            {dnow + ExecCost(Opcode::kRead) + rdev->HostDataDelay(len),
             pcie_done, mem_done});
        sim::Transport::MessageOps resp;
        resp.on_deliver =
            [this, &wq, qp, ctx](sim::Nanos) {
              // Back on the requester's shard.
              if (ctx->resolved || !qp->alive) return;
              ctx->resolved = true;
              WcStatus st = WcStatus::kSuccess;
              if (!ScatterList(wq, ctx->slot, ctx->img, ctx->bytes.data(),
                               ctx->bytes.size(), &st)) {
                FailWr(wq, ctx->img, sim_.now(), st);
                return;
              }
              CompleteWr(qp, qp->send_cq, ctx->img,
                         sim_.now() + cal_.remote_ack_extra,
                         WcStatus::kSuccess,
                         static_cast<std::uint32_t>(ctx->bytes.size()));
            };
        resp.on_failed =
            [this, qp, peer, ctx, ow, rg, prg, req_shard](
                sim::Nanos t, sim::MsgFailure why) {
              // Fires on the responder's shard (sender half of the response
              // flow): error the responder locally, hop the requester CQE.
              if (peer->alive && peer->state != QpState::kReset &&
                  peer->reset_gen == prg) {
                peer->device->TransitionToError(peer);
              }
              peer->device->sim_.SendTo(
                  req_shard, t + ow, [this, qp, ctx, why, rg] {
                    if (ctx->resolved || !qp->alive ||
                        qp->state == QpState::kReset || qp->reset_gen != rg) {
                      return;
                    }
                    ctx->resolved = true;
                    FailQpOverTransport(qp, ctx->img, sim_.now(),
                                        StatusOf(why));
                  });
            };
        peer->transport->SendMessageEx(peer->flow, ready, len,
                                       std::move(resp));
      };
  req.on_acked =
      [this, pl](sim::Nanos) { payloads_.Release(pl); };
  req.on_failed =
      [this, qp, pl, ctx, rg](sim::Nanos t, sim::MsgFailure why) {
        payloads_.Release(pl);
        if (ctx->resolved || !qp->alive || qp->state == QpState::kReset ||
            qp->reset_gen != rg) {
          return;
        }
        ctx->resolved = true;
        FailQpOverTransport(qp, ctx->img, t, StatusOf(why));
      };
  qp->transport->SendMessageEx(qp->flow, t_issue, kReadRequestBytes,
                               std::move(req));
}

WcStatus RnicDevice::AcceptWrite(QueuePair* dst_qp, std::uint64_t addr,
                                 std::uint32_t rkey, const std::byte* data,
                                 std::size_t len) {
  // Defence in depth: callers check liveness at arrival time, but no path
  // may ever land bytes in a dead process's memory (its pages are being
  // reclaimed — see KillProcessResources).
  if (!dst_qp->alive) return WcStatus::kRemoteAccessError;
  const MemCheck mc = pd_.CheckRemote(addr, len, rkey, kRemoteWrite,
                                      &dst_qp->remote_mr_cache);
  if (mc != MemCheck::kOk) return WcStatus::kRemoteAccessError;
  if (len > 0) {
    dma::Write(addr, data, len);
    NoteDmaWrite(addr, len);
  }
  return WcStatus::kSuccess;
}

WcStatus RnicDevice::AcceptSend(QueuePair* dst_qp, const std::byte* data,
                                std::size_t len, std::uint32_t imm,
                                bool has_imm, std::size_t reported_len) {
  if (!dst_qp->alive) return WcStatus::kRemoteAccessError;
  WorkQueue& rq = dst_qp->rq;
  if (rq.consumed >= rq.posted) {
    ++counters_.rnr_drops;
    return WcStatus::kRnrError;
  }
  const std::uint64_t ridx = rq.consumed++;
  // RQ WQEs are read at consumption time: current memory contents.
  const WqeImage rimg = rq.Slot(ridx).Load();
  WcStatus st = WcStatus::kSuccess;
  int sges_written = 0;
  if (data != nullptr && len > 0) {
    if (!ScatterList(rq, ridx, rimg, data, len, &st)) {
      // fallthrough: deliver an error CQE for the RECV
    } else {
      sges_written = rimg.uses_sge_table() ? static_cast<int>(rimg.length) : 1;
    }
  }
  Cqe cqe;
  cqe.qp_id = dst_qp->id;
  cqe.wr_id = rimg.wr_id();
  cqe.opcode = Opcode::kRecv;
  cqe.status = st;
  cqe.byte_len = static_cast<std::uint32_t>(reported_len);
  cqe.imm = imm;
  cqe.has_imm = has_imm;
  const sim::Nanos t_hw = sim_.now() + cal_.recv_processing +
                          sges_written * cal_.recv_scatter_per_sge +
                          cal_.cq_internal;
  DeliverCqe(dst_qp->recv_cq, cqe, t_hw);
  return st;
}

void RnicDevice::CompleteWr(QueuePair* qp, CompletionQueue* cq,
                            const WqeImage& img, sim::Nanos t_done,
                            WcStatus status, std::uint32_t byte_len,
                            bool force_cqe, sim::Nanos host_extra) {
  if (status == WcStatus::kSuccess && !img.signaled() && !force_cqe) {
    // Unsignaled: no CQE, and — critically for RedN's `break` — no bump of
    // the CQ count that WAIT verbs observe.
    return;
  }
  Cqe cqe;
  cqe.qp_id = qp->id;
  cqe.wr_id = img.wr_id();
  cqe.opcode = img.opcode();
  cqe.status = status;
  cqe.byte_len = byte_len;
  DeliverCqe(cq, cqe, t_done + cal_.cq_internal, host_extra);
}

void RnicDevice::DeliverCqe(CompletionQueue* cq, const Cqe& cqe,
                            sim::Nanos t_hw, sim::Nanos host_extra) {
  // One event per CQE: the 32-byte Cqe is captured by value together with
  // the precomputed host-visibility instant. Both timestamps are knowable
  // here (`At` clamps past times to now, so clamp the same way first).
  if (t_hw < sim_.now()) t_hw = sim_.now();
  Cqe stamped = cqe;
  stamped.completed_at = t_hw;
  sim_.At(t_hw, CqeDeliver{this, cq, t_hw + cal_.completion_write + host_extra,
                           stamped});
}

void RnicDevice::CqeDeliver::operator()() const {
  RnicDevice* d = dev;
  ++d->counters_.cqes;
  // NIC-internal count first: WAIT verbs see completions before the host.
  const std::vector<WorkQueue*>& ready = cq->BumpHwCount();
  if (!ready.empty()) d->ScheduleResumes(ready);
  cq->PushHostEntry(visible_at, cqe);
  // Host visibility needs no event of its own: the noted horizon lets a
  // drained run (and the poll helpers) advance time to `visible_at`. Only
  // an armed notify hook — an event-driven actor — warrants a wake-up.
  d->sim_.NoteHorizon(visible_at);
  if (cq->host_notify()) {
    d->sim_.At(visible_at, [cq = cq] {
      if (cq->host_notify()) cq->host_notify()();
    });
  }
}

void RnicDevice::ScheduleResumes(const std::vector<WorkQueue*>& ready) {
  for (WorkQueue* wq : ready) wq->waiting = false;
  if (ready.size() == 1) {
    WorkQueue* wq = ready.front();
    sim_.After(cal_.wait_resume, [this, wq] { Advance(*wq); });
    return;
  }
  // Same-instant fan-out wake: all waiters resume at the same time and
  // would otherwise each pay an event. Batch them into one; the waiters
  // advance in wake (FIFO) order, exactly as consecutive per-waiter events
  // would have.
  ResumeBatch* batch = resume_batches_.Acquire();
  batch->wqs.assign(ready.begin(), ready.end());
  sim_.After(cal_.wait_resume, [this, batch] {
    for (WorkQueue* wq : batch->wqs) Advance(*wq);
    resume_batches_.Release(batch);
  });
}

void RnicDevice::FailWr(WorkQueue& wq, const WqeImage& img, sim::Nanos t,
                        WcStatus status) {
  ++counters_.error_completions;
  wq.error = true;
  wq.busy = false;
  Cqe cqe;
  cqe.qp_id = wq.qp()->id;
  cqe.wr_id = img.wr_id();
  cqe.opcode = img.opcode();
  cqe.status = status;
  DeliverCqe(wq.cq(), cqe, t + cal_.cq_internal);
}

WcStatus RnicDevice::StatusOf(sim::MsgFailure why) {
  switch (why) {
    case sim::MsgFailure::kRetryExceeded: return WcStatus::kRetryExcError;
    case sim::MsgFailure::kRnrRetryExceeded: return WcStatus::kRnrRetryExcError;
    case sim::MsgFailure::kFlushed: return WcStatus::kWrFlushError;
  }
  return WcStatus::kWrFlushError;
}

void RnicDevice::FailQpOverTransport(QueuePair* qp, const WqeImage& img,
                                     sim::Nanos t, WcStatus status) {
  ++counters_.error_completions;
  if (status == WcStatus::kWrFlushError) ++counters_.wrs_flushed;
  Cqe cqe;
  cqe.qp_id = qp->id;
  cqe.wr_id = img.wr_id();
  cqe.opcode = img.opcode();
  cqe.status = status;
  DeliverCqe(qp->send_cq, cqe, t + cal_.cq_internal);
  TransitionToError(qp);
}

void RnicDevice::TransitionToError(QueuePair* qp) {
  if (qp->state == QpState::kError) return;
  qp->state = QpState::kError;
  ++counters_.qp_errors;
  qp->sq.error = true;
  qp->sq.busy = false;
  qp->rq.error = true;
  // Flush one same-instant event later: a flow failure fans out on_failed
  // over every in-flight WR first, and their error CQEs should precede the
  // flush CQEs of WRs that never executed.
  sim_.At(sim_.now(), [this, qp] { FlushQueued(qp); });
}

void RnicDevice::FlushQueued(QueuePair* qp) {
  if (qp->state != QpState::kError) return;  // re-armed before the flush ran
  const sim::Nanos t = sim_.now() + cal_.cq_internal;
  for (std::uint64_t idx = qp->sq.next_exec; idx < qp->sq.posted; ++idx) {
    const WqeImage img = qp->sq.Slot(idx).Load();
    ++counters_.error_completions;
    ++counters_.wrs_flushed;
    Cqe cqe;
    cqe.qp_id = qp->id;
    cqe.wr_id = img.wr_id();
    cqe.opcode = img.opcode();
    cqe.status = WcStatus::kWrFlushError;
    DeliverCqe(qp->send_cq, cqe, t);
  }
  qp->sq.next_exec = qp->sq.posted;
  qp->sq.fetch_horizon = std::max(qp->sq.fetch_horizon, qp->sq.posted);
  for (std::uint64_t idx = qp->rq.consumed; idx < qp->rq.posted; ++idx) {
    const WqeImage img = qp->rq.Slot(idx).Load();
    ++counters_.error_completions;
    ++counters_.wrs_flushed;
    Cqe cqe;
    cqe.qp_id = qp->id;
    cqe.wr_id = img.wr_id();
    cqe.opcode = Opcode::kRecv;
    cqe.status = WcStatus::kWrFlushError;
    DeliverCqe(qp->recv_cq, cqe, t);
  }
  qp->rq.consumed = qp->rq.posted;
}

void RnicDevice::ModifyQp(QueuePair* qp, QpState next) {
  switch (next) {
    case QpState::kReset: {
      const bool rearming = qp->state == QpState::kError;
      qp->state = QpState::kReset;
      ++qp->reset_gen;
      // Drop the backlog (anything worth completing was flushed on the way
      // to ERROR; a reset from a healthy state discards silently, like
      // ibv_modify_qp →RESET). Progress counters stay monotonic.
      qp->sq.error = false;
      qp->sq.busy = false;
      qp->sq.waiting = false;
      qp->sq.next_exec = qp->sq.posted;
      qp->sq.fetch_horizon = std::max(qp->sq.fetch_horizon, qp->sq.posted);
      qp->rq.error = false;
      qp->rq.busy = false;
      qp->rq.consumed = qp->rq.posted;
      qp->stall_recvs = 0;
      if (qp->transport != nullptr && qp->flow >= 0) {
        qp->transport->ResetFlow(qp->flow);
      }
      if (rearming) ++counters_.qp_rearms;
      break;
    }
    case QpState::kInit:
    case QpState::kRtr:
    case QpState::kRts:
      qp->state = next;
      break;
    case QpState::kError:
      TransitionToError(qp);
      break;
  }
}

sim::Nanos RnicDevice::PuService(Opcode op) const {
  switch (op) {
    case Opcode::kNoop: return cal_.pu_noop;
    case Opcode::kWrite:
    case Opcode::kWriteImm: return cal_.pu_write;
    case Opcode::kRead: return cal_.pu_read;
    case Opcode::kSend:
    case Opcode::kSendImm: return cal_.pu_send;
    case Opcode::kCompSwap:
    case Opcode::kFetchAdd: return cal_.pu_atomic;
    case Opcode::kCalcMax:
    case Opcode::kCalcMin: return cal_.pu_calc;
    case Opcode::kWait: return cal_.pu_wait;
    case Opcode::kEnable: return cal_.pu_enable;
    default: return cal_.pu_noop;
  }
}

sim::Nanos RnicDevice::ExecExtra(Opcode op) const {
  switch (op) {
    case Opcode::kNoop: return cal_.exec_noop;
    case Opcode::kWrite:
    case Opcode::kWriteImm: return cal_.exec_write;
    case Opcode::kSend:
    case Opcode::kSendImm: return cal_.exec_send;
    case Opcode::kRead: return cal_.exec_read;
    case Opcode::kCompSwap: return cal_.exec_cas;
    case Opcode::kFetchAdd: return cal_.exec_add;
    case Opcode::kCalcMax:
    case Opcode::kCalcMin: return cal_.exec_calc;
    default: return 0;
  }
}

sim::Nanos RnicDevice::ExecCost(Opcode op) {
  const sim::Nanos base = ExecExtra(op);
  if (cal_.jitter_frac <= 0.0) return base;
  const double f = 1.0 + cal_.jitter_frac * (2.0 * jitter_rng_.NextDouble() - 1.0);
  return static_cast<sim::Nanos>(static_cast<double>(base) * f);
}

sim::Nanos RnicDevice::DataDelay(std::uint64_t bytes,
                                 const sim::BandwidthResource* wire_link) const {
  if (bytes == 0) return 0;
  sim::Nanos d = pcie_.SerializationDelay(bytes) + membw_.SerializationDelay(bytes);
  if (wire_link != nullptr) {
    d += wire_link->SerializationDelay(bytes);
  } else {
    d += pcie_.SerializationDelay(bytes);  // loopback crosses PCIe twice
  }
  return d;
}

sim::Nanos RnicDevice::HostDataDelay(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  return pcie_.SerializationDelay(bytes) + membw_.SerializationDelay(bytes);
}

sim::Nanos RnicDevice::FabricOneWay(const QueuePair* from,
                                    const QueuePair* to) {
  const FabricAttach& s = from->device->fabric_ports_[from->port];
  const FabricAttach& d = to->device->fabric_ports_[to->port];
  return s.fabric->OneWay(s.endpoint, d.endpoint);
}

sim::Nanos RnicDevice::FabricDeliver(const QueuePair* from, const QueuePair* to,
                                     sim::Nanos t, std::uint64_t bytes) {
  const FabricAttach& s = from->device->fabric_ports_[from->port];
  const FabricAttach& d = to->device->fabric_ports_[to->port];
  return s.fabric->Deliver(s.endpoint, d.endpoint, t, bytes);
}

// ---------------------------------------------------------------------------
// Cross-shard fabric data paths (see device.h and docs/PARSIM.md).
//
// Timing is the same formula as the same-shard paths with Fabric::Deliver
// split at the shard boundary: the requester reserves TX at `ready`, the
// responder reserves RX at port arrival (TX-done + one-way propagation).
// The only semantic shifts, both confined to fault scenarios: requester-
// side abort checks (wq.error, qp->alive) run at the ACK instant instead
// of at arrival (the requester cannot read them from the responder's
// thread), and ExecCost jitter for READ/atomic responses draws from the
// responder's per-device stream (jitter is off by default, so the default
// timing is identical).
// ---------------------------------------------------------------------------

void RnicDevice::SendAcrossFabric(WorkQueue& wq, QueuePair* qp, QueuePair* peer,
                                  Payload* pl, Opcode op, sim::Nanos ready) {
  const FabricAttach& s = fabric_ports_[qp->port];
  const FabricAttach& d = peer->device->fabric_ports_[peer->port];
  sim::Fabric* fab = s.fabric;
  const std::uint64_t len = pl->bytes.size();
  const sim::Nanos ow = fab->OneWay(s.endpoint, d.endpoint);
  const sim::Nanos t_port = fab->ReserveTx(s.endpoint, ready, len) + ow;
  RnicDevice* rdev = peer->device;
  const int src_shard = sim_.shard();
  sim_.SendTo(
      rdev->sim_.shard(), t_port,
      [this, &wq, qp, peer, pl, fab, dep = d.endpoint, src_shard] {
        RnicDevice* rdev = peer->device;
        sim::Simulator& dsim = rdev->sim_;
        const std::uint64_t len = pl->bytes.size();
        const sim::Nanos t_arrive = fab->ReserveRx(dep, dsim.now(), len);
        dsim.At(t_arrive, [this, &wq, qp, peer, pl, src_shard] {
          RnicDevice* rdev = peer->device;
          const Opcode op = pl->img.opcode();
          const std::uint64_t len = pl->bytes.size();
          WcStatus st = WcStatus::kSuccess;
          if (!peer->alive) {
            st = WcStatus::kRemoteAccessError;
          } else if (op == Opcode::kWrite || op == Opcode::kWriteImm) {
            st = rdev->AcceptWrite(peer, pl->img.remote_addr, pl->img.rkey,
                                   pl->bytes.data(), len);
            if (st == WcStatus::kSuccess && op == Opcode::kWriteImm) {
              st = rdev->AcceptSend(peer, nullptr, 0, pl->img.imm,
                                    /*has_imm=*/true, len);
            }
          } else {
            st = rdev->AcceptSend(peer, pl->bytes.data(), len, pl->img.imm,
                                  /*has_imm=*/op == Opcode::kSendImm, len);
          }
          const sim::Nanos t_ack = rdev->sim_.now() + FabricOneWay(peer, qp) +
                                   cal_.remote_ack_extra;
          rdev->sim_.SendTo(src_shard, t_ack, [this, &wq, qp, pl, st] {
            if (wq.error || !qp->alive) {  // flushed / requester died
              payloads_.Release(pl);
              return;
            }
            if (st != WcStatus::kSuccess && st != WcStatus::kRnrError) {
              wq.error = true;
              ++counters_.error_completions;
            }
            CompleteWr(qp, qp->send_cq, pl->img, sim_.now(), st,
                       static_cast<std::uint32_t>(pl->bytes.size()));
            payloads_.Release(pl);
          });
        });
      });
}

void RnicDevice::ReadAcrossFabric(WorkQueue& wq, QueuePair* qp, QueuePair* peer,
                                  Payload* pl, sim::Nanos t_issue,
                                  sim::Nanos ow) {
  // The SGE-table byte count resolves here, at issue on the requester's
  // shard — the table lives in requester host memory, which the responder
  // must never read across the boundary.
  const WqeImage& img = pl->img;
  std::uint64_t len = img.length;
  if (img.uses_sge_table()) {
    SgeScratch sges;
    ResolveSges(img, sges);
    len = 0;
    for (const Sge& sge : sges) len += sge.length;
  }
  RnicDevice* rdev = peer->device;
  const int src_shard = sim_.shard();
  sim_.SendTo(
      rdev->sim_.shard(), t_issue + ow,
      [this, &wq, qp, peer, pl, ow, len, src_shard] {
        RnicDevice* rdev = peer->device;
        sim::Simulator& dsim = rdev->sim_;
        const WqeImage& img = pl->img;
        const auto nak = [&](WcStatus st) {
          dsim.SendTo(src_shard, dsim.now() + ow, [this, &wq, qp, pl, st] {
            if (!qp->alive) {  // requester died: flush silently
              payloads_.Release(pl);
              return;
            }
            FailWr(wq, pl->img, sim_.now(), st);
            payloads_.Release(pl);
          });
        };
        if (!peer->alive) {
          nak(WcStatus::kRemoteAccessError);
          return;
        }
        const MemCheck mc = rdev->pd_.CheckRemote(
            img.remote_addr, len, img.rkey, kRemoteRead,
            &peer->remote_mr_cache);
        if (mc != MemCheck::kOk) {
          nak(WcStatus::kRemoteAccessError);
          return;
        }
        if (len > 0) dma::ReadAppend(pl->bytes, img.remote_addr, len);
        const sim::Nanos t_req_now = dsim.now();
        const sim::Nanos pcie_done = rdev->pcie_.Reserve(t_req_now, len);
        const sim::Nanos mem_done = rdev->membw_.Reserve(t_req_now, len);
        const sim::Nanos ready =
            std::max({t_req_now + rdev->ExecCost(Opcode::kRead) +
                          rdev->HostDataDelay(len),
                      pcie_done, mem_done});
        const FabricAttach& rs = rdev->fabric_ports_[peer->port];
        const FabricAttach& rd = fabric_ports_[qp->port];
        sim::Fabric* fab = rs.fabric;
        const sim::Nanos t_port = fab->ReserveTx(rs.endpoint, ready, len) + ow;
        dsim.SendTo(src_shard, t_port,
                    [this, &wq, qp, pl, fab, dep = rd.endpoint] {
                      const std::uint64_t rlen = pl->bytes.size();
                      const sim::Nanos t_done =
                          fab->ReserveRx(dep, sim_.now(), rlen) +
                          cal_.remote_ack_extra;
                      sim_.At(t_done, [this, &wq, qp, pl] {
                        if (!qp->alive) {
                          payloads_.Release(pl);
                          return;
                        }
                        WcStatus st = WcStatus::kSuccess;
                        if (!ScatterList(wq, pl->slot, pl->img,
                                         pl->bytes.data(), pl->bytes.size(),
                                         &st)) {
                          FailWr(wq, pl->img, sim_.now(), st);
                          payloads_.Release(pl);
                          return;
                        }
                        CompleteWr(qp, qp->send_cq, pl->img, sim_.now(),
                                   WcStatus::kSuccess,
                                   static_cast<std::uint32_t>(pl->bytes.size()));
                        payloads_.Release(pl);
                      });
                    });
      });
}

void RnicDevice::AtomicAcrossFabric(WorkQueue& wq, QueuePair* qp,
                                    QueuePair* peer, Payload* pl, Opcode op,
                                    sim::Nanos t_issue, sim::Nanos ow) {
  RnicDevice* rdev = peer->device;
  const int src_shard = sim_.shard();
  sim_.SendTo(
      rdev->sim_.shard(), t_issue + ow,
      [this, &wq, qp, peer, pl, op, ow, src_shard] {
        RnicDevice* rdev = peer->device;
        sim::Simulator& dsim = rdev->sim_;
        const WqeImage& img = pl->img;
        const auto nak = [&](WcStatus st) {
          dsim.SendTo(src_shard, dsim.now() + ow, [this, &wq, qp, pl, st] {
            if (!qp->alive) {
              payloads_.Release(pl);
              return;
            }
            FailWr(wq, pl->img, sim_.now(), st);
            payloads_.Release(pl);
          });
        };
        if (!peer->alive) {
          nak(WcStatus::kRemoteAccessError);
          return;
        }
        const MemCheck mc =
            rdev->pd_.CheckRemote(img.remote_addr, 8, img.rkey, kRemoteAtomic,
                                  &peer->remote_mr_cache);
        if (mc != MemCheck::kOk) {
          nak(WcStatus::kRemoteAccessError);
          return;
        }
        if (img.remote_addr % 8 != 0) {
          nak(WcStatus::kAlignmentError);
          return;
        }
        const bool true_atomic =
            op == Opcode::kCompSwap || op == Opcode::kFetchAdd;
        auto& unit = rdev->ports_[peer->port].atomic_unit;
        const sim::Nanos unit_done =
            true_atomic
                ? unit.Reserve(dsim.now(), rdev->cal_.atomic_unit_service)
                : dsim.now() + rdev->cal_.atomic_unit_service;
        // Same RMW body as the same-shard path; runs on the responder's
        // shard, which owns the target memory. The completion message below
        // is due >= unit_done + lookahead, i.e. in a strictly later round,
        // so the requester reads rmw_done/scratch after a barrier.
        dsim.At(unit_done, [pl, op, peer] {
          if (!peer->alive) return;  // died mid-flight: memory stays untouched
          pl->rmw_done = true;
          const WqeImage& img = pl->img;
          const std::uint64_t cur = dma::ReadU64(img.remote_addr);
          pl->scratch = cur;
          std::uint64_t next = cur;
          switch (op) {
            case Opcode::kCompSwap:
              if (cur == img.compare_add) next = img.swap;
              break;
            case Opcode::kFetchAdd:
              next = cur + img.compare_add;
              break;
            case Opcode::kCalcMax:
              next = std::max(cur, img.compare_add);
              break;
            case Opcode::kCalcMin:
              next = std::min(cur, img.compare_add);
              break;
            default:
              break;
          }
          dma::WriteU64(img.remote_addr, next);
          peer->device->NoteDmaWrite(img.remote_addr, 8);
        });
        const sim::Nanos t_done =
            unit_done + rdev->ExecCost(op) + ow + cal_.remote_ack_extra;
        dsim.SendTo(src_shard, t_done, [this, &wq, qp, pl] {
          if (!qp->alive) {
            payloads_.Release(pl);
            return;
          }
          if (!pl->rmw_done) {
            FailWr(wq, pl->img, sim_.now(), WcStatus::kRemoteAccessError);
            payloads_.Release(pl);
            return;
          }
          if (pl->img.local_addr != 0) {
            WcStatus st = WcStatus::kSuccess;
            const std::byte* bytes =
                reinterpret_cast<const std::byte*>(&pl->scratch);
            WqeImage resp = pl->img;
            resp.length = 8;
            resp.flags &= ~kFlagSgeTable;
            if (!ScatterList(wq, pl->slot, resp, bytes, 8, &st)) {
              FailWr(wq, pl->img, sim_.now(), st);
              payloads_.Release(pl);
              return;
            }
          }
          CompleteWr(qp, qp->send_cq, pl->img, sim_.now(), WcStatus::kSuccess,
                     8);
          payloads_.Release(pl);
        });
      });
}

double RnicDevice::PuUtilisation(int port, sim::Nanos window) const {
  sim::Nanos busy = 0;
  for (const auto& pu : ports_[port].pus) busy += pu.busy_time();
  return static_cast<double>(busy) /
         (static_cast<double>(window) * ports_[port].pus.size());
}

double RnicDevice::FetchUnitUtilisation(int port, sim::Nanos window) const {
  return static_cast<double>(ports_[port].fetch_unit.busy_time()) /
         static_cast<double>(window);
}

double RnicDevice::LinkUtilisation(int port, sim::Nanos window) const {
  return static_cast<double>(ports_[port].link.busy_time()) /
         static_cast<double>(window);
}

double RnicDevice::PcieUtilisation(sim::Nanos window) const {
  return static_cast<double>(pcie_.busy_time()) / static_cast<double>(window);
}

const char* RnicDevice::BusiestResource(sim::Nanos window) const {
  double best = 0.0;
  const char* who = "idle";
  for (int p = 0; p < cfg_.ports; ++p) {
    const double pu = PuUtilisation(p, window);
    if (pu > best) {
      best = pu;
      who = "NIC PU";
    }
    const double fetch = FetchUnitUtilisation(p, window);
    if (fetch > best) {
      best = fetch;
      who = "NIC PU";  // managed fetch is NIC processing (paper's term)
    }
    const double link = LinkUtilisation(p, window);
    if (link > best) {
      best = link;
      who = "IB bw";
    }
  }
  const double pcie = PcieUtilisation(window);
  if (pcie > best) {
    best = pcie;
    who = "PCIe bw";
  }
  return who;
}

const char* QpStateName(QpState s) {
  switch (s) {
    case QpState::kReset: return "RESET";
    case QpState::kInit: return "INIT";
    case QpState::kRtr: return "RTR";
    case QpState::kRts: return "RTS";
    case QpState::kError: return "ERROR";
  }
  return "UNKNOWN";
}

void Connect(QueuePair* a, QueuePair* b, sim::Nanos one_way) {
  a->peer = b;
  b->peer = a;
  a->net_one_way = one_way;
  b->net_one_way = one_way;
  a->via_fabric = false;
  b->via_fabric = false;
  a->transport = nullptr;
  b->transport = nullptr;
}

void ConnectSelf(QueuePair* qp) {
  qp->peer = qp;
  qp->net_one_way = 0;
  qp->via_fabric = false;
  qp->transport = nullptr;
}

void ConnectOverFabric(QueuePair* a, QueuePair* b) {
  sim::Fabric* fa = a->device->fabric(a->port);
  sim::Fabric* fb = b->device->fabric(b->port);
  assert(fa != nullptr && fb != nullptr &&
         "AttachPort both ends before ConnectOverFabric");
  assert(fa == fb && "QPs must share one fabric");
  (void)fa;
  (void)fb;
  a->peer = b;
  b->peer = a;
  a->via_fabric = true;
  b->via_fabric = true;
  a->transport = nullptr;
  b->transport = nullptr;
  // Unused on the fabric path; kept zero so nothing falls back silently.
  a->net_one_way = 0;
  b->net_one_way = 0;
}

void ConnectOverTransport(QueuePair* a, QueuePair* b, sim::Transport& t) {
  // Endpoints on different shards are fine: OpenFlow looks up each
  // endpoint's EventDomain through the fabric and runs the flow split —
  // SenderHalf on the source's shard, ReceiverHalf on the destination's,
  // DATA/ACK as mailbox crossings (docs/NET.md "Split flows").
  ConnectOverFabric(a, b);
  assert(&t.fabric() == a->device->fabric(a->port) &&
         "transport must be built over the QPs' fabric");
  a->transport = &t;
  b->transport = &t;
  a->flow = t.OpenFlow(a->device->fabric_endpoint(a->port),
                       b->device->fabric_endpoint(b->port));
  b->flow = t.OpenFlow(b->device->fabric_endpoint(b->port),
                       a->device->fabric_endpoint(a->port));
}

}  // namespace redn::rnic
