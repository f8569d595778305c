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

std::uint64_t RnicDevice::ReadLength(const WqeImage& img) const {
  if (!img.uses_sge_table()) return img.length;
  SgeScratch sges;
  ResolveSges(img, sges);
  std::uint64_t len = 0;
  for (const Sge& sge : sges) len += sge.length;
  return len;
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

  if (op == Opcode::kNoop) {
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
  // Only the compat path reads the peer's liveness at issue; a fabric or
  // transport requester learns of a dead responder from its NAK.
  if (peer == nullptr || (!via_fabric && !peer->alive)) {
    FailWr(wq, img, t_issue, WcStatus::kRemoteAccessError);
    payloads_.Release(pl);
    return;
  }

  switch (op) {
    case Opcode::kWrite:
    case Opcode::kWriteImm:
    case Opcode::kSend:
    case Opcode::kSendImm: {
      WcStatus err = WcStatus::kSuccess;
      if (!GatherLocal(wq, idx, img, pl->bytes, &err)) {
        FailWr(wq, img, t_issue, err);
        payloads_.Release(pl);
        return;
      }
      const std::uint64_t len = pl->bytes.size();
      if (via_fabric) {
        // Egress waits for the host-side DMA, then the payload queues
        // through the shared links (src TX, then dst RX — the congested
        // server port under N-client load).
        const sim::Nanos ready = DmaReady(t_issue, op, len);
        if (qp->transport != nullptr) {
          SendOverTransport(wq, peer, pl, ready);
        } else {
          SendOverFabric(wq, peer, pl, ready, ow);
        }
        return;
      }
      const sim::Nanos pcie_done = pcie_.Reserve(t_issue, len);
      const sim::Nanos mem_done = membw_.Reserve(t_issue, len);
      const sim::Nanos link_done =
          wire ? port.link.Reserve(t_issue, len) : t_issue;
      const sim::Nanos t_arrive =
          std::max({t_issue + ExecCost(op) +
                        DataDelay(len, wire ? &port.link : nullptr),
                    pcie_done, mem_done, link_done}) +
          ow;
      const sim::Nanos ack = wire ? ow + cal_.remote_ack_extra : 0;
      sim_.At(t_arrive, [this, &wq, peer, pl, ack] {
        if (wq.error) {  // QP flushed after an earlier failure
          payloads_.Release(pl);
          return;
        }
        pl->st = peer->device->AcceptPayload(peer, *pl);
        AckSend(wq, pl, sim_.now() + ack);
      });
      return;
    }
    case Opcode::kRead: {
      if (via_fabric) {
        if (qp->transport != nullptr) {
          ReadOverTransport(wq, peer, pl, t_issue, ow);
        } else {
          ReadOverFabric(wq, peer, pl, t_issue, ow);
        }
        return;
      }
      sim_.At(t_issue + ow, [this, &wq, qp, peer, pl, ow, wire] {
        const WqeImage& img = pl->img;
        if (!qp->alive) {  // requester died: flush silently
          payloads_.Release(pl);
          return;
        }
        // A target that died mid-flight (the RunFailover window) NAKs the
        // request instead of dropping it — the requester must not hang.
        // Data is captured at the remote memory *now* (request arrival).
        RnicDevice* rdev = peer->device;
        const std::uint64_t len = ReadLength(img);
        const WcStatus nak = rdev->AcceptRead(peer, img, len, pl->bytes);
        if (nak != WcStatus::kSuccess) {
          FailWr(wq, img, sim_.now() + ow, nak);
          payloads_.Release(pl);
          return;
        }
        const sim::Nanos now = sim_.now();
        sim::BandwidthResource* rlink =
            wire ? &rdev->ports_[peer->port].link : nullptr;
        const sim::Nanos link_done = wire ? rlink->Reserve(now, len) : now;
        const sim::Nanos pcie_done = pcie_.Reserve(now, len);
        const sim::Nanos mem_done = membw_.Reserve(now, len);
        const sim::Nanos t_done =
            std::max({now + ExecCost(Opcode::kRead) + DataDelay(len, rlink),
                      link_done, pcie_done, mem_done}) +
            (wire ? ow + cal_.remote_ack_extra : 0);
        sim_.At(t_done, [this, &wq, pl] {
          if (wq.qp()->alive) {
            LandRead(wq, pl->img, pl->slot, pl->bytes, sim_.now());
          }
          payloads_.Release(pl);
        });
      });
      return;
    }
    case Opcode::kCompSwap:
    case Opcode::kFetchAdd:
    case Opcode::kCalcMax:
    case Opcode::kCalcMin: {
      // If the peer dies before the RMW event runs, the completion must
      // observe that the op never executed (rmw_done stays false) and
      // flush instead of reporting a success that touched nothing.
      pl->scratch = 0;
      pl->rmw_done = false;
      if (via_fabric) {
        AtomicOverFabric(wq, peer, pl, t_issue, ow);
        return;
      }
      sim_.At(t_issue + ow, [this, &wq, qp, peer, pl, ow, wire] {
        if (!qp->alive) {  // requester died: flush silently
          payloads_.Release(pl);
          return;
        }
        WcStatus nak = WcStatus::kSuccess;
        const sim::Nanos unit_done =
            peer->device->AcceptAtomic(peer, pl, &nak);
        if (unit_done < 0) {
          FailWr(wq, pl->img, sim_.now() + ow, nak);
          payloads_.Release(pl);
          return;
        }
        // The completion at t_done >= unit_done is scheduled after the
        // RMW, so it also runs later in FIFO order at equal times.
        const sim::Nanos t_done = unit_done + ExecCost(pl->img.opcode()) +
                                  (wire ? ow + cal_.remote_ack_extra : 0);
        sim_.At(t_done, [this, &wq, pl] { FinishAtomic(wq, pl); });
      });
      return;
    }
    default:
      FailWr(wq, img, t_issue, WcStatus::kBadOpcode);
      payloads_.Release(pl);
      return;
  }
}

// ---------------------------------------------------------------------------
// Fabric and transport data paths (see device.h and docs/PARSIM.md).
//
// Timing is the compat formula with the wire terms taken from the fabric:
// the requester reserves TX at `ready`, the responder reserves RX at port
// arrival (TX-done + one-way propagation), and the ACK or response comes
// back one way later. On one shard every SendTo below is a plain At; across
// shards it is a mailbox message, and the pair's one-way latency is exactly
// its registered lookahead floor, so every crossing is legal.
// ---------------------------------------------------------------------------

void RnicDevice::SendOverFabric(WorkQueue& wq, QueuePair* peer, Payload* pl,
                                sim::Nanos ready, sim::Nanos ow) {
  const FabricAttach& s = fabric_ports_[wq.qp()->port];
  const sim::Nanos t_port =
      s.fabric->ReserveTx(s.endpoint, ready, pl->bytes.size()) + ow;
  const int src_shard = sim_.shard();
  sim_.SendTo(
      peer->device->sim_.shard(), t_port,
      [this, &wq, peer, pl, ow, src_shard] {
        RnicDevice* rdev = peer->device;
        const FabricAttach& d = rdev->fabric_ports_[peer->port];
        const sim::Nanos t_arrive =
            d.fabric->ReserveRx(d.endpoint, rdev->sim_.now(), pl->bytes.size());
        rdev->sim_.At(t_arrive, [this, &wq, peer, pl, ow, src_shard] {
          RnicDevice* rdev = peer->device;
          pl->st = rdev->AcceptPayload(peer, *pl);
          rdev->sim_.SendTo(src_shard,
                            rdev->sim_.now() + ow + cal_.remote_ack_extra,
                            [this, &wq, pl] { AckSend(wq, pl, sim_.now()); });
        });
      });
}

void RnicDevice::ReadOverFabric(WorkQueue& wq, QueuePair* peer, Payload* pl,
                                sim::Nanos t_issue, sim::Nanos ow) {
  // The SGE-table byte count resolves here, at issue on the requester's
  // shard — the table lives in requester host memory, which the responder
  // must never read across the boundary.
  const std::uint64_t len = ReadLength(pl->img);
  const int src_shard = sim_.shard();
  sim_.SendTo(
      peer->device->sim_.shard(), t_issue + ow,
      [this, &wq, peer, pl, ow, len, src_shard] {
        RnicDevice* rdev = peer->device;
        sim::Simulator& dsim = rdev->sim_;
        const WcStatus nak = rdev->AcceptRead(peer, pl->img, len, pl->bytes);
        if (nak != WcStatus::kSuccess) {
          dsim.SendTo(src_shard, dsim.now() + ow,
                      [this, &wq, pl, nak] { NakWr(wq, pl, nak); });
          return;
        }
        // The response DMA happens at the responder: its PCIe/memory are
        // what the transfer occupies, so N-client read scale-out contends
        // on the server's host interface, not each requester's own.
        const sim::Nanos ready = rdev->DmaReady(dsim.now(), Opcode::kRead, len);
        const FabricAttach& rs = rdev->fabric_ports_[peer->port];
        const sim::Nanos t_port =
            rs.fabric->ReserveTx(rs.endpoint, ready, len) + ow;
        dsim.SendTo(src_shard, t_port, [this, &wq, pl] {
          // The response lands through the requester's RX pipe, then pays
          // the requester-side ack turnaround.
          const FabricAttach& rd = fabric_ports_[wq.qp()->port];
          const sim::Nanos t_done =
              rd.fabric->ReserveRx(rd.endpoint, sim_.now(), pl->bytes.size()) +
              cal_.remote_ack_extra;
          sim_.At(t_done, [this, &wq, pl] {
            if (wq.qp()->alive) {
              LandRead(wq, pl->img, pl->slot, pl->bytes, sim_.now());
            }
            payloads_.Release(pl);
          });
        });
      });
}

void RnicDevice::AtomicOverFabric(WorkQueue& wq, QueuePair* peer, Payload* pl,
                                  sim::Nanos t_issue, sim::Nanos ow) {
  const int src_shard = sim_.shard();
  sim_.SendTo(
      peer->device->sim_.shard(), t_issue + ow,
      [this, &wq, peer, pl, ow, src_shard] {
        RnicDevice* rdev = peer->device;
        sim::Simulator& dsim = rdev->sim_;
        WcStatus nak = WcStatus::kSuccess;
        const sim::Nanos unit_done = rdev->AcceptAtomic(peer, pl, &nak);
        if (unit_done < 0) {
          dsim.SendTo(src_shard, dsim.now() + ow,
                      [this, &wq, pl, nak] { NakWr(wq, pl, nak); });
          return;
        }
        // The completion message is due >= unit_done + lookahead — on two
        // shards a strictly later round — so the requester reads
        // rmw_done/scratch after the RMW ran.
        const sim::Nanos t_done = unit_done +
                                  rdev->ExecCost(pl->img.opcode()) + ow +
                                  cal_.remote_ack_extra;
        dsim.SendTo(src_shard, t_done,
                    [this, &wq, pl] { FinishAtomic(wq, pl); });
      });
}

void RnicDevice::SendOverTransport(WorkQueue& wq, QueuePair* peer, Payload* pl,
                                   sim::Nanos ready) {
  QueuePair* qp = wq.qp();
  const Opcode op = pl->img.opcode();
  const std::uint64_t rg = qp->reset_gen;
  sim::Transport::MessageOps ops;
  // Ops that consume a RECV probe the responder's RQ before delivery: an
  // empty RQ (or an injected stall) answers RNR NAK and the transport
  // retries after backoff instead of completing with kRnrError. Only wired
  // when the transport's RNR engine is on — with rnr_retry_count == 0 the
  // probe is never consulted and AcceptSend keeps the legacy drop.
  if (op == Opcode::kSend || op == Opcode::kSendImm || op == Opcode::kWriteImm) {
    ops.rnr_probe = [peer](sim::Nanos) {
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
  // on_deliver runs on the responder's domain and touches only responder
  // state plus pl->st, which the requester reads strictly later (the ACK
  // orders it). Delivered bytes land even if the requester's WQ flushed
  // mid-flight — the responder cannot observe that, and neither can a real
  // NIC's. Every requester-side outcome waits for on_acked/on_failed.
  ops.on_deliver = [peer, pl](sim::Nanos) {
    pl->st = peer->device->AcceptPayload(peer, *pl);
  };
  ops.on_acked = [this, &wq, pl](sim::Nanos) {
    AckSend(wq, pl, sim_.now() + cal_.remote_ack_extra);
  };
  ops.on_failed = [this, qp, pl, rg](sim::Nanos t, sim::MsgFailure why) {
    // kReset or a newer reset_gen: ModifyQp tore the flow down under us
    // (synchronously, or at a cross-shard flow's fence echo after the
    // re-arm) — a reset discards in-flight work silently instead of
    // erroring the QP it just cleared.
    if (qp->alive && qp->state != QpState::kReset && qp->reset_gen == rg) {
      FailQpOverTransport(qp, pl->img, t, StatusOf(why));
    }
    payloads_.Release(pl);
  };
  qp->transport->SendMessageEx(qp->flow, ready, pl->bytes.size(),
                               std::move(ops));
}

namespace {
// READ bundle. The requester's Payload stays owned by the request leg
// (released at its ACK or failure, always on the requester's domain);
// everything the other legs need rides here instead. `bytes` is written by
// the responder before the response send and read by the requester at
// response delivery — the response crossing orders the two. `resolved`
// collapses the racing resolution paths (response delivery, NAK, response-
// flow failure, request-flow failure) to exactly one CQE; it is only ever
// touched on the requester's domain.
struct ReadCtx {
  WqeImage img{};
  std::uint64_t slot = 0;
  std::uint64_t len = 0;
  std::vector<std::byte> bytes;
  bool resolved = false;
};
}  // namespace

void RnicDevice::ReadOverTransport(WorkQueue& wq, QueuePair* peer, Payload* pl,
                                   sim::Nanos t_issue, sim::Nanos ow) {
  QueuePair* qp = wq.qp();
  auto ctx = std::make_shared<ReadCtx>();
  ctx->img = pl->img;
  ctx->slot = pl->slot;
  // Resolved at issue, on the requester's domain: the table lives in
  // requester memory.
  ctx->len = ReadLength(ctx->img);
  const std::uint64_t rg = qp->reset_gen;
  const int req_shard = sim_.shard();
  sim::Transport::MessageOps req;
  req.on_deliver = [this, &wq, qp, peer, ctx, ow, rg, req_shard](sim::Nanos) {
    // Runs on the responder's domain: liveness, protection, DMA capture,
    // and the response send are all local. Protection and dead-peer NAKs
    // return as constant-latency control messages (`ow`, the pair's
    // lookahead floor): they are tiny, generated unconditionally by the
    // responder, and the requester must never hang on them — so they
    // bypass the loss injector, while the request and the data-bearing
    // response ride the lossy packetized flows.
    RnicDevice* rdev = peer->device;
    sim::Simulator& dsim = rdev->sim_;
    const WcStatus nak = rdev->AcceptRead(peer, ctx->img, ctx->len, ctx->bytes);
    if (nak != WcStatus::kSuccess) {
      dsim.SendTo(req_shard, dsim.now() + ow, [this, &wq, qp, ctx, nak] {
        if (ctx->resolved || !qp->alive) return;
        ctx->resolved = true;
        FailWr(wq, ctx->img, sim_.now(), nak);
      });
      return;
    }
    const std::uint64_t prg = peer->reset_gen;
    const sim::Nanos ready =
        rdev->DmaReady(dsim.now(), Opcode::kRead, ctx->len);
    // The response payload rides the responder's flow back; READs complete
    // at in-order data delivery (no extra ack leg).
    sim::Transport::MessageOps resp;
    resp.on_deliver = [this, &wq, qp, ctx](sim::Nanos) {
      if (ctx->resolved || !qp->alive) return;
      ctx->resolved = true;
      LandRead(wq, ctx->img, ctx->slot, ctx->bytes,
               sim_.now() + cal_.remote_ack_extra);
    };
    resp.on_failed = [this, qp, peer, ctx, ow, rg, prg, req_shard](
                         sim::Nanos t, sim::MsgFailure why) {
      // Fires on the responder's domain: the READ must still resolve on
      // the requester CQ, and both ends of the connection are now broken —
      // except a responder mid-reset, whose flow is being re-armed (not
      // dying) and must stay clear of the error latches the reset dropped.
      if (peer->alive && peer->state != QpState::kReset &&
          peer->reset_gen == prg) {
        peer->device->TransitionToError(peer);
      }
      peer->device->sim_.SendTo(req_shard, t + ow, [this, qp, ctx, why, rg] {
        if (ctx->resolved || !qp->alive || qp->state == QpState::kReset ||
            qp->reset_gen != rg) {
          return;
        }
        ctx->resolved = true;
        FailQpOverTransport(qp, ctx->img, sim_.now(), StatusOf(why));
      });
    };
    peer->transport->SendMessageEx(peer->flow, ready, ctx->len,
                                   std::move(resp));
  };
  req.on_acked = [this, pl](sim::Nanos) { payloads_.Release(pl); };
  req.on_failed = [this, qp, pl, ctx, rg](sim::Nanos t, sim::MsgFailure why) {
    // A lost READ request exhausting its retries surfaces on the requester
    // CQ instead of waiting forever on the response flow. A requester
    // mid-reset flushes silently (see SendOverTransport).
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

WcStatus RnicDevice::AcceptPayload(QueuePair* dst_qp, const Payload& pl) {
  const WqeImage& img = pl.img;
  const Opcode op = img.opcode();
  const std::size_t len = pl.bytes.size();
  if (op == Opcode::kSend || op == Opcode::kSendImm) {
    return AcceptSend(dst_qp, pl.bytes.data(), len, img.imm,
                      /*has_imm=*/op == Opcode::kSendImm, len);
  }
  const WcStatus st =
      AcceptWrite(dst_qp, img.remote_addr, img.rkey, pl.bytes.data(), len);
  if (st != WcStatus::kSuccess || op != Opcode::kWriteImm) return st;
  return AcceptSend(dst_qp, nullptr, 0, img.imm, /*has_imm=*/true, len);
}

WcStatus RnicDevice::AcceptRead(QueuePair* dst_qp, const WqeImage& img,
                                std::uint64_t len,
                                std::vector<std::byte>& out) {
  if (!dst_qp->alive) return WcStatus::kRemoteAccessError;
  const MemCheck mc = pd_.CheckRemote(img.remote_addr, len, img.rkey,
                                      kRemoteRead, &dst_qp->remote_mr_cache);
  if (mc != MemCheck::kOk) return WcStatus::kRemoteAccessError;
  if (len > 0) dma::ReadAppend(out, img.remote_addr, len);
  return WcStatus::kSuccess;
}

sim::Nanos RnicDevice::AcceptAtomic(QueuePair* dst_qp, Payload* pl,
                                    WcStatus* nak) {
  const WqeImage& img = pl->img;
  *nak = WcStatus::kRemoteAccessError;
  if (!dst_qp->alive) return -1;
  const MemCheck mc = pd_.CheckRemote(img.remote_addr, 8, img.rkey,
                                      kRemoteAtomic, &dst_qp->remote_mr_cache);
  if (mc != MemCheck::kOk) return -1;
  if (img.remote_addr % 8 != 0) {
    *nak = WcStatus::kAlignmentError;
    return -1;
  }
  *nak = WcStatus::kSuccess;
  // True atomics (CAS/ADD) serialize on the responder port's atomic unit
  // (PCIe concurrency control) — this is what limits CAS to 8.4M/s. Vendor
  // calc verbs (MAX/MIN) are not atomic RMWs on the host bus and run at
  // copy-verb rates (Table 3: MAX 63M/s).
  const Opcode op = img.opcode();
  const sim::Nanos now = sim_.now();
  const sim::Nanos unit_done =
      op == Opcode::kCompSwap || op == Opcode::kFetchAdd
          ? ports_[dst_qp->port].atomic_unit.Reserve(now,
                                                    cal_.atomic_unit_service)
          : now + cal_.atomic_unit_service;
  // The RMW never releases `pl`: the requester's completion, due at or
  // after unit_done and scheduled later, owns the release.
  sim_.At(unit_done, [this, pl, dst_qp] {
    if (!dst_qp->alive) return;  // died mid-flight: memory stays untouched
    pl->rmw_done = true;
    const WqeImage& img = pl->img;
    const std::uint64_t cur = dma::ReadU64(img.remote_addr);
    pl->scratch = cur;
    std::uint64_t next = cur;
    switch (img.opcode()) {
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
    // canonical self-modification, so the write-through refresh here is
    // what keeps recycled chain rings hitting the cache.
    NoteDmaWrite(img.remote_addr, 8);
  });
  return unit_done;
}

void RnicDevice::AckSend(WorkQueue& wq, Payload* pl, sim::Nanos t_done) {
  QueuePair* qp = wq.qp();
  if (!wq.error && qp->alive) {
    if (pl->st != WcStatus::kSuccess && pl->st != WcStatus::kRnrError) {
      // A remote failure latches the WQ: later WRs of this QP flush.
      wq.error = true;
      ++counters_.error_completions;
    }
    CompleteWr(qp, qp->send_cq, pl->img, t_done, pl->st,
               static_cast<std::uint32_t>(pl->bytes.size()));
  }
  payloads_.Release(pl);
}

void RnicDevice::LandRead(WorkQueue& wq, const WqeImage& img,
                          std::uint64_t slot,
                          const std::vector<std::byte>& bytes,
                          sim::Nanos t_done) {
  WcStatus st = WcStatus::kSuccess;
  if (!ScatterList(wq, slot, img, bytes.data(), bytes.size(), &st)) {
    FailWr(wq, img, sim_.now(), st);
    return;
  }
  CompleteWr(wq.qp(), wq.qp()->send_cq, img, t_done, WcStatus::kSuccess,
             static_cast<std::uint32_t>(bytes.size()));
}

void RnicDevice::FinishAtomic(WorkQueue& wq, Payload* pl) {
  QueuePair* qp = wq.qp();
  if (!qp->alive) {
    payloads_.Release(pl);
    return;
  }
  if (!pl->rmw_done) {
    // The target died between the protection check and the RMW: the op
    // never executed, so a success completion would lie about remote
    // memory. NAK and flush instead.
    FailWr(wq, pl->img, sim_.now(), WcStatus::kRemoteAccessError);
    payloads_.Release(pl);
    return;
  }
  // Return the old value into the local sge, if one was given.
  if (pl->img.local_addr != 0) {
    WcStatus st = WcStatus::kSuccess;
    const std::byte* bytes = reinterpret_cast<const std::byte*>(&pl->scratch);
    WqeImage resp = pl->img;
    resp.length = 8;
    resp.flags &= ~kFlagSgeTable;
    if (!ScatterList(wq, pl->slot, resp, bytes, 8, &st)) {
      FailWr(wq, pl->img, sim_.now(), st);
      payloads_.Release(pl);
      return;
    }
  }
  CompleteWr(qp, qp->send_cq, pl->img, sim_.now(), WcStatus::kSuccess, 8);
  payloads_.Release(pl);
}

void RnicDevice::NakWr(WorkQueue& wq, Payload* pl, WcStatus st) {
  if (wq.qp()->alive) FailWr(wq, pl->img, sim_.now(), st);
  payloads_.Release(pl);
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

sim::Nanos RnicDevice::DmaReady(sim::Nanos t, Opcode op, std::uint64_t len) {
  const sim::Nanos pcie_done = pcie_.Reserve(t, len);
  const sim::Nanos mem_done = membw_.Reserve(t, len);
  const sim::Nanos host =
      len == 0 ? 0
               : pcie_.SerializationDelay(len) + membw_.SerializationDelay(len);
  return std::max({t + ExecCost(op) + host, pcie_done, mem_done});
}

sim::Nanos RnicDevice::FabricOneWay(const QueuePair* from,
                                    const QueuePair* to) {
  const FabricAttach& s = from->device->fabric_ports_[from->port];
  const FabricAttach& d = to->device->fabric_ports_[to->port];
  return s.fabric->OneWay(s.endpoint, d.endpoint);
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
  // endpoint's EventDomain through the fabric — SenderHalf on the source's
  // shard, ReceiverHalf on the destination's, DATA/ACK as mailbox
  // crossings between shards (docs/NET.md "Flow halves").
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
