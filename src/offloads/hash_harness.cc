#include "offloads/hash_harness.h"

#include <algorithm>
#include <cstring>

#include "rnic/device.h"

namespace redn::offloads {

HashGetHarness::HashGetHarness(rnic::RnicDevice& client_dev,
                               rnic::RnicDevice& server_dev,
                               HashGetOffload::Config cfg,
                               kv::RdmaHashTable::Config table_cfg,
                               std::size_t heap_bytes, std::size_t max_value)
    : cdev_(client_dev),
      sdev_(server_dev),
      owned_table_(std::make_unique<kv::RdmaHashTable>(server_dev, table_cfg)),
      owned_heap_(std::make_unique<kv::ValueHeap>(server_dev, heap_bytes)),
      table_(owned_table_.get()),
      heap_(owned_heap_.get()),
      cfg_(cfg) {
  Init(max_value);
}

HashGetHarness::HashGetHarness(rnic::RnicDevice& client_dev,
                               rnic::RnicDevice& server_dev,
                               HashGetOffload::Config cfg,
                               kv::RdmaHashTable& shared_table,
                               kv::ValueHeap& shared_heap,
                               std::size_t max_value)
    : cdev_(client_dev),
      sdev_(server_dev),
      table_(&shared_table),
      heap_(&shared_heap),
      cfg_(cfg) {
  Init(max_value);
}

void HashGetHarness::Init(std::size_t max_value) {
  const sim::Nanos one_way = sdev_.cal().net_one_way;

  // Client rings: at most one trigger SEND and one response RECV per
  // request armed ahead are outstanding; large configs cap at 4096 / 16384
  // slots.
  const std::uint32_t client_depth =
      static_cast<std::uint32_t>(cfg_.max_requests) +
      HashGetOffload::kRingSlack;
  auto make_pair = [&](rnic::QueuePair*& srv, rnic::QueuePair*& cli,
                       int lane) {
    const HashGetOffload::RingDepths depths =
        HashGetOffload::Depths(cfg_, lane);
    rnic::QpConfig s;
    s.sq_depth = depths.response;
    s.rq_depth = depths.recv;
    s.port = cfg_.port;
    s.managed = true;  // holds the pre-posted response WRs
    s.send_cq = sdev_.CreateCq();
    s.recv_cq = sdev_.CreateCq();
    srv = sdev_.CreateQp(s);
    rnic::QpConfig c;
    c.sq_depth = std::min(4096u, client_depth);
    c.rq_depth = std::min(16384u, client_depth);
    c.managed = cfg_.managed_client_sq;  // parked detour triggers
    c.send_cq = cdev_.CreateCq();
    c.recv_cq = cli_recv_cq_ ? cli_recv_cq_ : (cli_recv_cq_ = cdev_.CreateCq());
    cli = cdev_.CreateQp(c);
    if (cfg_.transport != nullptr) {
      rnic::ConnectOverTransport(cli, srv, *cfg_.transport);
    } else if (cfg_.fabric != nullptr) {
      rnic::ConnectOverFabric(cli, srv);
    } else {
      rnic::Connect(cli, srv, one_way);
    }
  };
  make_pair(srv_qp1_, cli_qp1_, 0);
  if (cfg_.parallel) make_pair(srv_qp2_, cli_qp2_, 1);

  resp_buf_ = std::make_unique<std::byte[]>(max_value);
  resp_mr_ = cdev_.pd().Register(resp_buf_.get(), max_value, rnic::kAccessAll);
  msg_buf_ = std::make_unique<std::byte[]>(64);
  msg_mr_ = cdev_.pd().Register(msg_buf_.get(), 64, rnic::kAccessAll);

  offload_ = std::make_unique<HashGetOffload>(sdev_, *table_, *heap_, srv_qp1_,
                                              srv_qp2_, cfg_);
}

void HashGetHarness::Put(std::uint64_t key, const void* value,
                         std::uint32_t len, bool force_second) {
  const std::uint64_t ptr = heap_->Store(value, len);
  table_->Insert(key, ptr, len, force_second);
}

kv::Placement HashGetHarness::PutPattern(std::uint64_t key, std::uint32_t len,
                                         bool force_second) {
  const std::uint64_t ptr = heap_->ReserveForOverwrite(len);
  kv::FillRamp(reinterpret_cast<void*>(ptr), len,
               static_cast<std::uint8_t>(key));
  return table_->Insert(key, ptr, len, force_second);
}

bool HashGetHarness::ResponseMatchesPattern(std::uint64_t key,
                                            std::uint32_t len) const {
  return kv::MatchesRamp(resp_buf_.get(), len, static_cast<std::uint8_t>(key));
}

std::uint64_t HashGetHarness::ResponseVersion() const {
  std::uint64_t v = 0;
  std::memcpy(&v, resp_buf_.get(), sizeof(v));
  return v;
}

void HashGetHarness::Arm(int n) {
  offload_->Arm(n, resp_mr_.addr, resp_mr_.rkey);
}

void HashGetHarness::ArmAhead(int n) {
  offload_->ArmAhead(n, resp_mr_.addr, resp_mr_.rkey);
}

void HashGetHarness::RearmTransportClientHalf() {
  cdev_.Rearm(cli_qp1_);
  if (cli_qp2_ != nullptr) cdev_.Rearm(cli_qp2_);
  // The reset discarded every pending RECV — the client response buffers.
  recvs_outstanding_1_ = 0;
  recvs_outstanding_2_ = 0;
}

void HashGetHarness::RearmTransportServerHalf(int n) {
  sdev_.Rearm(srv_qp1_);
  if (srv_qp2_ != nullptr) sdev_.Rearm(srv_qp2_);
  // The replacement program counts requests from the trigger CQ's count,
  // which holds what the wrecked program consumed (error flushes bumped it
  // too, so the CQ is read rather than triggers_).
  offload_->Retire();
  retired_.push_back(std::move(offload_));
  offload_ = std::make_unique<HashGetOffload>(sdev_, *table_, *heap_, srv_qp1_,
                                              srv_qp2_, cfg_);
  ArmAhead(n);
}

void HashGetHarness::PrepostResponseRecvs(int n) {
  for (int i = 0; i < n; ++i) {
    verbs::RecvWr rwr;
    rwr.local_addr = 0;  // WRITE_IMM carries no SEND payload
    rwr.length = 0;
    verbs::PostRecv(cli_qp1_, rwr);
    ++recvs_outstanding_1_;
    if (cfg_.parallel) {
      verbs::PostRecv(cli_qp2_, rwr);
      ++recvs_outstanding_2_;
    }
  }
}

void HashGetHarness::EnsureRecvs() {
  // One response RECV per in-flight get (plus slack), on whichever client
  // QP may answer — open-loop drivers can have hundreds outstanding.
  const int target =
      static_cast<int>(triggers_ - responses_) + 8;
  while (recvs_outstanding_1_ < target) {
    verbs::RecvWr rwr;
    rwr.local_addr = 0;  // WRITE_IMM carries no SEND payload
    rwr.length = 0;
    verbs::PostRecv(cli_qp1_, rwr);
    ++recvs_outstanding_1_;
  }
  while (cfg_.parallel && recvs_outstanding_2_ < target) {
    verbs::RecvWr rwr;
    verbs::PostRecv(cli_qp2_, rwr);
    ++recvs_outstanding_2_;
  }
}

bool HashGetHarness::SendTrigger(std::uint64_t key) {
  if (!srv_qp1_->alive) {
    return false;  // connection torn down (e.g. §5.6 no-hull crash)
  }
  return SendTriggerBlind(key);
}

bool HashGetHarness::SendTriggerBlind(std::uint64_t key) {
  if (!cli_qp1_->Usable()) {
    return false;  // the local QP is wrecked; posting would just flush
  }
  EnsureRecvs();
  cdev_.pd().BeforeStore(msg_mr_.addr, offload_->TriggerBytes());
  offload_->BuildTrigger(key, msg_buf_.get());
  verbs::PostSendNow(cli_qp1_,
                     verbs::MakeSend(msg_mr_.addr, offload_->TriggerBytes(),
                                     msg_mr_.lkey, /*signaled=*/false));
  ++triggers_;
  return true;
}

HashGetHarness::Result HashGetHarness::Get(std::uint64_t key,
                                           sim::Nanos timeout) {
  auto& sim = cdev_.sim();
  const sim::Nanos t0 = sim.now();
  SendTrigger(key);
  verbs::Cqe cqe;
  if (!verbs::AwaitCqe(sim, cdev_, cli_recv_cq_, &cqe, t0 + timeout)) {
    return Result{};  // miss: no response WRITE fired
  }
  ++responses_;
  if (cqe.qp_id == cli_qp1_->id) {
    --recvs_outstanding_1_;
  } else {
    --recvs_outstanding_2_;
  }
  Result r;
  r.found = true;
  r.latency = sim.now() - t0;
  r.len = cqe.byte_len;
  return r;
}

}  // namespace redn::offloads
