// Sharded-engine tests: conservative rounds, mailbox merge order, lookahead
// enforcement, stats aggregation, and the cross-shard device data paths.
// These are the tests the TSan CI stage runs — shards >= 2 use real threads.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rnic/device.h"
#include "sim/fabric.h"
#include "sim/sharded.h"
#include "sim/transport.h"
#include "verbs/verbs.h"
#include "workload/experiments.h"
#include "workload/kv_service.h"
#include "workload_printers.h"

namespace redn::test {
namespace {

using sim::EventDomain;
using sim::Nanos;
using sim::ShardedSimulator;

// ---------------------------------------------------------------------------
// Engine-level: rounds, merge order, lookahead.
// ---------------------------------------------------------------------------

TEST(ShardedSim, SingleShardDelegatesToClassicLoop) {
  ShardedSimulator ssim(1);
  sim::Simulator plain;
  std::vector<int> a, b;
  for (int i = 0; i < 5; ++i) {
    ssim.shard(0).At(i * 10, [&a, i] { a.push_back(i); });
    plain.At(i * 10, [&b, i] { b.push_back(i); });
  }
  ssim.Run();
  plain.Run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(ssim.now(), plain.now());
  EXPECT_EQ(ssim.events_processed(), plain.events_processed());
  EXPECT_EQ(ssim.rounds(), 0u);  // never entered the windowed loop
}

TEST(ShardedSim, CrossShardPingPongIsDeterministic) {
  auto run_once = [](std::vector<std::string>* log) {
    ShardedSimulator ssim(2);
    ssim.SetLookaheadFloor(100);
    // Shard 0 pings shard 1 every lookahead; shard 1 pongs back. Each log
    // entry records (shard-local time, tag); the per-shard logs are merged
    // by the single-threaded test body after the run.
    std::vector<std::string> l0, l1;
    struct Ping {
      ShardedSimulator* s;
      std::vector<std::string>* l0;
      std::vector<std::string>* l1;
      int hops_left;
    };
    auto st = std::make_shared<Ping>(Ping{&ssim, &l0, &l1, 6});
    std::function<void(int)> hop = [st, &hop](int on_shard) {
      EventDomain& d = st->s->shard(on_shard);
      st->l0->push_back("hop@" + std::to_string(d.now()) + "/s" +
                        std::to_string(on_shard));
      if (--st->hops_left <= 0) return;
      const int other = 1 - on_shard;
      d.SendTo(other, d.now() + 100, [&hop, other] { hop(other); });
    };
    ssim.shard(0).At(0, [&hop] { hop(0); });
    ssim.Run();
    *log = l0;
    EXPECT_GT(ssim.rounds(), 1u);
    EXPECT_EQ(ssim.cross_shard_sends(), 5u);
    EXPECT_EQ(ssim.mailbox_merges(), 5u);
    EXPECT_EQ(ssim.pending_events(), 0u);
  };
  std::vector<std::string> first, second;
  run_once(&first);
  run_once(&second);
  ASSERT_EQ(first.size(), 6u);
  EXPECT_EQ(first, second);  // same-config rerun is bit-stable
  EXPECT_EQ(first.front(), "hop@0/s0");
  EXPECT_EQ(first.back(), "hop@500/s1");
}

TEST(ShardedSim, MessageOnHorizonBoundaryLandsInLaterRound) {
  // L = 100. Round 1 covers [0, 100): shard 0 sends a message due exactly
  // at the horizon (t=100 = 0 + L, the minimum legal lag). Shard 1 already
  // has local events at 99, 100, 101. The merged message runs at t=100
  // AFTER shard 1's own t=100 event (merge assigns a fresh, newer seq).
  ShardedSimulator ssim(2);
  ssim.SetLookaheadFloor(100);
  std::vector<std::string> log1;
  ssim.shard(1).At(99, [&log1] { log1.push_back("local99"); });
  ssim.shard(1).At(100, [&log1] { log1.push_back("local100"); });
  ssim.shard(1).At(101, [&log1] { log1.push_back("local101"); });
  ssim.shard(0).At(0, [&ssim, &log1] {
    ssim.shard(0).SendTo(1, 100, [&log1] { log1.push_back("msg100"); });
  });
  ssim.Run();
  const std::vector<std::string> want{"local99", "local100", "msg100",
                                      "local101"};
  EXPECT_EQ(log1, want);
}

TEST(ShardedSim, MergeTieBreakIsTimeSrcShardSeq) {
  // Three messages land on shard 2 at the same instant: two from shard 0
  // (send order A0, A1) and one from shard 1. A local event at the same
  // instant was scheduled first. Documented order: local (oldest dst seq),
  // then src-shard ascending, then per-pair send order. This is exactly
  // the order a single-shard run of the same schedule produces.
  auto run_once = []() {
    ShardedSimulator ssim(3);
    ssim.SetLookaheadFloor(50);
    std::vector<std::string> log;
    ssim.shard(2).At(60, [&log] { log.push_back("local"); });
    ssim.shard(0).SendTo(2, 60, [&log] { log.push_back("A0"); });
    ssim.shard(0).SendTo(2, 60, [&log] { log.push_back("A1"); });
    ssim.shard(1).SendTo(2, 60, [&log] { log.push_back("B0"); });
    ssim.Run();
    return log;
  };
  // Single-shard reference: same schedule, one domain, At in the same order.
  sim::Simulator ref;
  std::vector<std::string> ref_log;
  ref.At(60, [&ref_log] { ref_log.push_back("local"); });
  ref.At(60, [&ref_log] { ref_log.push_back("A0"); });
  ref.At(60, [&ref_log] { ref_log.push_back("A1"); });
  ref.At(60, [&ref_log] { ref_log.push_back("B0"); });
  ref.Run();
  const auto got = run_once();
  EXPECT_EQ(got, ref_log);
  EXPECT_EQ(got, run_once());  // and bit-stable on rerun
}

TEST(ShardedSim, LookaheadViolationThrows) {
  ShardedSimulator ssim(2);
  ssim.SetLookaheadFloor(100);
  ssim.shard(0).At(0, [&ssim] {
    // Due in 1 ns < lookahead: the conservative window cannot cover it.
    ssim.shard(0).SendTo(1, 1, [] {});
  });
  EXPECT_THROW(ssim.Run(), std::logic_error);
}

TEST(ShardedSim, CrossShardSendWithoutLookaheadThrows) {
  ShardedSimulator ssim(2);
  EXPECT_THROW(ssim.shard(0).SendTo(1, 1'000'000, [] {}),
               std::logic_error);
}

TEST(ShardedSim, ZeroLookaheadFloorRejected) {
  ShardedSimulator ssim(2);
  EXPECT_THROW(ssim.SetLookaheadFloor(0), std::invalid_argument);
}

TEST(ShardedSim, PendingEventsCountsMailboxAndResetClearsIt) {
  ShardedSimulator ssim(2);
  ssim.SetLookaheadFloor(10);
  ssim.shard(0).At(5, [] {});
  ssim.shard(0).SendTo(1, 50, [] {});  // staged in the mailbox, undrained
  EXPECT_EQ(ssim.pending_events(), 2u);
  ssim.Reset();
  EXPECT_EQ(ssim.pending_events(), 0u);
  ssim.Run();  // nothing left; must not deliver the dropped message
  EXPECT_EQ(ssim.events_processed(), 0u);
  EXPECT_EQ(ssim.cross_shard_sends(), 1u);  // cumulative, like domain stats
}

TEST(ShardedSim, StatsAggregateAcrossShardsWithoutDoubleCounting) {
  ShardedSimulator ssim(4);
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 3; ++i) ssim.shard(s).At(i, [] {});
  }
  EXPECT_EQ(ssim.pending_events(), 12u);
  ssim.Run();
  EXPECT_EQ(ssim.events_processed(), 12u);
  EXPECT_EQ(ssim.slab_hits(), 12u);
  EXPECT_EQ(ssim.heap_fallbacks(), 0u);
  EXPECT_EQ(ssim.pending_events(), 0u);
  std::uint64_t per_shard = 0;
  for (int s = 0; s < 4; ++s) per_shard += ssim.shard(s).events_processed();
  EXPECT_EQ(per_shard, ssim.events_processed());
}

// ---------------------------------------------------------------------------
// Device-level: cross-shard fabric data paths.
// ---------------------------------------------------------------------------

struct ShardedPair {
  explicit ShardedPair(int shards, int server_shard)
      : ssim(shards),
        fabric(std::make_unique<sim::Fabric>(/*switch_latency=*/50)),
        client(std::make_unique<rnic::RnicDevice>(
            ssim.shard(0), rnic::NicConfig::ConnectX5(), rnic::Calibration{},
            "client")),
        server(std::make_unique<rnic::RnicDevice>(
            ssim.shard(server_shard < shards ? server_shard : 0),
            rnic::NicConfig::ConnectX5(), rnic::Calibration{}, "server")) {
    client->AttachPort(0, *fabric, {25.0, 125});
    server->AttachPort(0, *fabric, {25.0, 125});
    cqp = MakeQp(*client);
    sqp = MakeQp(*server);
    rnic::ConnectOverFabric(cqp, sqp);
  }

  static rnic::QueuePair* MakeQp(rnic::RnicDevice& dev) {
    rnic::QpConfig c;
    c.send_cq = dev.CreateCq();
    c.recv_cq = dev.CreateCq();
    return dev.CreateQp(c);
  }

  ShardedSimulator ssim;
  std::unique_ptr<sim::Fabric> fabric;
  std::unique_ptr<rnic::RnicDevice> client;
  std::unique_ptr<rnic::RnicDevice> server;
  rnic::QueuePair* cqp = nullptr;
  rnic::QueuePair* sqp = nullptr;
};

struct WriteOutcome {
  rnic::WcStatus status{};
  std::uint64_t landed = 0;
  Nanos end = 0;
};

WriteOutcome RunCrossWrite(int shards, int server_shard) {
  ShardedPair bed(shards, server_shard);
  auto src = std::make_unique<std::byte[]>(64);
  auto dst = std::make_unique<std::byte[]>(64);
  auto smr = bed.client->pd().Register(src.get(), 64, rnic::kAccessAll);
  auto dmr = bed.server->pd().Register(dst.get(), 64, rnic::kAccessAll);
  rnic::dma::WriteU64(smr.addr, 0xabcdef01u);
  verbs::PostSendNow(bed.cqp,
                     verbs::MakeWrite(smr.addr, 8, smr.lkey, dmr.addr,
                                      dmr.rkey));
  bed.ssim.Run();
  verbs::Cqe cqe;
  WriteOutcome out;
  EXPECT_EQ(verbs::PollCq(bed.cqp, bed.cqp->send_cq, 1, &cqe), 1);
  out.status = cqe.status;
  out.landed = rnic::dma::ReadU64(dmr.addr);
  out.end = bed.ssim.now();
  return out;
}

TEST(ShardedDevice, CrossShardWriteMatchesSingleShardBitExactly) {
  const WriteOutcome one = RunCrossWrite(1, 0);
  const WriteOutcome two = RunCrossWrite(2, 1);
  EXPECT_EQ(one.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(two.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(one.landed, 0xabcdef01u);
  EXPECT_EQ(two.landed, 0xabcdef01u);
  // An uncontended op's completion instant is placement-invariant: the
  // cross-shard split reserves the same pipes at the same instants.
  EXPECT_EQ(one.end, two.end);
  // And the sharded run reproduces itself.
  const WriteOutcome again = RunCrossWrite(2, 1);
  EXPECT_EQ(two.end, again.end);
}

// The RunCrossWrite bed with the responder's process killed before issue.
// A fabric or transport requester learns of the death only from the
// responder's NAK, so the outcome and its instant must not depend on
// whether the two NICs share a shard. `op` is a WRITE, a READ or a
// FETCH_ADD (atomics take the fabric path on a transport QP too).
rnic::Cqe RunDeadResponder(int shards, bool over_transport, rnic::Opcode op) {
  ShardedPair bed(shards, 1);
  sim::Transport transport(bed.ssim.shard(0), *bed.fabric,
                           sim::TransportConfig{});
  rnic::QueuePair* cqp = bed.cqp;
  if (over_transport) {
    cqp = ShardedPair::MakeQp(*bed.client);
    rnic::ConnectOverTransport(cqp, ShardedPair::MakeQp(*bed.server),
                               transport);
  }
  auto lbuf = std::make_unique<std::byte[]>(64);
  auto rbuf = std::make_unique<std::byte[]>(64);
  auto lmr = bed.client->pd().Register(lbuf.get(), 64, rnic::kAccessAll);
  auto rmr = bed.server->pd().Register(rbuf.get(), 64, rnic::kAccessAll);
  bed.server->KillProcessResources(/*pid=*/0);  // every server QP
  verbs::SendWr wr = verbs::MakeFetchAdd(rmr.addr, rmr.rkey, 1, lmr.addr,
                                         lmr.lkey);
  if (op == rnic::Opcode::kRead) {
    wr = verbs::MakeRead(lmr.addr, 8, lmr.lkey, rmr.addr, rmr.rkey);
  } else if (op == rnic::Opcode::kWrite) {
    wr = verbs::MakeWrite(lmr.addr, 8, lmr.lkey, rmr.addr, rmr.rkey);
  }
  verbs::PostSendNow(cqp, wr);
  bed.ssim.Run();
  verbs::Cqe cqe;
  EXPECT_EQ(verbs::PollCq(cqp, cqp->send_cq, 1, &cqe), 1);
  return cqe;
}

TEST(ShardedDevice, DeadResponderNakIsPlacementInvariant) {
  for (const bool over_transport : {false, true}) {
    for (const rnic::Opcode op : {rnic::Opcode::kWrite, rnic::Opcode::kRead,
                                  rnic::Opcode::kFetchAdd}) {
      SCOPED_TRACE(std::string(over_transport ? "transport " : "fabric ") +
                   rnic::OpcodeName(op));
      const rnic::Cqe one = RunDeadResponder(1, over_transport, op);
      const rnic::Cqe two = RunDeadResponder(2, over_transport, op);
      EXPECT_EQ(one.status, rnic::WcStatus::kRemoteAccessError);
      EXPECT_EQ(two.status, rnic::WcStatus::kRemoteAccessError);
      EXPECT_EQ(one.completed_at, two.completed_at);
    }
  }
}

TEST(ShardedDevice, CrossShardReadReturnsRemoteData) {
  ShardedPair bed(2, 1);
  auto src = std::make_unique<std::byte[]>(64);
  auto dst = std::make_unique<std::byte[]>(64);
  auto dmr = bed.client->pd().Register(dst.get(), 64, rnic::kAccessAll);
  auto smr = bed.server->pd().Register(src.get(), 64, rnic::kAccessAll);
  rnic::dma::WriteU64(smr.addr, 0x5eed5eedu);
  verbs::PostSendNow(
      bed.cqp, verbs::MakeRead(dmr.addr, 8, dmr.lkey, smr.addr, smr.rkey));
  bed.ssim.Run();
  verbs::Cqe cqe;
  ASSERT_EQ(verbs::PollCq(bed.cqp, bed.cqp->send_cq, 1, &cqe), 1);
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(rnic::dma::ReadU64(dmr.addr), 0x5eed5eedu);
  EXPECT_GT(bed.ssim.cross_shard_sends(), 0u);
}

TEST(ShardedDevice, CrossShardFetchAddReturnsOldValueAndUpdates) {
  ShardedPair bed(2, 1);
  auto ctr = std::make_unique<std::byte[]>(64);
  auto res = std::make_unique<std::byte[]>(64);
  auto cmr = bed.server->pd().Register(ctr.get(), 64, rnic::kAccessAll);
  auto rmr = bed.client->pd().Register(res.get(), 64, rnic::kAccessAll);
  rnic::dma::WriteU64(cmr.addr, 40);
  verbs::PostSendNow(bed.cqp, verbs::MakeFetchAdd(cmr.addr, cmr.rkey, 2,
                                                  rmr.addr, rmr.lkey));
  bed.ssim.Run();
  verbs::Cqe cqe;
  ASSERT_EQ(verbs::PollCq(bed.cqp, bed.cqp->send_cq, 1, &cqe), 1);
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(rnic::dma::ReadU64(cmr.addr), 42u);  // counter updated remotely
  EXPECT_EQ(rnic::dma::ReadU64(rmr.addr), 40u);  // old value returned
}

TEST(ShardedDevice, ZeroLatencyCrossShardLinkRejectedAtAttach) {
  ShardedSimulator ssim(2);
  sim::Fabric fabric(/*switch_latency=*/0);
  rnic::RnicDevice a(ssim.shard(0), rnic::NicConfig::ConnectX5(), {}, "a");
  rnic::RnicDevice b(ssim.shard(1), rnic::NicConfig::ConnectX5(), {}, "b");
  a.AttachPort(0, fabric, {25.0, 0});  // first endpoint: no pair yet, fine
  EXPECT_THROW(b.AttachPort(0, fabric, {25.0, 0}), std::invalid_argument);
  // Same-shard zero-latency attach stays legal.
  rnic::RnicDevice c(ssim.shard(0), rnic::NicConfig::ConnectX5(), {}, "c");
  EXPECT_NO_THROW(c.AttachPort(0, fabric, {25.0, 0}));
}

TEST(ShardedDevice, CrossShardTransportConnectsAndDelivers) {
  // The lift this PR exists for: QPs on different shards connect over a
  // packetized transport, the SEND's DATA/ACK packets ride the mailbox, and
  // the per-flow counter snapshot sees exactly that flow's traffic.
  ShardedPair bed(2, 1);
  sim::Transport transport(bed.ssim.shard(0), *bed.fabric,
                           sim::TransportConfig{});
  rnic::QueuePair* c2 = ShardedPair::MakeQp(*bed.client);
  rnic::QueuePair* s2 = ShardedPair::MakeQp(*bed.server);
  rnic::ConnectOverTransport(c2, s2, transport);  // no longer rejected
  auto src = std::make_unique<std::byte[]>(256);
  auto dst = std::make_unique<std::byte[]>(256);
  auto smr = bed.client->pd().Register(src.get(), 256, rnic::kAccessAll);
  auto dmr = bed.server->pd().Register(dst.get(), 256, rnic::kAccessAll);
  rnic::dma::WriteU64(smr.addr, 0xfeedbee5u);
  verbs::RecvWr rwr;
  rwr.local_addr = dmr.addr;
  rwr.length = 256;
  rwr.lkey = dmr.lkey;
  verbs::PostRecv(s2, rwr);
  verbs::PostSendNow(c2, verbs::MakeSend(smr.addr, 256, smr.lkey));
  bed.ssim.Run();
  verbs::Cqe cqe;
  ASSERT_EQ(verbs::PollCq(c2, c2->send_cq, 1, &cqe), 1);
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  ASSERT_EQ(verbs::PollCq(s2, s2->recv_cq, 1, &cqe), 1);
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(cqe.byte_len, 256u);
  EXPECT_EQ(rnic::dma::ReadU64(dmr.addr), 0xfeedbee5u);
  EXPECT_GT(bed.ssim.cross_shard_sends(), 0u);
  // Per-flow accounting: the client->server flow carried the data packet;
  // the reverse flow carried none.
  EXPECT_GT(transport.FlowCounters(c2->flow).data_packets, 0u);
  EXPECT_EQ(transport.FlowCounters(s2->flow).data_packets, 0u);
  EXPECT_EQ(transport.counters().payload_bytes_delivered, 256u);
}

// ---------------------------------------------------------------------------
// Transport-level: cross-shard flows — sender half on shard 0, receiver
// half on shard 1, every DATA/ACK/NAK/RNR packet a timestamped mailbox
// message.
// ---------------------------------------------------------------------------

// Same legible arithmetic as transport_test.cc: 8 Gbps = 1 ns/byte, so a
// full 4096 B packet takes 4126 ns, and a 100 us RTO.
sim::TransportConfig SplitConfig() {
  sim::TransportConfig cfg;
  cfg.rto = 100'000;
  return cfg;
}

// Raw protocol endpoints on two shards; the transport is homed on shard 0,
// and the a->b flow's sender and receiver halves sit on different shards.
struct SplitFlowBed {
  explicit SplitFlowBed(int shards, const sim::TransportConfig& cfg)
      : ssim(shards),
        fabric(std::make_unique<sim::Fabric>(/*switch_latency=*/50)) {
    a = fabric->Attach({8.0, 100}, "a", &ssim.shard(0));
    b = fabric->Attach({8.0, 100}, "b",
                       &ssim.shard(shards > 1 ? 1 : 0));
    tr = std::make_unique<sim::Transport>(ssim.shard(0), *fabric, cfg);
    flow = tr->OpenFlow(a, b);
  }
  ShardedSimulator ssim;
  std::unique_ptr<sim::Fabric> fabric;
  std::unique_ptr<sim::Transport> tr;
  int a = 0;
  int b = 0;
  int flow = 0;
};

TEST(ShardedTransport, DataLegLossRecoversAcrossTheMailbox) {
  // First packet of a 3-packet message force-dropped on the data leg: the
  // receiver half NAKs back through the mailbox, go-back-N rewinds the full
  // window where selective repeat resends exactly the hole.
  auto run = [](sim::TransportMode mode) {
    sim::TransportConfig cfg = SplitConfig();
    cfg.mode = mode;
    SplitFlowBed bed(2, cfg);
    bed.tr->DropNextData(1);
    std::vector<Nanos> delivered;
    bed.tr->SendMessage(bed.flow, 0, 12'000,
                        [&](Nanos t) { delivered.push_back(t); });
    bed.ssim.Run();
    EXPECT_EQ(delivered.size(), 1u);
    EXPECT_LT(delivered[0], cfg.rto);  // NAK recovery beat the RTO
    EXPECT_EQ(bed.tr->counters().timeouts, 0u);
    EXPECT_EQ(bed.tr->counters().dropped_tx, 1u);
    EXPECT_GT(bed.ssim.cross_shard_sends(), 0u);
    return bed.tr->counters();
  };
  const auto gbn = run(sim::TransportMode::kGoBackN);
  EXPECT_EQ(gbn.nak_gobacks, 1u);
  EXPECT_EQ(gbn.retransmits, 3u);
  const auto sr = run(sim::TransportMode::kSelectiveRepeat);
  EXPECT_EQ(sr.nak_gobacks, 0u);
  EXPECT_EQ(sr.retransmits, 1u);
  EXPECT_EQ(sr.sack_retransmits, 1u);
}

TEST(ShardedTransport, AckLegLossTimesOutAndDeliversOnce) {
  // The boundary ACK evaporates on its way back across the mailbox: the
  // sender half's RTO fires, the duplicate is discarded by the receiver
  // half, and the message still delivers (and acks) exactly once.
  SplitFlowBed bed(2, SplitConfig());
  bed.tr->DropNextAcks(1);
  int delivered = 0;
  std::vector<Nanos> acked;
  bed.tr->SendMessage(bed.flow, 0, 500, [&](Nanos) { ++delivered; },
                      [&](Nanos t) { acked.push_back(t); });
  bed.ssim.Run();
  EXPECT_EQ(delivered, 1);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_GT(acked[0], SplitConfig().rto);
  EXPECT_EQ(bed.tr->counters().timeouts, 1u);
  EXPECT_EQ(bed.tr->counters().retransmits, 1u);
  EXPECT_EQ(bed.tr->counters().duplicates, 1u);
  EXPECT_EQ(bed.tr->counters().acks_dropped, 1u);
  EXPECT_EQ(bed.tr->counters().messages_delivered, 1u);
  EXPECT_EQ(bed.tr->counters().messages_acked, 1u);
}

TEST(ShardedTransport, RnrBackoffCrossesTheMailbox) {
  // The receiver half (shard 1) runs the rnr_probe and mails the NAK back;
  // the sender half (shard 0) owns the backoff timer. Two rejects cost two
  // full backoff rounds before delivery.
  sim::TransportConfig cfg = SplitConfig();
  cfg.rnr_retry_count = 7;
  cfg.min_rnr_timer = 1;
  SplitFlowBed bed(2, cfg);
  int rejects = 2;
  std::vector<Nanos> delivered, acked;
  sim::Transport::MessageOps ops;
  ops.rnr_probe = [&](Nanos) { return rejects-- <= 0; };
  ops.on_deliver = [&](Nanos t) { delivered.push_back(t); };
  ops.on_acked = [&](Nanos t) { acked.push_back(t); };
  bed.tr->SendMessageEx(bed.flow, 0, 500, std::move(ops));
  bed.ssim.Run();
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_GT(delivered[0], Nanos{8192 + 16384});  // waited out both rounds
  EXPECT_EQ(bed.tr->counters().rnr_naks, 2u);
  EXPECT_EQ(bed.tr->counters().rnr_backoffs, 2u);
  EXPECT_EQ(bed.tr->counters().rnr_exhausted, 0u);
  EXPECT_EQ(bed.tr->counters().messages_delivered, 1u);
}

TEST(ShardedTransport, RandomLossRecoversAndRepliesBitStably) {
  // 40 messages through a 10%-lossy split flow, GBN and SR: every message
  // recovers, and the per-flow RNG streams make the same-config rerun
  // bit-identical counter for counter.
  auto run = [](sim::TransportMode mode) {
    sim::TransportConfig cfg = SplitConfig();
    cfg.mode = mode;
    cfg.loss = 0.1;
    cfg.seed = 42;
    SplitFlowBed bed(2, cfg);
    int delivered = 0;
    for (int i = 0; i < 40; ++i) {
      bed.tr->SendMessage(bed.flow, 0, 10'000, [&](Nanos) { ++delivered; });
    }
    bed.ssim.Run();
    EXPECT_EQ(delivered, 40);
    return bed.tr->counters();
  };
  const auto gbn = run(sim::TransportMode::kGoBackN);
  EXPECT_GT(gbn.retransmits, 0u);
  const auto gbn2 = run(sim::TransportMode::kGoBackN);
  EXPECT_EQ(gbn.retransmits, gbn2.retransmits);
  EXPECT_EQ(gbn.wire_bytes_sent, gbn2.wire_bytes_sent);
  EXPECT_EQ(gbn.acks_sent, gbn2.acks_sent);
  const auto sr = run(sim::TransportMode::kSelectiveRepeat);
  EXPECT_GT(sr.sack_retransmits, 0u);
  const auto sr2 = run(sim::TransportMode::kSelectiveRepeat);
  EXPECT_EQ(sr.retransmits, sr2.retransmits);
  EXPECT_EQ(sr.sack_retransmits, sr2.sack_retransmits);
  EXPECT_EQ(sr.wire_bytes_sent, sr2.wire_bytes_sent);
  // Selective repeat resends only holes; same seed, strictly fewer resends.
  EXPECT_LT(sr.retransmits, gbn.retransmits);
}

// ---------------------------------------------------------------------------
// Workload-level: fixed-seed multi-NIC scale-out, shards in {1, 2, 4}.
// ---------------------------------------------------------------------------

workload::FabricScaleConfig SweepConfig(int shards) {
  workload::FabricScaleConfig cfg;
  cfg.clients = 4;
  cfg.gets_per_client = 25;
  cfg.value_len = 2048;
  cfg.keys = 64;
  cfg.seed = 7;
  cfg.shards = shards;
  return cfg;
}

TEST(ShardedWorkload, FabricScaleBitStableAcrossReruns) {
  // The determinism key is (seed, shards): for each shard count, two runs of
  // the identical config must agree on every measured field, bit for bit.
  for (const int shards : {1, 2, 4}) {
    const auto a = workload::RunFabricScale(SweepConfig(shards));
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(a, workload::RunFabricScale(SweepConfig(shards)));
    EXPECT_EQ(a.gets, 100u);
    EXPECT_EQ(a.shards, shards);
    EXPECT_EQ(a.error_cqes, 0u);
    if (shards > 1) {
      EXPECT_GT(a.mailbox_sends, 0u);
    }
  }
}

TEST(ShardedWorkload, FabricScaleRefillsWindowsAcrossDomains) {
  // At 2 domains clients 1 and 3 sit off the server's domain 0. Every
  // client issues 300 gets, so its 128-request window refills four times
  // (at its 65th, 130th, 195th and 260th trigger), each time on the
  // server's domain. Every get is answered and a rerun is bit-stable.
  auto cfg = SweepConfig(2);
  cfg.gets_per_client = 300;
  const auto a = workload::RunFabricScale(cfg);
  EXPECT_EQ(a.gets, 1200u);
  EXPECT_EQ(a.error_cqes, 0u);
  EXPECT_GT(a.mailbox_sends, 0u);
  EXPECT_EQ(a, workload::RunFabricScale(cfg));
}

TEST(ShardedWorkload, PacketizedLossySweepBitStableAcrossReruns) {
  // The headline satellite: the packetized lossy workload runs sharded.
  // For each shard count and both reliability engines, the same (seed,
  // shards) config must reproduce every measured field bit for bit.
  for (const bool sr : {false, true}) {
    for (const int shards : {1, 2, 4}) {
      auto cfg = SweepConfig(shards);
      cfg.packetized = true;
      cfg.loss = 0.02;
      cfg.selective_repeat = sr;
      const auto a = workload::RunFabricScale(cfg);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " sr=" + std::to_string(sr));
      EXPECT_EQ(a, workload::RunFabricScale(cfg));
      EXPECT_EQ(a.gets, 100u);  // every get answered despite loss
      EXPECT_GT(a.retransmits, 0u);
      EXPECT_EQ(a.shards, shards);
      if (shards > 1) {
        EXPECT_GT(a.mailbox_sends, 0u);
      }
    }
  }
}

TEST(ShardedWorkload, KvServiceSpreadPlacementRunsAndValidates) {
  // One heal path at every placement. Each heal plan runs with every
  // tenant co-resident with the service, with tenant 1 on a second domain,
  // and with every tenant off the service's domain (the heal's legs then
  // cross the mailbox). Every op is answered, the write audits hold, the
  // window heals once, and reruns are bit-stable. Each tenant's own RNG
  // fixes its get/put mix, so the per-tenant counts agree across
  // placements. The placement validation still rejects bad shards.
  workload::KvServiceConfig base;
  base.shards = 3;
  base.tenants = 3;
  base.gets_per_tenant = 60;
  base.keys = 2'000;
  base.put_fraction = 0.3;
  auto window = [](workload::FaultKind kind, int server, Nanos down,
                   Nanos up) {
    workload::FaultEntry e;
    e.kind = kind;
    e.server = server;
    e.down_at = down;
    e.up_at = up;
    return e;
  };
  std::vector<std::pair<std::string, workload::KvServiceConfig>> plans;
  {
    auto cfg = base;
    cfg.faults.entries.push_back(
        window(workload::FaultKind::kBlackhole, 0, 30'000, sim::Millis(3)));
    plans.emplace_back("blackhole", cfg);
  }
  {
    auto cfg = base;
    cfg.faults.entries.push_back(
        window(workload::FaultKind::kCrash, 1, 40'000, sim::Millis(2)));
    plans.emplace_back("crash re-join", cfg);
  }
  {
    auto cfg = base;
    cfg.rnr_retry_count = 1;
    auto e = window(workload::FaultKind::kRnrStall, 0, 20'000, sim::Millis(2));
    e.rnr_count = 40;
    cfg.faults.entries.push_back(e);
    plans.emplace_back("rnr stall", cfg);
  }
  {
    auto cfg = base;
    cfg.retry_count = 8;
    cfg.faults.entries.push_back(
        window(workload::FaultKind::kFlaky, 0, 30'000, sim::Millis(4)));
    plans.emplace_back("flaky", cfg);
  }
  const std::vector<std::pair<int, std::vector<int>>> placements = {
      {1, {}}, {2, {0, 1, 0}}, {3, {1, 2, 1}}};
  for (const auto& [name, plan] : plans) {
    std::vector<workload::KvServiceResult> runs;
    for (const auto& [domains, placement] : placements) {
      SCOPED_TRACE(name + " on " + std::to_string(domains) + " domain(s)");
      auto cfg = plan;
      cfg.sim_shards = domains;
      cfg.placement = placement;
      const auto a = workload::RunKvService(cfg);
      EXPECT_EQ(a.gets + a.puts, 180u);
      EXPECT_EQ(a.unanswered, 0u);
      EXPECT_EQ(a.lost_acked_writes, 0u);
      EXPECT_EQ(a.ryw_violations, 0u);
      EXPECT_EQ(a.value_divergence, 0u);
      EXPECT_EQ(a.heals_applied, 1u);
      EXPECT_EQ(a.sim_shards, domains);
      EXPECT_EQ(a, workload::RunKvService(cfg));
      runs.push_back(a);
    }
    for (const auto& r : runs) {
      SCOPED_TRACE(name);
      ASSERT_EQ(r.tenants.size(), runs.front().tenants.size());
      for (std::size_t t = 0; t < r.tenants.size(); ++t) {
        EXPECT_EQ(r.tenants[t].gets, runs.front().tenants[t].gets);
        EXPECT_EQ(r.tenants[t].puts, runs.front().tenants[t].puts);
      }
    }
  }
  {
    // Windows that refill across domains: at 1000 ops per tenant each of
    // the nine get harnesses takes at least 130 triggers (the zipf keys
    // load the shards unevenly), so its 128-request window refills at
    // least twice, each time on the service's domain while tenant 1's NIC
    // runs on the other.
    SCOPED_TRACE("refilling windows on 2 domains");
    auto cfg = base;
    cfg.gets_per_tenant = 1000;
    cfg.sim_shards = 2;
    cfg.placement = {0, 1, 0};
    const auto a = workload::RunKvService(cfg);
    EXPECT_EQ(a.gets + a.puts, 3000u);
    EXPECT_EQ(a.unanswered, 0u);
    EXPECT_EQ(a.lost_acked_writes, 0u);
    EXPECT_EQ(a.ryw_violations, 0u);
    EXPECT_EQ(a.value_divergence, 0u);
    EXPECT_EQ(a, workload::RunKvService(cfg));
  }
  auto bad = base;
  bad.sim_shards = 2;
  bad.placement = {0, 5, 0};  // shard 5 does not exist
  EXPECT_THROW(workload::RunKvService(bad), std::invalid_argument);
}

}  // namespace
}  // namespace redn::test
