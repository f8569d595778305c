// Packetized go-back-N transport tests: protocol-level unit tests (flows
// over raw fabric endpoints) and device-level tests (verbs over
// ConnectOverTransport), with emphasis on the loss-path edge cases:
// duplicate delivery after a spurious retransmit must not double-scatter or
// double-complete, and the dead-peer NAK path must still fire when the loss
// injector eats the original transmission.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fabric.h"
#include "sim/transport.h"
#include "testbed.h"
#include "workload/experiments.h"

namespace redn::test {
namespace {

using rnic::ConnectOverTransport;
using sim::Nanos;
using sim::Transport;
using sim::TransportConfig;
using verbs::AwaitCqe;
using verbs::Cqe;
using verbs::MakeRead;
using verbs::MakeSend;
using verbs::MakeSendImm;
using verbs::MakeWrite;
using verbs::PostRecv;
using verbs::PostSendNow;

// CI re-runs the randomized-loss tests under ASan+UBSan at several extra
// RNG seeds (scripts/ci.sh sets TRANSPORT_TEST_SEED, an offset added to
// each such test's base seed). Assertions in those tests must be seed
// invariants — recovery completes, replay is bit-stable, SR resends less
// than GBN — not exact counter values.
std::uint64_t SeedOffset() {
  const char* s = std::getenv("TRANSPORT_TEST_SEED");
  return s == nullptr ? 0 : std::strtoull(s, nullptr, 10);
}

// 8 Gbps = 1 ns/byte and small fixed overheads keep the arithmetic legible.
TransportConfig LegibleConfig() {
  TransportConfig cfg;
  cfg.mtu = 1000;
  cfg.header_bytes = 30;
  cfg.ack_bytes = 30;
  cfg.ack_every = 4;
  cfg.ack_delay = 2'000;
  cfg.rto = 20'000;
  return cfg;
}

// --- protocol-level ---------------------------------------------------------

TEST(Transport, SegmentsAndDeliversExactTiming) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  Transport tr(s, f, LegibleConfig());
  const int flow = tr.OpenFlow(a, b);

  std::vector<Nanos> delivered, acked;
  tr.SendMessage(flow, 0, 2500,
                 [&](Nanos t) { delivered.push_back(t); },
                 [&](Nanos t) { acked.push_back(t); });
  s.Run();

  // 2500 B at mtu 1000 = packets of 1000/1000/500 payload (+30 header).
  // TX reservations finish at 1030/2060/2590; each packet then rides
  // prop(100) + prop(100) and queues into b's RX pipe, where the last one
  // clears at 3820. The boundary ACK (30 B) goes straight back:
  // 3820 + 30 + 200 + 30 = 4080.
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 3820);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_EQ(acked[0], 4080);
  EXPECT_EQ(tr.counters().data_packets, 3u);
  EXPECT_EQ(tr.counters().retransmits, 0u);
  EXPECT_EQ(tr.counters().acks_sent, 1u);  // coalesced: one boundary ACK
  EXPECT_EQ(tr.counters().payload_bytes_delivered, 2500u);
  // Co-located halves cross inline: one event per packet (3 DATA + 1 ACK
  // arrivals) plus the RTO and delayed-ACK timers, never a second event
  // per leg.
  EXPECT_EQ(s.events_processed(), 6u);
}

TEST(Transport, ZeroByteMessageStillCrossesTheWire) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  Transport tr(s, f, LegibleConfig());
  const int flow = tr.OpenFlow(a, b);
  int delivered = 0;
  tr.SendMessage(flow, 0, 0, [&](Nanos) { ++delivered; });
  s.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(tr.counters().data_packets, 1u);  // header-only packet
}

TEST(Transport, GapTriggersNakGoBackBeforeRto) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  Transport tr(s, f, LegibleConfig());
  const int flow = tr.OpenFlow(a, b);

  tr.DropNextData(1);  // eat the first packet of the message
  std::vector<Nanos> delivered;
  tr.SendMessage(flow, 0, 3000, [&](Nanos t) { delivered.push_back(t); });
  s.Run();

  ASSERT_EQ(delivered.size(), 1u);
  // Recovered well before the 20 us RTO: packets 1-2 arrive out of order,
  // the NAK rewinds the sender, and the full window retransmits.
  EXPECT_LT(delivered[0], LegibleConfig().rto);
  EXPECT_EQ(tr.counters().timeouts, 0u);
  EXPECT_EQ(tr.counters().nak_gobacks, 1u);
  EXPECT_EQ(tr.counters().out_of_order, 2u);
  EXPECT_EQ(tr.counters().retransmits, 3u);  // go-back-N resends 0,1,2
  EXPECT_EQ(tr.counters().dropped_tx, 1u);
}

TEST(Transport, EatenAckCausesSpuriousRetransmitButSingleDelivery) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  Transport tr(s, f, LegibleConfig());
  const int flow = tr.OpenFlow(a, b);

  tr.DropNextAcks(1);  // the boundary ACK evaporates
  int delivered = 0;
  std::vector<Nanos> acked;
  tr.SendMessage(flow, 0, 500, [&](Nanos) { ++delivered; },
                 [&](Nanos t) { acked.push_back(t); });
  s.Run();

  // RTO fires, the packet retransmits, the receiver discards the duplicate
  // and re-ACKs; the message is delivered exactly once and acked late.
  EXPECT_EQ(delivered, 1);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_GT(acked[0], LegibleConfig().rto);
  EXPECT_EQ(tr.counters().timeouts, 1u);
  EXPECT_EQ(tr.counters().duplicates, 1u);
  EXPECT_EQ(tr.counters().retransmits, 1u);
  EXPECT_EQ(tr.counters().acks_dropped, 1u);
  EXPECT_EQ(tr.counters().messages_delivered, 1u);
  EXPECT_EQ(tr.counters().messages_acked, 1u);
}

TEST(Transport, WindowStallRescuedByDelayedAck) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  TransportConfig cfg = LegibleConfig();
  cfg.window = 2;     // stalls mid-message
  cfg.ack_every = 8;  // never reaches the count threshold mid-message
  Transport tr(s, f, cfg);
  const int flow = tr.OpenFlow(a, b);
  int delivered = 0;
  tr.SendMessage(flow, 0, 5000, [&](Nanos) { ++delivered; });
  s.Run();
  // Interior packets only ever ACK via the delayed-ACK backstop, so the
  // 5-packet message needs it repeatedly to slide the 2-packet window.
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(tr.counters().acks_sent, 2u);
  EXPECT_EQ(tr.counters().retransmits, 0u);
}

TEST(Transport, CorruptionCountsAndRecovers) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  TransportConfig cfg = LegibleConfig();
  Transport tr(s, f, cfg);
  tr.SetLinkFaults(b, /*loss=*/0.0, /*corrupt=*/0.4);
  const int flow = tr.OpenFlow(a, b);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    tr.SendMessage(flow, 0, 3000, [&](Nanos) { ++delivered; });
  }
  s.Run();
  EXPECT_EQ(delivered, 20);
  EXPECT_GT(tr.counters().corrupted, 0u);
  EXPECT_GT(tr.counters().retransmits, 0u);
}

TEST(Transport, FlowCountersIsolatePerFlow) {
  // The per-flow snapshot carves the global totals by flow id: traffic on
  // one flow must not bleed into another's counters.
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  const int c = f.Attach({8.0, 100});
  Transport tr(s, f, LegibleConfig());
  const int ab = tr.OpenFlow(a, b);
  const int ac = tr.OpenFlow(a, c);
  int delivered = 0;
  tr.SendMessage(ab, 0, 2500, [&](Nanos) { ++delivered; });  // 3 packets
  tr.SendMessage(ac, 0, 500, [&](Nanos) { ++delivered; });   // 1 packet
  s.Run();
  EXPECT_EQ(delivered, 2);
  const auto fab = tr.FlowCounters(ab);
  const auto fac = tr.FlowCounters(ac);
  EXPECT_EQ(fab.data_packets, 3u);
  EXPECT_EQ(fac.data_packets, 1u);
  EXPECT_EQ(fab.payload_bytes_delivered, 2500u);
  EXPECT_EQ(fac.payload_bytes_delivered, 500u);
  EXPECT_EQ(fab.messages_delivered, 1u);
  EXPECT_EQ(fab.retransmits, 0u);
  // The per-flow pieces sum to the global snapshot.
  EXPECT_EQ(fab.data_packets + fac.data_packets,
            tr.counters().data_packets);
  EXPECT_EQ(fab.acks_sent + fac.acks_sent, tr.counters().acks_sent);
}

TEST(Transport, LossesDoNotDependOnUnrelatedTraffic) {
  // Every flow draws from its own streams, so a->b's loss realization —
  // and with it every delivery and ack instant — is the same whether or
  // not c->d (disjoint endpoints, same Simulator) carries traffic.
  struct Trace {
    std::vector<Nanos> delivered, acked;
    sim::TransportCounters ctr;
  };
  auto run = [](sim::TransportMode mode, bool busy_neighbour) {
    sim::Simulator s;
    sim::Fabric f;
    const int a = f.Attach({8.0, 100});
    const int b = f.Attach({8.0, 100});
    const int c = f.Attach({8.0, 100});
    const int d = f.Attach({8.0, 100});
    TransportConfig cfg = LegibleConfig();
    cfg.loss = 0.1;
    cfg.seed = 42;
    cfg.mode = mode;
    Transport tr(s, f, cfg);
    const int ab = tr.OpenFlow(a, b);
    const int cd = tr.OpenFlow(c, d);
    Trace out;
    for (int i = 0; i < 40; ++i) {
      tr.SendMessage(ab, 0, 2500,
                     [&](Nanos t) { out.delivered.push_back(t); },
                     [&](Nanos t) { out.acked.push_back(t); });
      if (busy_neighbour) tr.SendMessage(cd, 0, 2500, [](Nanos) {});
    }
    s.Run();
    out.ctr = tr.FlowCounters(ab);
    return out;
  };
  for (const auto mode :
       {sim::TransportMode::kGoBackN, sim::TransportMode::kSelectiveRepeat}) {
    SCOPED_TRACE(mode == sim::TransportMode::kGoBackN ? "GBN" : "SR");
    const Trace quiet = run(mode, false);
    const Trace busy = run(mode, true);
    ASSERT_EQ(quiet.delivered.size(), 40u);
    EXPECT_GT(quiet.ctr.retransmits, 0u);  // the loss actually bit
    EXPECT_EQ(quiet.delivered, busy.delivered);
    EXPECT_EQ(quiet.acked, busy.acked);
    EXPECT_EQ(quiet.ctr.retransmits, busy.ctr.retransmits);
    EXPECT_TRUE(quiet.ctr == busy.ctr);
  }
}

TEST(Transport, SameSeedReplaysBitIdentically) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator s;
    sim::Fabric f;
    const int a = f.Attach({8.0, 100});
    const int b = f.Attach({8.0, 100});
    TransportConfig cfg = LegibleConfig();
    cfg.loss = 0.1;
    cfg.seed = seed;
    Transport tr(s, f, cfg);
    const int flow = tr.OpenFlow(a, b);
    std::vector<Nanos> times;
    for (int i = 0; i < 30; ++i) {
      tr.SendMessage(flow, 0, 2500, [&](Nanos t) { times.push_back(t); });
    }
    s.Run();
    times.push_back(static_cast<Nanos>(tr.counters().retransmits));
    times.push_back(static_cast<Nanos>(tr.counters().acks_sent));
    return times;
  };
  const auto r1 = run(42);
  const auto r2 = run(42);
  EXPECT_EQ(r1, r2);
  // A different seed must actually change the loss pattern.
  const auto r3 = run(43);
  EXPECT_NE(r1, r3);
}

// --- device-level -----------------------------------------------------------

class TransportBed : public ::testing::Test {
 protected:
  TransportBed() : TransportBed(DeviceConfig()) {}
  explicit TransportBed(TransportConfig cfg) : tr(bed.sim, fabric, cfg) {
    bed.client.AttachPort(0, fabric, {25.0, 125});
    bed.server.AttachPort(0, fabric, {25.0, 125});
  }

  static TransportConfig DeviceConfig() {
    TransportConfig cfg;
    cfg.mtu = 1024;
    cfg.rto = 20'000;
    return cfg;
  }

  rnic::QueuePair* MakeQp(RnicDevice& dev) {
    QpConfig c;
    c.send_cq = dev.CreateCq();
    c.recv_cq = dev.CreateCq();
    return dev.CreateQp(c);
  }

  std::pair<rnic::QueuePair*, rnic::QueuePair*> ConnectedPair() {
    rnic::QueuePair* cqp = MakeQp(bed.client);
    rnic::QueuePair* sqp = MakeQp(bed.server);
    ConnectOverTransport(cqp, sqp, tr);
    return {cqp, sqp};
  }

  TestBed bed;
  sim::Fabric fabric;
  Transport tr;
};

TEST_F(TransportBed, WriteSegmentsDeliversAndCompletes) {
  auto [cqp, sqp] = ConnectedPair();
  constexpr std::size_t kLen = 8192;
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  src.Fill(0xab, kLen);
  PostSendNow(cqp, MakeWrite(src.addr(), kLen, src.lkey(), dst.addr(),
                             dst.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(cqe.byte_len, kLen);
  EXPECT_EQ(std::memcmp(src.bytes(), dst.bytes(), kLen), 0);
  // 8 KiB at mtu 1024 = 8 packets, and the completion waited for the
  // transport-level cumulative ACK.
  EXPECT_EQ(tr.counters().data_packets, 8u);
  EXPECT_GE(tr.counters().acks_sent, 1u);
  EXPECT_EQ(tr.counters().messages_acked, 1u);
}

TEST_F(TransportBed, SendImmCarriesImmAndPayloadThroughLoss) {
  auto [cqp, sqp] = ConnectedPair();
  constexpr std::size_t kLen = 3000;
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  src.Fill(0x5c, kLen);
  verbs::RecvWr rwr;
  rwr.local_addr = dst.addr();
  rwr.length = kLen;
  rwr.lkey = dst.lkey();
  PostRecv(sqp, rwr);
  tr.DropNextData(1);  // first payload packet eaten; go-back-N recovers
  PostSendNow(cqp, MakeSendImm(src.addr(), kLen, src.lkey(), 0xbeef));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_TRUE(cqe.has_imm);
  EXPECT_EQ(cqe.imm, 0xbeefu);
  EXPECT_EQ(cqe.byte_len, kLen);
  EXPECT_EQ(std::memcmp(src.bytes(), dst.bytes(), kLen), 0);
  EXPECT_GT(tr.counters().retransmits, 0u);
}

TEST_F(TransportBed, SpuriousRetransmitDoesNotDoubleScatterOrDoubleComplete) {
  auto [cqp, sqp] = ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 256);
  Buffer dst = bed.Alloc(bed.server, 512);
  src.SetU64(0, 0x1111);
  // Two RECVs armed: a double delivery would consume the second one and
  // scatter into its (different) buffer.
  verbs::RecvWr r1;
  r1.local_addr = dst.addr();
  r1.length = 256;
  r1.lkey = dst.lkey();
  PostRecv(sqp, r1);
  verbs::RecvWr r2;
  r2.local_addr = dst.addr() + 256;
  r2.length = 256;
  r2.lkey = dst.lkey();
  PostRecv(sqp, r2);

  tr.DropNextAcks(1);  // force the spurious retransmit of the SEND
  PostSendNow(cqp, MakeSend(src.addr(), 256, src.lkey()));

  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  // The send CQE arrives only after the RTO-retransmit round recovers the
  // eaten ACK.
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_GT(bed.sim.now(), DeviceConfig().rto);
  bed.sim.Run();  // drain every straggler event

  // Exactly one RECV consumed, one scatter, one completion per side.
  EXPECT_GT(tr.counters().duplicates, 0u);  // the scenario really happened
  EXPECT_EQ(sqp->rq.consumed, 1u);
  EXPECT_EQ(dst.U64(0), 0x1111u);
  EXPECT_EQ(dst.U64(32), 0u);  // second RECV's buffer untouched
  EXPECT_EQ(bed.server.PollCq(sqp->recv_cq, 1, &cqe), 0);
  EXPECT_EQ(bed.client.PollCq(cqp->send_cq, 1, &cqe), 0);
}

TEST_F(TransportBed, ReadRecoversFromLostRequest) {
  auto [cqp, sqp] = ConnectedPair();
  Buffer local = bed.Alloc(bed.client, 64);
  Buffer remote = bed.Alloc(bed.server, 64);
  remote.SetU64(0, 0xd00d);
  tr.DropNextData(1);  // the READ request itself is eaten
  PostSendNow(cqp, MakeRead(local.addr(), 8, local.lkey(), remote.addr(),
                            remote.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(local.U64(0), 0xd00du);
  // Only the RTO can recover a solo lost packet (no later packet to NAK).
  EXPECT_GE(bed.sim.now(), DeviceConfig().rto);
  EXPECT_EQ(tr.counters().timeouts, 1u);
}

TEST_F(TransportBed, DeadPeerNaksEvenWhenLossAteTheOriginalRequest) {
  auto [cqp, sqp] = ConnectedPair();
  Buffer local = bed.Alloc(bed.client, 64);
  Buffer remote = bed.Alloc(bed.server, 64);
  tr.DropNextData(1);  // the original READ request never arrives...
  PostSendNow(cqp, MakeRead(local.addr(), 8, local.lkey(), remote.addr(),
                            remote.rkey()));
  // ...and the server dies before the retransmission lands.
  bed.sim.At(5'000, [&] { bed.server.KillProcessResources(sqp->owner_pid); });
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(5)))
      << "requester hung instead of receiving the dead-peer NAK";
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError);
  EXPECT_TRUE(cqp->sq.error);  // the QP is flushed, like every NAK path
}

TEST_F(TransportBed, ResetOfHealthyQpWithInflightWrDiscardsSilentlyAndRearms) {
  auto [cqp, sqp] = ConnectedPair();
  constexpr std::size_t kLen = 2048;
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  src.Fill(0x44, kLen);

  // Blackhole the server's link so the WRITE stays in flight (unacked; no
  // retry budget configured, so it would retry forever), then reset the
  // *healthy* client QP mid-flight. ibv_modify_qp ->RESET discards such
  // work silently: no CQE, no ERROR transition — the flush fired by the
  // flow teardown must not re-latch the error state the reset just cleared.
  const int server_ep = bed.server.fabric_endpoint(0);
  tr.SetLinkFaults(server_ep, /*loss=*/1.0, /*corrupt=*/0.0);
  PostSendNow(cqp, MakeWrite(src.addr(), kLen, src.lkey(), dst.addr(),
                             dst.rkey()));
  bed.sim.RunUntil(100'000);  // a few RTO rounds in; the WR is still queued

  bed.client.ModifyQp(cqp, rnic::QpState::kReset);
  bed.client.ModifyQp(cqp, rnic::QpState::kInit);
  bed.client.ModifyQp(cqp, rnic::QpState::kRtr);
  bed.client.ModifyQp(cqp, rnic::QpState::kRts);
  EXPECT_EQ(cqp->state, rnic::QpState::kRts);
  EXPECT_FALSE(cqp->sq.error);
  EXPECT_FALSE(cqp->rq.error);
  EXPECT_EQ(bed.client.counters().qp_errors, 0u);

  // Heal the link: the re-armed QP moves fresh traffic, and the discarded
  // WRITE never surfaces a CQE — the success below is the only completion.
  tr.SetLinkFaults(server_ep, 0.0, 0.0);
  src.SetU64(0, 0xabcd);
  PostSendNow(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(),
                             dst.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(dst.U64(0), 0xabcdu);
  bed.sim.RunUntil(bed.sim.now() + 200'000);  // drain any straggler events
  EXPECT_EQ(bed.client.counters().error_completions, 0u);
  EXPECT_EQ(bed.client.PollCq(cqp->send_cq, 1, &cqe), 0);
}

// --- reliability engine: selective repeat, RNR, budgets, QP recovery --------

TEST(TransportSr, SingleLossRetransmitsOnePacketWhereGoBackNRewinds) {
  // Same deterministic loss (first packet of a 3-packet message eaten) under
  // both modes: go-back-N resends the whole window, selective repeat resends
  // exactly the hole named by the SACK.
  auto run = [](sim::TransportMode mode) {
    sim::Simulator s;
    sim::Fabric f;
    const int a = f.Attach({8.0, 100});
    const int b = f.Attach({8.0, 100});
    TransportConfig cfg = LegibleConfig();
    cfg.mode = mode;
    Transport tr(s, f, cfg);
    const int flow = tr.OpenFlow(a, b);
    tr.DropNextData(1);
    std::vector<Nanos> delivered;
    tr.SendMessage(flow, 0, 3000, [&](Nanos t) { delivered.push_back(t); });
    s.Run();
    EXPECT_EQ(delivered.size(), 1u);
    EXPECT_LT(delivered[0], cfg.rto);  // NAK recovery, no timeout in either
    EXPECT_EQ(tr.counters().timeouts, 0u);
    return tr.counters();
  };
  const auto gbn = run(sim::TransportMode::kGoBackN);
  EXPECT_EQ(gbn.retransmits, 3u);
  EXPECT_EQ(gbn.nak_gobacks, 1u);
  EXPECT_EQ(gbn.sack_retransmits, 0u);
  const auto sr = run(sim::TransportMode::kSelectiveRepeat);
  EXPECT_EQ(sr.retransmits, 1u);
  EXPECT_EQ(sr.sack_retransmits, 1u);
  EXPECT_EQ(sr.nak_gobacks, 0u);
  EXPECT_GE(sr.sacks_sent, 1u);
}

TEST(TransportSr, OutRetransmitsGoBackNUnderRandomLossSameSeed) {
  auto run = [](sim::TransportMode mode) {
    sim::Simulator s;
    sim::Fabric f;
    const int a = f.Attach({8.0, 100});
    const int b = f.Attach({8.0, 100});
    TransportConfig cfg = LegibleConfig();
    cfg.mode = mode;
    cfg.loss = 0.05;
    cfg.seed = 42 + SeedOffset();
    Transport tr(s, f, cfg);
    const int flow = tr.OpenFlow(a, b);
    int delivered = 0;
    for (int i = 0; i < 40; ++i) {
      tr.SendMessage(flow, 0, 2500, [&](Nanos) { ++delivered; });
    }
    s.Run();
    EXPECT_EQ(delivered, 40);
    return tr.counters();
  };
  const auto gbn = run(sim::TransportMode::kGoBackN);
  const auto sr = run(sim::TransportMode::kSelectiveRepeat);
  // Every loss event costs go-back-N a window rewind but selective repeat
  // only the holes, so the same seed recovers with strictly fewer resends.
  EXPECT_LT(sr.retransmits, gbn.retransmits);
  EXPECT_GT(sr.sack_retransmits, 0u);
  // Same-seed bit-stability of the new mode.
  const auto sr2 = run(sim::TransportMode::kSelectiveRepeat);
  EXPECT_EQ(sr.retransmits, sr2.retransmits);
  EXPECT_EQ(sr.sack_retransmits, sr2.sack_retransmits);
  EXPECT_EQ(sr.wire_bytes_sent, sr2.wire_bytes_sent);
  EXPECT_EQ(sr.sacks_sent, sr2.sacks_sent);
}

TEST(TransportSr, LossyFlowsOfBothModesPutNoEventOnTheHeap) {
  // Every per-packet and per-ACK event fits the engine's inline slot; the
  // ACK-arrival capture reaches the transport through its flow, so even an
  // ACK carrying SACK ranges schedules without a heap fallback.
  for (const auto mode :
       {sim::TransportMode::kGoBackN, sim::TransportMode::kSelectiveRepeat}) {
    sim::Simulator s;
    sim::Fabric f;
    const int a = f.Attach({8.0, 100});
    const int b = f.Attach({8.0, 100});
    TransportConfig cfg = LegibleConfig();
    cfg.mode = mode;
    cfg.loss = 0.05;
    cfg.seed = 42 + SeedOffset();
    Transport tr(s, f, cfg);
    const int flow = tr.OpenFlow(a, b);
    int delivered = 0;
    for (int i = 0; i < 40; ++i) {
      tr.SendMessage(flow, 0, 2500, [&](Nanos) { ++delivered; });
    }
    s.Run();
    EXPECT_EQ(delivered, 40);
    EXPECT_GT(tr.counters().retransmits, 0u);
    EXPECT_EQ(s.heap_fallbacks(), 0u);
  }
}

TEST(TransportSr, HolesOnBothSidesOfPsnWordEdgesResendOnceInOrder) {
  // A window of 256 keeps four 64-PSN words of holes and SACK state live
  // at once. Each hole is one lost single-packet message, placed on both
  // sides of the word edges; each must be resent exactly once from the
  // SACK ranges, and everything delivered once, in order.
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  TransportConfig cfg = LegibleConfig();
  cfg.mode = sim::TransportMode::kSelectiveRepeat;
  cfg.window = 256;
  cfg.rto = 10'000'000;  // the SACKs alone must recover every hole
  Transport tr(s, f, cfg);
  const int flow = tr.OpenFlow(a, b);
  const std::vector<int> holes = {63, 64, 127, 128, 191};
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    // The window is open, so message i's one packet (PSN i) leaves now.
    if (std::find(holes.begin(), holes.end(), i) != holes.end()) {
      tr.DropNextData(1);
    }
    tr.SendMessage(flow, 0, 500, [&order, i](Nanos) { order.push_back(i); });
  }
  s.Run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(tr.counters().dropped_tx, holes.size());
  EXPECT_EQ(tr.counters().sack_retransmits, holes.size());
  EXPECT_EQ(tr.counters().retransmits, holes.size());
  EXPECT_EQ(tr.counters().rto_fires, 0u);
  EXPECT_EQ(tr.counters().messages_acked, 200u);
}

TEST(TransportRnr, NakBacksOffThenDeliversWhenReceiverTurnsReady) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  TransportConfig cfg = LegibleConfig();
  cfg.rnr_retry_count = 7;
  cfg.min_rnr_timer = 1;  // 8.2 us base backoff keeps the test quick
  Transport tr(s, f, cfg);
  const int flow = tr.OpenFlow(a, b);

  int rejects = 2;
  std::vector<Nanos> delivered, acked;
  Transport::MessageOps ops;
  ops.rnr_probe = [&](Nanos) { return rejects-- <= 0; };
  ops.on_deliver = [&](Nanos t) { delivered.push_back(t); };
  ops.on_acked = [&](Nanos t) { acked.push_back(t); };
  tr.SendMessageEx(flow, 0, 500, std::move(ops));
  s.Run();

  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(acked.size(), 1u);
  // Two RNR rounds: 4096<<1 then doubled — delivery waited out both.
  EXPECT_GT(delivered[0], Nanos{8192 + 16384});
  EXPECT_EQ(tr.counters().rnr_naks, 2u);
  EXPECT_EQ(tr.counters().rnr_backoffs, 2u);
  EXPECT_EQ(tr.counters().messages_delivered, 1u);
  EXPECT_EQ(tr.counters().rnr_exhausted, 0u);
}

TEST(TransportRnr, BudgetExhaustionFailsFlowFlushesQueueAndResetRevives) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  TransportConfig cfg = LegibleConfig();
  cfg.rnr_retry_count = 2;
  cfg.min_rnr_timer = 1;
  Transport tr(s, f, cfg);
  const int flow = tr.OpenFlow(a, b);

  bool ready = false;  // receiver never posts until after the reset
  std::vector<sim::MsgFailure> failures;
  auto make_ops = [&] {
    Transport::MessageOps ops;
    ops.rnr_probe = [&](Nanos) { return ready; };
    ops.on_deliver = [&](Nanos) { FAIL() << "delivered unready message"; };
    ops.on_failed = [&](Nanos, sim::MsgFailure why) {
      failures.push_back(why);
    };
    return ops;
  };
  tr.SendMessageEx(flow, 0, 500, make_ops());
  tr.SendMessageEx(flow, 0, 500, make_ops());  // queued behind the failure
  s.Run();

  // Budget 2: two backoffs taken, the third NAK kills the flow. The head
  // message carries the reason, the queued one flushes.
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0], sim::MsgFailure::kRnrRetryExceeded);
  EXPECT_EQ(failures[1], sim::MsgFailure::kFlushed);
  EXPECT_TRUE(tr.FlowErrored(flow));
  EXPECT_EQ(tr.counters().rnr_exhausted, 1u);
  EXPECT_EQ(tr.counters().rnr_backoffs, 2u);
  EXPECT_EQ(tr.counters().messages_failed, 2u);

  // Errored flow: a later send fails asynchronously without touching wire.
  tr.SendMessageEx(flow, 0, 500, make_ops());
  s.Run();
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_EQ(failures[2], sim::MsgFailure::kFlushed);

  // ResetFlow re-arms PSN space; with the receiver now ready it delivers.
  tr.ResetFlow(flow);
  EXPECT_FALSE(tr.FlowErrored(flow));
  ready = true;
  int delivered = 0;
  Transport::MessageOps ok;
  ok.rnr_probe = [&](Nanos) { return ready; };
  ok.on_deliver = [&](Nanos) { ++delivered; };
  tr.SendMessageEx(flow, 0, 500, std::move(ok));
  s.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(tr.counters().flow_resets, 1u);
}

TEST(TransportRnr, MidMessageAckedIntoBodyThenRnrRewindStillRecovers) {
  // Regression: ack_every/delayed ACKs land mid-message (advancing the
  // sender's base into the 8-segment SEND) before the rnr_probe rejects it
  // at the boundary; the RNR rewind then drops the receiver's expected to
  // PSN 0, *below* the acked base. The sender must reclaim [0, base) as
  // unacked — every retransmit path clamps at base, so without the rewind
  // the receiver waits forever on packets the sender believes are acked
  // and the flow dies by RTO budget for a transient RNR condition.
  auto run = [](sim::TransportMode mode) {
    sim::Simulator s;
    sim::Fabric f;
    const int a = f.Attach({8.0, 100});
    const int b = f.Attach({8.0, 100});
    TransportConfig cfg = LegibleConfig();
    cfg.mode = mode;
    cfg.rnr_retry_count = 7;
    cfg.min_rnr_timer = 1;
    cfg.retry_count = 3;  // a regression fails fast here instead of hanging
    Transport tr(s, f, cfg);
    const int flow = tr.OpenFlow(a, b);

    int rejects = 1;
    std::vector<Nanos> delivered, acked;
    std::vector<sim::MsgFailure> failures;
    Transport::MessageOps ops;
    ops.rnr_probe = [&](Nanos) { return rejects-- <= 0; };
    ops.on_deliver = [&](Nanos t) { delivered.push_back(t); };
    ops.on_acked = [&](Nanos t) { acked.push_back(t); };
    ops.on_failed = [&](Nanos, sim::MsgFailure why) {
      failures.push_back(why);
    };
    tr.SendMessageEx(flow, 0, 8000, std::move(ops));  // 8 segments
    s.Run();

    EXPECT_TRUE(failures.empty());
    EXPECT_EQ(delivered.size(), 1u);
    EXPECT_EQ(acked.size(), 1u);
    EXPECT_EQ(tr.counters().rnr_naks, 1u);
    EXPECT_EQ(tr.counters().rnr_backoffs, 1u);
    EXPECT_EQ(tr.counters().retry_exhausted, 0u);
    EXPECT_EQ(tr.counters().rnr_exhausted, 0u);
    return tr.counters();
  };
  // Go-back-N re-sends the whole message after the backoff; selective
  // repeat re-held segments 1-7 at the receiver and the NAK's SACK ranges
  // taught the sender so, costing exactly one retransmission (PSN 0).
  const auto gbn = run(sim::TransportMode::kGoBackN);
  EXPECT_EQ(gbn.retransmits, 8u);
  const auto sr = run(sim::TransportMode::kSelectiveRepeat);
  EXPECT_EQ(sr.retransmits, 1u);
}

TEST(TransportRnr, RewindOfAMessageWiderThanTheWindowResendsOnePacket) {
  // The shape above at window 64 with 80- and 200-segment messages: the
  // RNR rewind takes the sender's base back to PSN 0 while the NAK's SACK
  // marks PSNs 1 to segs - 1 received, and the receiver re-holds that
  // same span. Both PSN sets then span more than the window, so a ring of
  // `window` bits would file PSN 64 as PSN 0 and never resend it; the
  // sets must grow instead, and only PSN 0 is resent.
  for (const int segs : {80, 200}) {
    sim::Simulator s;
    sim::Fabric f;
    const int a = f.Attach({8.0, 100});
    const int b = f.Attach({8.0, 100});
    TransportConfig cfg = LegibleConfig();
    cfg.mode = sim::TransportMode::kSelectiveRepeat;
    cfg.window = 64;
    cfg.rnr_retry_count = 7;
    cfg.min_rnr_timer = 1;
    cfg.retry_count = 3;  // a regression fails fast here instead of hanging
    Transport tr(s, f, cfg);
    const int flow = tr.OpenFlow(a, b);

    int rejects = 1;
    int delivered = 0;
    int acked = 0;
    int failed = 0;
    Transport::MessageOps ops;
    ops.rnr_probe = [&](Nanos) { return rejects-- <= 0; };
    ops.on_deliver = [&](Nanos) { ++delivered; };
    ops.on_acked = [&](Nanos) { ++acked; };
    ops.on_failed = [&](Nanos, sim::MsgFailure) { ++failed; };
    tr.SendMessageEx(flow, 0, static_cast<std::uint64_t>(segs) * 1000,
                     std::move(ops));
    s.Run();

    SCOPED_TRACE(segs);
    EXPECT_EQ(failed, 0);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(acked, 1);
    EXPECT_EQ(tr.counters().rnr_naks, 1u);
    EXPECT_EQ(tr.counters().rnr_backoffs, 1u);
    EXPECT_EQ(tr.counters().retransmits, 1u);
    EXPECT_EQ(tr.counters().rto_fires, 0u);
  }
}

TEST(Transport, TimeoutExponentSetsBaseRtoAndDoublesPerConsecutiveFire) {
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  TransportConfig cfg = LegibleConfig();
  cfg.timeout_exp = 2;  // base RTO 4096 << 2 = 16384 ns, overrides cfg.rto
  Transport tr(s, f, cfg);
  const int flow = tr.OpenFlow(a, b);
  tr.DropNextData(1);
  std::vector<Nanos> acked;
  // Single-packet message: no later packet can NAK, only the RTO recovers.
  tr.SendMessage(flow, 0, 500, [](Nanos) {}, [&](Nanos t) {
    acked.push_back(t);
  });
  s.Run();
  ASSERT_EQ(acked.size(), 1u);
  // First RTO fires one 16384 ns base interval after the send completes —
  // below the 20 us legacy cfg.rto, proving the exponent is in charge.
  EXPECT_GT(acked[0], Nanos{16'384});
  EXPECT_LT(acked[0], Nanos{20'000});
  EXPECT_EQ(tr.counters().rto_fires, 1u);
  EXPECT_EQ(tr.counters().timeouts, 1u);
}

TEST(Transport, ProgressAfterABackedOffTimeoutRearmsAtTheBaseInterval) {
  // A flow keeps one pending RTO event and re-arms it lazily, but an
  // earlier deadline must still win. The first timeout doubles the
  // interval, so the event it leaves pending is due 2 x rto later.
  // Cumulative progress then resets the doubling while a second, lost
  // message is outstanding: the next timeout is due one base interval
  // after that progress, not at the doubled instant.
  sim::Simulator s;
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  Transport tr(s, f, LegibleConfig());  // rto 20 us, go-back-N
  const int flow = tr.OpenFlow(a, b);
  std::vector<Nanos> acked;
  auto on_acked = [&](Nanos t) { acked.push_back(t); };
  tr.DropNextData(1);
  tr.SendMessage(flow, 0, 500, [](Nanos) {}, on_acked);
  // The RTO at 20000 resends PSN 0 and re-arms for 20000 + 40000. Queue a
  // second one-packet message behind the resend, and lose it too.
  s.At(20'100, [&] {
    tr.DropNextData(1);
    tr.SendMessage(flow, s.now(), 500, [](Nanos) {}, on_acked);
  });
  s.Run();

  // PSN 0's resend clears a's TX pipe at 20530 and b's RX pipe at 21260;
  // its ACK lands at 21520. That progress re-arms the RTO for
  // 21520 + 20000 = 41520, which resends PSN 1 (TX 42050, RX 42780) and
  // its ACK lands at 43040. The doubled instant would have acked ~61500.
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_EQ(acked[0], 21'520);
  EXPECT_EQ(acked[1], 43'040);
  EXPECT_EQ(tr.counters().rto_fires, 2u);
  EXPECT_EQ(tr.counters().timeouts, 2u);
  EXPECT_EQ(tr.counters().retransmits, 2u);
}

// Device-level reliability bed: selective repeat + finite budgets.
class ReliabilityBed : public TransportBed {
 protected:
  ReliabilityBed() : TransportBed(ReliableConfig()) {}

  static TransportConfig ReliableConfig() {
    TransportConfig cfg = DeviceConfig();
    cfg.mode = sim::TransportMode::kSelectiveRepeat;
    cfg.retry_count = 2;       // third consecutive RTO kills the flow
    cfg.rnr_retry_count = 2;   // third consecutive RNR NAK kills the flow
    cfg.min_rnr_timer = 1;
    return cfg;
  }
};

TEST_F(ReliabilityBed, RetryExhaustionErrorsFlushesAndRearmedQpResumes) {
  auto [cqp, sqp] = ConnectedPair();
  constexpr std::size_t kLen = 4096;
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  src.Fill(0x77, kLen);

  // Blackhole the server's link: every retransmission round dies too.
  const int server_ep = bed.server.fabric_endpoint(0);
  tr.SetLinkFaults(server_ep, /*loss=*/1.0, /*corrupt=*/0.0);
  PostSendNow(cqp, MakeWrite(src.addr(), kLen, src.lkey(), dst.addr(),
                             dst.rkey()));
  PostSendNow(cqp, MakeWrite(src.addr(), kLen, src.lkey(), dst.addr(),
                             dst.rkey()));  // queued behind the failure

  // The in-flight WR surfaces the exhaustion reason, the queued one the
  // flush — in that order, and without hanging.
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRetryExcError);
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kWrFlushError);
  EXPECT_EQ(cqp->state, rnic::QpState::kError);
  EXPECT_TRUE(cqp->sq.error);
  EXPECT_EQ(bed.client.counters().qp_errors, 1u);
  EXPECT_GE(tr.counters().retry_exhausted, 1u);

  // Heal, cycle reset -> init -> RTR -> RTS on both ends, go again.
  tr.SetLinkFaults(server_ep, 0.0, 0.0);
  for (rnic::QueuePair* qp : {cqp, sqp}) {
    rnic::RnicDevice& dev = qp == cqp ? bed.client : bed.server;
    dev.ModifyQp(qp, rnic::QpState::kReset);
    dev.ModifyQp(qp, rnic::QpState::kInit);
    dev.ModifyQp(qp, rnic::QpState::kRtr);
    dev.ModifyQp(qp, rnic::QpState::kRts);
  }
  EXPECT_EQ(bed.client.counters().qp_rearms, 1u);
  EXPECT_EQ(cqp->state, rnic::QpState::kRts);
  EXPECT_FALSE(cqp->sq.error);

  PostSendNow(cqp, MakeWrite(src.addr(), kLen, src.lkey(), dst.addr(),
                             dst.rkey()));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(std::memcmp(src.bytes(), dst.bytes(), kLen), 0);
}

TEST_F(ReliabilityBed, LostReadRequestExhaustsBudgetInsteadOfHanging) {
  auto [cqp, sqp] = ConnectedPair();
  Buffer local = bed.Alloc(bed.client, 64);
  Buffer remote = bed.Alloc(bed.server, 64);
  remote.SetU64(0, 0xd00d);
  // Unlike ReadRecoversFromLostRequest, the link stays dead: the 16-byte
  // READ request burns its whole retry budget and must surface the error
  // on the requester's CQ, not hang the closed loop.
  tr.SetLinkFaults(bed.server.fabric_endpoint(0), 1.0, 0.0);
  PostSendNow(cqp, MakeRead(local.addr(), 8, local.lkey(), remote.addr(),
                            remote.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)))
      << "requester hung instead of exhausting the retry budget";
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRetryExcError);
  EXPECT_EQ(cqp->state, rnic::QpState::kError);
  EXPECT_EQ(local.U64(0), 0u);  // nothing scattered
}

TEST_F(ReliabilityBed, StalledReceiverRnrNaksThenLateRecvDelivers) {
  auto [cqp, sqp] = ConnectedPair();
  constexpr std::size_t kLen = 256;
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  src.SetU64(0, 0xfeed);
  verbs::RecvWr rwr;
  rwr.local_addr = dst.addr();
  rwr.length = kLen;
  rwr.lkey = dst.lkey();
  PostRecv(sqp, rwr);

  // The RECV is posted but the receiver reports not-ready twice: two RNR
  // NAK + backoff rounds, then the third attempt consumes it normally.
  bed.server.StallRecvsFor(sqp, 2);
  PostSendNow(cqp, MakeSend(src.addr(), kLen, src.lkey()));

  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(dst.U64(0), 0xfeedu);
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_GT(bed.sim.now(), Nanos{8192 + 16384});  // waited out both backoffs
  EXPECT_EQ(tr.counters().rnr_naks, 2u);
  EXPECT_EQ(tr.counters().rnr_backoffs, 2u);
  EXPECT_EQ(bed.server.counters().rnr_naks, 2u);
  EXPECT_EQ(sqp->rq.consumed, 1u);
}

TEST_F(ReliabilityBed, MultiSegmentSendSurvivesRnrStallAfterMidMessageAck) {
  auto [cqp, sqp] = ConnectedPair();
  constexpr std::size_t kLen = 8192;  // 8 segments at mtu 1024, ack_every 4
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  src.Fill(0x3d, kLen);
  verbs::RecvWr rwr;
  rwr.local_addr = dst.addr();
  rwr.length = kLen;
  rwr.lkey = dst.lkey();
  PostRecv(sqp, rwr);

  // Mid-message cumulative ACKs advance the sender's base into the SEND
  // before the stalled probe RNR-NAKs it at the boundary; recovery must
  // retransmit below that base instead of burning the RTO budget (2 here —
  // a regression surfaces kRetryExcError instead of hanging).
  bed.server.StallRecvsFor(sqp, 1);
  PostSendNow(cqp, MakeSend(src.addr(), kLen, src.lkey()));

  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(cqe.byte_len, kLen);
  EXPECT_EQ(std::memcmp(src.bytes(), dst.bytes(), kLen), 0);
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(cqp->state, rnic::QpState::kRts);
  EXPECT_EQ(tr.counters().rnr_backoffs, 1u);
  EXPECT_EQ(tr.counters().retry_exhausted, 0u);
  EXPECT_EQ(bed.server.counters().rnr_naks, 1u);
}

TEST_F(ReliabilityBed, RnrBudgetExhaustionSurfacesRnrRetryExcError) {
  auto [cqp, sqp] = ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 256);
  Buffer dst = bed.Alloc(bed.server, 256);
  verbs::RecvWr rwr;
  rwr.local_addr = dst.addr();
  rwr.length = 256;
  rwr.lkey = dst.lkey();
  PostRecv(sqp, rwr);
  bed.server.StallRecvsFor(sqp, 3);  // one more than the budget tolerates
  PostSendNow(cqp, MakeSend(src.addr(), 256, src.lkey()));

  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRnrRetryExcError);
  EXPECT_EQ(cqp->state, rnic::QpState::kError);
  EXPECT_GE(tr.counters().rnr_exhausted, 1u);

  // Recovery: cycle both QPs (the reset clears the stall injector and
  // discards the stranded RECV), repost it, and the retried SEND lands.
  for (rnic::QueuePair* qp : {cqp, sqp}) {
    rnic::RnicDevice& dev = qp == cqp ? bed.client : bed.server;
    dev.ModifyQp(qp, rnic::QpState::kReset);
    dev.ModifyQp(qp, rnic::QpState::kInit);
    dev.ModifyQp(qp, rnic::QpState::kRtr);
    dev.ModifyQp(qp, rnic::QpState::kRts);
  }
  PostRecv(sqp, rwr);
  src.SetU64(0, 0xcafe);
  PostSendNow(cqp, MakeSend(src.addr(), 256, src.lkey()));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(dst.U64(0), 0xcafeu);
}

TEST_F(ReliabilityBed, ResetDuringRnrBackoffPauseNeitherResurrectsNorMisfires) {
  auto [cqp, sqp] = ConnectedPair();
  constexpr std::size_t kLen = 256;
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  verbs::RecvWr rwr;
  rwr.local_addr = dst.addr();
  rwr.length = kLen;
  rwr.lkey = dst.lkey();
  PostRecv(sqp, rwr);
  bed.server.StallRecvsFor(sqp, 2);
  PostSendNow(cqp, MakeSend(src.addr(), kLen, src.lkey()));

  // Run just past the first RNR NAK: the sender is parked in the 8192 ns
  // backoff pause (min_rnr_timer = 1) with its resume timer armed.
  bed.sim.RunUntil(bed.sim.now() + 4'000);
  EXPECT_EQ(tr.counters().rnr_naks, 1u);
  EXPECT_EQ(tr.counters().rnr_backoffs, 1u);
  ASSERT_EQ(cqp->state, rnic::QpState::kRts);  // budget not exhausted

  // Reset both ends mid-pause. The healthy-QP reset abandons the paused WR
  // silently; the stale resume timer must not resurrect the old flow.
  for (rnic::QueuePair* qp : {cqp, sqp}) {
    rnic::RnicDevice& dev = qp == cqp ? bed.client : bed.server;
    dev.ModifyQp(qp, rnic::QpState::kReset);
    dev.ModifyQp(qp, rnic::QpState::kInit);
    dev.ModifyQp(qp, rnic::QpState::kRtr);
    dev.ModifyQp(qp, rnic::QpState::kRts);
  }
  // Give the dead timer (due at ~8.8 us) ample room to misbehave.
  bed.sim.RunUntil(bed.sim.now() + sim::Millis(1));
  Cqe cqe;
  EXPECT_EQ(bed.client.PollCq(cqp->send_cq, 1, &cqe), 0);  // no stray CQE
  EXPECT_EQ(bed.server.PollCq(sqp->recv_cq, 1, &cqe), 0);
  EXPECT_EQ(cqp->state, rnic::QpState::kRts);
  EXPECT_EQ(tr.counters().rnr_naks, 1u);       // timer stayed dead
  EXPECT_EQ(tr.counters().rnr_backoffs, 1u);
  EXPECT_EQ(tr.counters().rnr_exhausted, 0u);
  EXPECT_EQ(bed.client.counters().qp_errors, 0u);

  // The re-armed pair carries fresh traffic: the reset cleared the stall
  // injector, so this round completes without another NAK.
  PostRecv(sqp, rwr);
  src.SetU64(0, 0xbeef);
  PostSendNow(cqp, MakeSend(src.addr(), kLen, src.lkey()));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(dst.U64(0), 0xbeefu);
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe,
                       sim::Millis(50)));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(bed.client.PollCq(cqp->send_cq, 1, &cqe), 0);
  EXPECT_EQ(tr.counters().rnr_naks, 1u);
}

TEST(TransportScale, ReliabilityKnobsWithoutPacketizedThrow) {
  workload::FabricScaleConfig cfg;
  cfg.clients = 1;
  cfg.gets_per_client = 1;
  cfg.selective_repeat = true;  // packetized left false
  EXPECT_THROW(workload::RunFabricScale(cfg), std::invalid_argument);
  cfg.selective_repeat = false;
  cfg.retry_count = 2;
  EXPECT_THROW(workload::RunFabricScale(cfg), std::invalid_argument);
  cfg.retry_count = 0;
  workload::FaultEntry fe;
  fe.client = 0;
  fe.down_at = 1'000;
  cfg.faults.entries.push_back(fe);
  EXPECT_THROW(workload::RunFabricScale(cfg), std::invalid_argument);
  // The same plan on the packetized transport is accepted (entry validation
  // still applies: a crash entry or a bad client index stays an error).
  cfg.packetized = true;
  workload::FabricScaleConfig bad = cfg;
  bad.faults.entries[0].kind = workload::FaultKind::kCrash;
  EXPECT_THROW(workload::RunFabricScale(bad), std::invalid_argument);
  bad = cfg;
  bad.faults.entries[0].client = 7;  // only 1 client configured
  EXPECT_THROW(workload::RunFabricScale(bad), std::invalid_argument);
}

TEST(TransportScale, LossyRunFabricScaleIsDeterministicAndDegrades) {
  workload::FabricScaleConfig cfg;
  cfg.clients = 2;
  cfg.gets_per_client = 20;
  cfg.value_len = 8192;
  cfg.keys = 64;
  cfg.packetized = true;
  cfg.loss = 0.02;
  const auto r1 = workload::RunFabricScale(cfg);
  EXPECT_EQ(r1.gets, 40u);  // go-back-N answered every get despite loss
  EXPECT_GT(r1.retransmits, 0u);
  const auto r2 = workload::RunFabricScale(cfg);
  EXPECT_EQ(r1.duration_us, r2.duration_us);
  EXPECT_EQ(r1.avg_us, r2.avg_us);
  EXPECT_EQ(r1.p99_us, r2.p99_us);
  EXPECT_EQ(r1.retransmits, r2.retransmits);
  EXPECT_EQ(r1.goodput_gbps, r2.goodput_gbps);
  // The same workload without loss is strictly faster and retransmit-free.
  cfg.loss = 0.0;
  const auto clean = workload::RunFabricScale(cfg);
  EXPECT_EQ(clean.gets, 40u);
  EXPECT_EQ(clean.retransmits, 0u);
  EXPECT_EQ(clean.timeouts, 0u);
  EXPECT_GT(r1.duration_us, clean.duration_us);
  EXPECT_GE(r1.p99_us, clean.p99_us);
}

TEST(TransportScale, KillAndReconnectErrorsRearmsAndStillAnswersEveryGet) {
  workload::FabricScaleConfig cfg;
  cfg.clients = 3;
  cfg.gets_per_client = 30;
  cfg.value_len = 8192;
  cfg.keys = 64;
  cfg.packetized = true;
  cfg.loss = 0.01;
  cfg.selective_repeat = true;
  cfg.retry_count = 2;      // third consecutive RTO errors the QP
  cfg.rnr_retry_count = 4;
  cfg.timeout_exp = 2;      // 16.4 us base RTO: budgets die inside the window
  workload::FaultEntry fe;
  fe.client = 0;
  fe.kind = workload::FaultKind::kBlackhole;
  fe.down_at = 50'000;
  fe.up_at = 250'000;
  cfg.faults.entries.push_back(fe);
  // Four loss realizations: base + k, where base keeps the CI seed offset.
  const std::uint64_t base = cfg.transport_seed + SeedOffset();
  std::uint64_t error_cqes = 0;
  for (std::uint64_t k = 0; k < 4; ++k) {
    SCOPED_TRACE("transport seed base+" + std::to_string(k));
    cfg.transport_seed = base + k;
    const auto r1 = workload::RunFabricScale(cfg);
    // The run completes bounded — client 0's dead window costs wall time,
    // not gets: its failed request is reissued after the reset->RTS re-arm.
    EXPECT_EQ(r1.gets, 90u);
    EXPECT_GT(r1.qp_errors, 0u);
    EXPECT_GT(r1.qp_rearms, 0u);
    EXPECT_GE(r1.flow_resets, 2u);  // both directions of client 0's QP pair
    EXPECT_GT(r1.rto_fires, 0u);
    error_cqes += r1.error_cqes;
    // Same-seed bit-stability across every new fault hook.
    const auto r2 = workload::RunFabricScale(cfg);
    EXPECT_EQ(r1.duration_us, r2.duration_us);
    EXPECT_EQ(r1.avg_us, r2.avg_us);
    EXPECT_EQ(r1.p99_us, r2.p99_us);
    EXPECT_EQ(r1.retransmits, r2.retransmits);
    EXPECT_EQ(r1.sack_retransmits, r2.sack_retransmits);
    EXPECT_EQ(r1.rto_fires, r2.rto_fires);
    EXPECT_EQ(r1.goodput_gbps, r2.goodput_gbps);
    EXPECT_EQ(r1.error_cqes, r2.error_cqes);
    EXPECT_EQ(r1.qp_errors, r2.qp_errors);
    EXPECT_EQ(r1.qp_rearms, r2.qp_rearms);
    EXPECT_EQ(r1.flow_resets, r2.flow_resets);
  }
  // Flushed RECVs surface as error CQEs, not counted as gets — but only
  // when client 0's own QP errors, which depends on whether it had unacked
  // data at partition time: one loss realization's detail. Some seed of
  // the four must show it.
  EXPECT_GT(error_cqes, 0u);
}

}  // namespace
}  // namespace redn::test
