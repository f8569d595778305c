// Shared-fabric tests: link math, receiver-side contention, device routing,
// and the N-client scale-out experiment (determinism + genuine sharing).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/fabric.h"
#include "testbed.h"
#include "workload/experiments.h"
#include "workload_printers.h"

namespace redn::test {
namespace {

using rnic::Connect;
using rnic::ConnectOverFabric;
using verbs::AwaitCqe;
using verbs::Cqe;
using verbs::MakeWrite;
using verbs::PostSendNow;

// One store-and-forward transfer of `bytes` leaving `src` at `t`: TX
// serialization, one-way propagation, then RX serialization — the walk the
// device's fabric path splits across its requester and responder legs.
// Returns the instant the last byte lands at `dst`.
sim::Nanos Transfer(sim::Fabric& f, int src, int dst, sim::Nanos t,
                    std::uint64_t bytes) {
  const sim::Nanos at_dst = f.ReserveTx(src, t, bytes) + f.OneWay(src, dst);
  return f.ReserveRx(dst, at_dst, bytes);
}

TEST(Fabric, OneWayAndUncontendedDelivery) {
  sim::Fabric f(/*switch_latency=*/10);
  // 8 Gbps = 1 ns/byte keeps the arithmetic legible.
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  EXPECT_EQ(f.OneWay(a, b), 210);
  // 1000 B: TX serialization 1000, propagation 210, RX serialization 1000.
  EXPECT_EQ(Transfer(f, a, b, 0, 1000), 2210);
  // The pipes are free again by t=10000; a later transfer pays its own
  // serialization on each pipe plus propagation: 10000 + 500 + 210 + 500.
  EXPECT_EQ(Transfer(f, a, b, 10'000, 500), 11'210);
}

TEST(Fabric, ReceiverLinkQueuesConcurrentSenders) {
  sim::Fabric f;
  const int a = f.Attach({8.0, 100});
  const int b = f.Attach({8.0, 100});
  const int c = f.Attach({8.0, 100});
  // Two senders, one receiver, both transfers leave at t=0: each serializes
  // its own TX in parallel, but c's RX pipe takes them one after the other.
  EXPECT_EQ(Transfer(f, a, c, 0, 1000), 2200);
  EXPECT_EQ(Transfer(f, b, c, 0, 1000), 3200);  // queued behind a's bytes
  EXPECT_GT(f.RxUtilisation(c, 3200), 0.6);
}

TEST(Fabric, SameSourceSerializesOnItsTxLink) {
  sim::Fabric f;
  const int a = f.Attach({8.0, 0});
  const int b = f.Attach({8.0, 0});
  EXPECT_EQ(Transfer(f, a, b, 0, 1000), 2000);
  // Second transfer from the same source departs only once the TX pipe
  // frees at t=2000, then serializes into RX right behind the first.
  EXPECT_EQ(Transfer(f, a, b, 0, 1000), 3000);
}

TEST(Fabric, UtilisationTruncatesAtWindowAndNeverExceedsOne) {
  sim::Fabric f;
  const int a = f.Attach({8.0, 0});  // 1 ns/byte
  const int b = f.Attach({8.0, 0});
  Transfer(f, a, b, 0, 10'000);  // both pipes busy for 10 us
  // A window shorter than the accumulated busy time used to report > 1.0;
  // the busy interval is truncated at the window boundary instead.
  EXPECT_EQ(f.TxUtilisation(a, 100), 1.0);  // TX busy solid over [0, 10000]
  EXPECT_EQ(f.TxUtilisation(a, 0), 0.0);
  // Store-and-forward: the RX pipe serializes over [10000, 20000], so it
  // was idle inside a [0, 100] window and exactly 1/3 busy inside
  // [0, 15000] — never the old busy/window quotient of 100x.
  EXPECT_EQ(f.RxUtilisation(b, 100), 0.0);
  EXPECT_DOUBLE_EQ(f.RxUtilisation(b, 15'000), 5'000.0 / 15'000.0);
  // A window covering everything reports the exact busy fraction.
  EXPECT_DOUBLE_EQ(f.TxUtilisation(a, 20'000), 0.5);
  EXPECT_DOUBLE_EQ(f.TxUtilisation(a, 10'000), 1.0);
}

class FabricBed : public ::testing::Test {
 protected:
  // A server and two clients on a shared fabric (server link = client link).
  FabricBed() {
    server.AttachPort(0, fabric, {25.0, 125});
    client1.AttachPort(0, fabric, {25.0, 125});
    client2.AttachPort(0, fabric, {25.0, 125});
  }

  rnic::QueuePair* MakeQp(rnic::RnicDevice& dev) {
    rnic::QpConfig c;
    c.send_cq = dev.CreateCq();
    c.recv_cq = dev.CreateCq();
    return dev.CreateQp(c);
  }

  sim::Simulator sim;
  sim::Fabric fabric;
  rnic::RnicDevice server{sim, rnic::NicConfig::ConnectX5(), {}, "server"};
  rnic::RnicDevice client1{sim, rnic::NicConfig::ConnectX5(), {}, "client1"};
  rnic::RnicDevice client2{sim, rnic::NicConfig::ConnectX5(), {}, "client2"};
};

TEST_F(FabricBed, WriteOverFabricDeliversAndCompletes) {
  rnic::QueuePair* cqp = MakeQp(client1);
  rnic::QueuePair* sqp = MakeQp(server);
  ConnectOverFabric(cqp, sqp);
  auto src = std::make_unique<std::byte[]>(64);
  auto dst = std::make_unique<std::byte[]>(64);
  auto smr = client1.pd().Register(src.get(), 64, rnic::kAccessAll);
  auto dmr = server.pd().Register(dst.get(), 64, rnic::kAccessAll);
  rnic::dma::WriteU64(smr.addr, 0xfeedu);
  PostSendNow(cqp, MakeWrite(smr.addr, 8, smr.lkey, dmr.addr, dmr.rkey));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(sim, client1, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(rnic::dma::ReadU64(dmr.addr), 0xfeedu);
  // Latency must include both propagation legs plus serialization on two
  // pipes — strictly more than the old constant-wire model's floor.
  EXPECT_GT(sim.now(), 2 * 125);
  EXPECT_GT(fabric.TxUtilisation(client1.fabric_endpoint(0), sim.now()), 0.0);
  EXPECT_GT(fabric.RxUtilisation(server.fabric_endpoint(0), sim.now()), 0.0);
}

TEST_F(FabricBed, ReadOverFabricReturnsDataAndChargesResponder) {
  rnic::QueuePair* cqp = MakeQp(client1);
  rnic::QueuePair* sqp = MakeQp(server);
  ConnectOverFabric(cqp, sqp);
  auto local = std::make_unique<std::byte[]>(64);
  auto remote = std::make_unique<std::byte[]>(64);
  auto lmr = client1.pd().Register(local.get(), 64, rnic::kAccessAll);
  auto rmr = server.pd().Register(remote.get(), 64, rnic::kAccessAll);
  rnic::dma::WriteU64(rmr.addr, 0xabcdu);
  PostSendNow(cqp, verbs::MakeRead(lmr.addr, 8, lmr.lkey, rmr.addr, rmr.rkey));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(sim, client1, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(rnic::dma::ReadU64(lmr.addr), 0xabcdu);
  // The response payload rides the responder's TX pipe back.
  EXPECT_GT(fabric.TxUtilisation(server.fabric_endpoint(0), sim.now()), 0.0);
  EXPECT_GT(fabric.RxUtilisation(client1.fabric_endpoint(0), sim.now()), 0.0);
}

TEST_F(FabricBed, TwoClientsContendOnServerRxLink) {
  // Each client fires one 64 KiB write at the same instant; the second
  // arrival is pushed back by the first one's RX serialization.
  rnic::QueuePair* c1 = MakeQp(client1);
  rnic::QueuePair* c2 = MakeQp(client2);
  rnic::QueuePair* s1 = MakeQp(server);
  rnic::QueuePair* s2 = MakeQp(server);
  ConnectOverFabric(c1, s1);
  ConnectOverFabric(c2, s2);
  constexpr std::size_t kLen = 64 << 10;
  auto src1 = std::make_unique<std::byte[]>(kLen);
  auto src2 = std::make_unique<std::byte[]>(kLen);
  auto dst = std::make_unique<std::byte[]>(2 * kLen);
  auto m1 = client1.pd().Register(src1.get(), kLen, rnic::kAccessAll);
  auto m2 = client2.pd().Register(src2.get(), kLen, rnic::kAccessAll);
  auto md = server.pd().Register(dst.get(), 2 * kLen, rnic::kAccessAll);
  PostSendNow(c1, MakeWrite(m1.addr, kLen, m1.lkey, md.addr, md.rkey));
  PostSendNow(c2, MakeWrite(m2.addr, kLen, m2.lkey, md.addr + kLen, md.rkey));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(sim, client1, c1->send_cq, &cqe));
  const sim::Nanos t1 = cqe.completed_at;
  ASSERT_TRUE(AwaitCqe(sim, client2, c2->send_cq, &cqe));
  const sim::Nanos t2 = cqe.completed_at;
  // The server RX pipe at 25 Gbps spends ~21 us per 64 KiB transfer; the
  // loser of the race finishes at least one serialization later.
  const sim::Nanos ser =
      fabric.SerializationDelay(server.fabric_endpoint(0), kLen);
  EXPECT_GT(ser, 20'000);
  EXPECT_GE(t2 - t1, ser / 2) << "no queueing at the shared server link";
}

TEST(FabricScale, DeterministicAndContended) {
  workload::FabricScaleConfig cfg;
  cfg.clients = 4;
  cfg.gets_per_client = 25;
  cfg.value_len = 16384;
  cfg.keys = 64;
  const auto r1 = workload::RunFabricScale(cfg);
  EXPECT_EQ(r1.gets, 100u);  // every get answered
  // Bit-stable: an identical config reproduces every simulated field.
  EXPECT_EQ(r1, workload::RunFabricScale(cfg));
  // Genuine sharing: four clients on one 25 Gbps server link cannot scale
  // linearly, and the shared link must be visibly busy.
  cfg.clients = 1;
  cfg.gets_per_client = 25;
  const auto one = workload::RunFabricScale(cfg);
  EXPECT_EQ(one.gets, 25u);
  EXPECT_LT(r1.gets_per_sec, 3.9 * one.gets_per_sec);
  EXPECT_GE(r1.p99_us, one.p99_us);
  EXPECT_GT(r1.server_tx_util, 0.5);
}

TEST(FabricScale, NoClientsIsRejected) {
  // Used to crash: the visible-key scan read client 0.
  workload::FabricScaleConfig cfg;
  cfg.clients = 0;
  try {
    workload::RunFabricScale(cfg);
    ADD_FAILURE() << "clients = 0 ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("clients must be >= 1, got 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(FabricScale, NoKeysIsRejected) {
  // Used to throw std::runtime_error "no NIC-visible keys".
  workload::FabricScaleConfig cfg;
  cfg.keys = 0;
  try {
    workload::RunFabricScale(cfg);
    ADD_FAILURE() << "keys = 0 ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("keys must be >= 1, got 0"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace redn::test
