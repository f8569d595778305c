// Tests for the baseline systems: one-sided gets, two-sided RPC serving
// (polling/event/VMA), and the Memcached facade with failure injection.
#include <gtest/gtest.h>

#include "baseline/one_sided.h"
#include "sim/stats.h"
#include "baseline/two_sided.h"
#include "kv/memcached.h"
#include "testbed.h"

namespace redn::test {
namespace {

using baseline::OneSidedKvClient;
using baseline::TwoSidedKvClient;
using baseline::TwoSidedKvServer;

class BaselineTest : public ::testing::Test {
 protected:
  TestBed bed;
};

struct ServerRig {
  kv::RdmaHashTable table;
  kv::ValueHeap heap;
  TwoSidedKvServer server;

  ServerRig(TestBed& bed, TwoSidedKvServer::Mode mode)
      : table(bed.server, {.buckets = 1 << 12}),
        heap(bed.server, 64 << 20),
        server(bed.server, table, heap, mode) {}

  void Put(std::uint64_t key, std::uint32_t len) {
    std::vector<std::byte> v(len, static_cast<std::byte>(key & 0xff));
    table.Insert(key, heap.Store(v.data(), len), len);
  }
};

TEST_F(BaselineTest, TwoSidedGetReturnsValue) {
  ServerRig rig(bed, TwoSidedKvServer::Mode::kPolling);
  rig.Put(42, 64);
  TwoSidedKvClient client(bed.client, rig.server);
  auto r = client.Get(42);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.latency, 0);
  EXPECT_EQ(rig.server.gets_served(), 1u);
}

TEST_F(BaselineTest, TwoSidedSetInsertsKey) {
  ServerRig rig(bed, TwoSidedKvServer::Mode::kPolling);
  TwoSidedKvClient client(bed.client, rig.server);
  auto r = client.Set(7, 64);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(rig.table.Lookup(7).has_value());
  EXPECT_EQ(rig.server.sets_served(), 1u);
}

TEST_F(BaselineTest, PollingLatencyInExpectedBand) {
  // Fig 10 regime: two-sided polling gets land around 7-10 us at 64 B.
  ServerRig rig(bed, TwoSidedKvServer::Mode::kPolling);
  rig.Put(1, 64);
  TwoSidedKvClient client(bed.client, rig.server);
  auto r = client.Get(1);
  ASSERT_TRUE(r.ok);
  const double us = sim::ToMicros(r.latency);
  EXPECT_GT(us, 5.0);
  EXPECT_LT(us, 12.0);
}

TEST_F(BaselineTest, EventModeAddsWakeupLatency) {
  ServerRig pol(bed, TwoSidedKvServer::Mode::kPolling);
  pol.Put(1, 64);
  TwoSidedKvClient pc(bed.client, pol.server);
  const auto p = pc.Get(1);

  TestBed bed2;
  ServerRig evt(bed2, TwoSidedKvServer::Mode::kEvent);
  evt.Put(1, 64);
  TwoSidedKvClient ec(bed2.client, evt.server);
  const auto e = ec.Get(1);

  ASSERT_TRUE(p.ok && e.ok);
  EXPECT_GT(e.latency, p.latency + sim::Micros(10));
}

TEST_F(BaselineTest, VmaModeSlowerThanPlainPolling) {
  ServerRig pol(bed, TwoSidedKvServer::Mode::kPolling);
  pol.Put(1, 4096);
  TwoSidedKvClient pc(bed.client, pol.server);
  const auto p = pc.Get(1);

  TestBed bed2;
  ServerRig vma(bed2, TwoSidedKvServer::Mode::kVma);
  vma.Put(1, 4096);
  TwoSidedKvClient vc(bed2.client, vma.server);
  const auto v = vc.Get(1);

  ASSERT_TRUE(p.ok && v.ok);
  EXPECT_GT(v.latency, p.latency + sim::Micros(6));
}

TEST_F(BaselineTest, DeadServerDropsRequests) {
  ServerRig rig(bed, TwoSidedKvServer::Mode::kPolling);
  rig.Put(1, 64);
  rig.server.set_alive(false);
  TwoSidedKvClient client(bed.client, rig.server);
  auto r = client.Get(1, sim::Micros(200));
  EXPECT_FALSE(r.ok);
  rig.server.set_alive(true);
  r = client.Get(1);
  EXPECT_TRUE(r.ok);
}

TEST_F(BaselineTest, ContentionInflatesLatency) {
  ServerRig rig(bed, TwoSidedKvServer::Mode::kPolling);
  rig.Put(1, 64);
  TwoSidedKvClient client(bed.client, rig.server);
  const auto quiet = client.Get(1);

  // Synthetic contention: mark 16 writers (noise) — averages and especially
  // tails must grow. Sample several gets.
  rig.server.set_writers(16);
  sim::LatencyRecorder rec;
  for (int i = 0; i < 200; ++i) {
    auto r = client.Get(1, sim::Millis(50));
    ASSERT_TRUE(r.ok);
    rec.Add(r.latency);
  }
  ASSERT_TRUE(quiet.ok);
  EXPECT_GT(rec.PercentileNs(99), 3 * quiet.latency);
}

TEST_F(BaselineTest, OneSidedGetFindsValueInTwoReads) {
  kv::RdmaHashTable table(bed.server, {.buckets = 1 << 12});
  kv::ValueHeap heap(bed.server, 16 << 20);
  std::vector<std::byte> v(64, std::byte{0x7e});
  table.Insert(42, heap.Store(v.data(), 64), 64);

  OneSidedKvClient client(bed.client, bed.server, table, heap);
  auto r = client.Get(42);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.len, 64u);
  EXPECT_EQ(r.reads_issued, 2);  // neighbourhood + value
  // Two RTTs plus client software: well above one RTT, below two-sided+VMA.
  EXPECT_GT(sim::ToMicros(r.latency), 5.0);
  EXPECT_LT(sim::ToMicros(r.latency), 16.0);
}

TEST_F(BaselineTest, OneSidedFallsBackToSecondBucket) {
  kv::RdmaHashTable table(bed.server, {.buckets = 1 << 12});
  kv::ValueHeap heap(bed.server, 16 << 20);
  std::vector<std::byte> v(32, std::byte{0x11});
  table.Insert(55, heap.Store(v.data(), 32), 32, /*force_second=*/true);

  OneSidedKvClient client(bed.client, bed.server, table, heap);
  auto r = client.Get(55);
  // H2 may coincide with the H1 neighbourhood; usually it does not.
  ASSERT_TRUE(r.found);
  EXPECT_GE(r.reads_issued, 2);
  EXPECT_LE(r.reads_issued, 3);
}

TEST_F(BaselineTest, OneSidedMissReturnsNotFound) {
  kv::RdmaHashTable table(bed.server, {.buckets = 1 << 12});
  kv::ValueHeap heap(bed.server, 16 << 20);
  OneSidedKvClient client(bed.client, bed.server, table, heap);
  EXPECT_FALSE(client.Get(123).found);
}

TEST_F(BaselineTest, MemcachedFacadeServesAndCrashes) {
  kv::MemcachedServer mc(bed.server,
                         {.rpc_mode = TwoSidedKvServer::Mode::kPolling});
  mc.SetPattern(5, 64);
  TwoSidedKvClient client(bed.client, mc.rpc());
  EXPECT_TRUE(client.Get(5).ok);

  mc.CrashProcess();
  EXPECT_FALSE(mc.process_alive());
  EXPECT_FALSE(client.Get(5, sim::Micros(300)).ok);

  // After the 1 s restart + the 125 us rebuild the server answers again.
  bed.sim.RunUntil(bed.sim.now() + sim::Seconds(1.001));
  EXPECT_TRUE(mc.process_alive());
  EXPECT_TRUE(client.Get(5).ok);
}

TEST_F(BaselineTest, MemcachedRebuildScalesWithItems) {
  kv::MemcachedServer mc(bed.server,
                         {.rpc_mode = TwoSidedKvServer::Mode::kPolling});
  for (int k = 1; k <= 1000; ++k) mc.SetPattern(k, 8);
  const sim::Nanos t0 = bed.sim.now();
  mc.CrashProcess();
  while (!mc.process_alive()) {
    if (!bed.sim.Step()) break;
  }
  const sim::Nanos downtime = bed.sim.now() - t0;
  // 1 s restart + 1000 * 125 us rebuild = 1.125 s.
  EXPECT_NEAR(sim::ToSeconds(downtime), 1.125, 0.01);
}

TEST_F(BaselineTest, MemcachedSetUpdatesInPlace) {
  kv::MemcachedServer mc(bed.server, {});
  mc.SetPattern(9, 64);
  const auto before = mc.table().Lookup(9);
  mc.SetPattern(9, 64);
  const auto after = mc.table().Lookup(9);
  ASSERT_TRUE(before && after);
  EXPECT_EQ(before->ptr, after->ptr);  // no heap leak on update
}

}  // namespace
}  // namespace redn::test
