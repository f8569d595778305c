// Chain-ordered writes + recovery: puts ack only after the successor
// durably applied, acked writes survive fault windows, a crashed shard
// re-joins through anti-entropy re-sync, and the gray-failure kinds
// (flaky bursts, slow links) degrade without losing anything.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "kv/resync.h"
#include "kv/table.h"
#include "sim/transport.h"
#include "testbed.h"
#include "workload/kv_service.h"

namespace redn::test {
namespace {

using workload::FaultEntry;
using workload::FaultKind;
using workload::KvServiceConfig;
using workload::KvServiceResult;
using workload::RunKvService;

KvServiceConfig MixedConfig() {
  KvServiceConfig cfg;
  cfg.shards = 3;
  cfg.tenants = 3;
  cfg.gets_per_tenant = 60;  // ops per tenant (the put mix draws from these)
  cfg.keys = 2'000;
  cfg.value_len = 256;
  cfg.put_fraction = 0.3;
  return cfg;
}

std::uint64_t Ops(const KvServiceResult& r) { return r.gets + r.puts; }

// --- healthy write path ------------------------------------------------------

TEST(KvRecovery, HealthyMixedRunAcksEveryPutThroughTheChain) {
  const KvServiceResult r = RunKvService(MixedConfig());
  EXPECT_EQ(Ops(r), 180u);
  EXPECT_EQ(r.unanswered, 0u);
  EXPECT_GT(r.puts, 0u);
  EXPECT_GT(r.gets, 0u);
  // No faults: every ack carries both replicas, via a chain forward each.
  EXPECT_EQ(r.acked_puts_full, r.puts);
  EXPECT_EQ(r.degraded_acks, 0u);
  EXPECT_GE(r.chain_forwards, r.puts);
  EXPECT_EQ(r.put_retries, 0u);
  // The invariants the write path exists for.
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_EQ(r.ryw_violations, 0u);
  EXPECT_EQ(r.value_divergence, 0u);
  // A put costs a forward + an ack on top of a get's round trip.
  EXPECT_GT(r.put_p50_us, 0.0);
  EXPECT_GE(r.put_p99_us, r.put_p50_us);
  std::uint64_t tenant_puts = 0;
  for (const auto& t : r.tenants) tenant_puts += t.puts;
  EXPECT_EQ(tenant_puts, r.puts);
}

TEST(KvRecovery, MixedRunsAreBitStable) {
  KvServiceConfig cfg = MixedConfig();
  FaultEntry crash;
  crash.server = 1;
  crash.kind = FaultKind::kCrash;
  crash.down_at = 50'000;
  crash.up_at = sim::Millis(2);
  cfg.faults.entries.push_back(crash);
  const KvServiceResult a = RunKvService(cfg);
  const KvServiceResult b = RunKvService(cfg);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.acked_puts_full, b.acked_puts_full);
  EXPECT_EQ(a.degraded_acks, b.degraded_acks);
  EXPECT_EQ(a.chain_forwards, b.chain_forwards);
  EXPECT_EQ(a.resync_keys_applied, b.resync_keys_applied);
  EXPECT_EQ(a.resync_keys_kept, b.resync_keys_kept);
  EXPECT_EQ(a.degraded_window_us, b.degraded_window_us);
  EXPECT_EQ(a.put_p999_us, b.put_p999_us);
  EXPECT_EQ(a.p999_us, b.p999_us);
  EXPECT_EQ(a.data_packets, b.data_packets);
  EXPECT_EQ(a.events, b.events);
}

// --- degraded writes ---------------------------------------------------------

TEST(KvRecovery, PutsDuringBlackholeDegradeToLoneReplicaAndHealResyncs) {
  KvServiceConfig cfg = MixedConfig();
  cfg.gets_per_tenant = 100;
  cfg.put_fraction = 0.5;
  FaultEntry bh;
  bh.server = 0;
  bh.kind = FaultKind::kBlackhole;
  bh.down_at = 30'000;
  bh.up_at = sim::Millis(3);
  cfg.faults.entries.push_back(bh);

  const KvServiceResult r = RunKvService(cfg);
  EXPECT_EQ(Ops(r), 300u);
  EXPECT_EQ(r.unanswered, 0u);
  // Writes inside the window could not reach shard 0: the surviving
  // replica acked alone and shard 0 went stale.
  EXPECT_GT(r.degraded_acks, 0u);
  EXPECT_LT(r.degraded_acks, r.puts);
  // The stale shard's heal ran anti-entropy before re-opening.
  EXPECT_GE(r.resyncs_started, 1u);
  EXPECT_GT(r.resync_keys_scanned, 0u);
  EXPECT_EQ(r.resync_failures, 0u);
  // Every acked write is still durable where it was acked, and the
  // resync erased the replica drift the window caused.
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_EQ(r.ryw_violations, 0u);
  EXPECT_EQ(r.value_divergence, 0u);
  // The degraded window is bounded and reported: at least the fault
  // window itself, and not the whole run.
  EXPECT_GE(r.degraded_window_us, sim::ToMicros(bh.up_at - bh.down_at));
  EXPECT_LT(r.degraded_window_us, sim::ToMicros(cfg.horizon));
}

// --- crash + re-join ---------------------------------------------------------

TEST(KvRecovery, CrashedShardRejoinsThroughAntiEntropyResync) {
  KvServiceConfig cfg = MixedConfig();
  cfg.gets_per_tenant = 100;
  FaultEntry crash;
  crash.server = 1;
  crash.kind = FaultKind::kCrash;
  crash.down_at = 40'000;
  crash.up_at = sim::Millis(2);
  cfg.faults.entries.push_back(crash);

  const KvServiceResult r = RunKvService(cfg);
  EXPECT_EQ(Ops(r), 300u);
  EXPECT_EQ(r.unanswered, 0u);
  EXPECT_EQ(r.faults_applied, 1u);
  EXPECT_EQ(r.heals_applied, 1u);
  EXPECT_EQ(r.rejoins, 1u);
  // The re-joiner streamed its whole key range back from its chain peers.
  EXPECT_GE(r.resyncs_started, 1u);
  EXPECT_GT(r.resync_keys_scanned, 0u);
  EXPECT_GT(r.resync_keys_applied, 0u);
  EXPECT_GT(r.resync_bytes, 0u);
  EXPECT_EQ(r.resync_failures, 0u);
  // Nothing acked was lost, read-your-writes held, replicas converged.
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_EQ(r.ryw_violations, 0u);
  EXPECT_EQ(r.value_divergence, 0u);
  // down -> serving spans the outage plus the transfer, so it exceeds
  // the raw window; it is still bounded (reported, and far under the
  // horizon — the re-sync drains promptly, it does not linger).
  EXPECT_GE(r.degraded_window_us, sim::ToMicros(crash.up_at - crash.down_at));
  EXPECT_LT(r.degraded_window_us,
            2.0 * sim::ToMicros(crash.up_at - crash.down_at));
}

TEST(KvRecovery, PureGetCrashRejoinServesEveryGet) {
  // put_fraction = 0 but a healing crash still versions the store so the
  // re-join wipe + re-sync have tags to reconcile on.
  KvServiceConfig cfg = MixedConfig();
  cfg.put_fraction = 0.0;
  cfg.gets_per_tenant = 100;
  FaultEntry crash;
  crash.server = 2;
  crash.kind = FaultKind::kCrash;
  crash.down_at = 40'000;
  crash.up_at = sim::Millis(2);
  cfg.faults.entries.push_back(crash);
  const KvServiceResult r = RunKvService(cfg);
  EXPECT_EQ(r.gets, 300u);
  EXPECT_EQ(r.puts, 0u);
  EXPECT_EQ(r.unanswered, 0u);
  EXPECT_EQ(r.rejoins, 1u);
  EXPECT_GE(r.resyncs_started, 1u);
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_EQ(r.value_divergence, 0u);
}

// --- gray failures -----------------------------------------------------------

TEST(KvRecovery, FlakyWindowDegradesButLosesNothing) {
  KvServiceConfig cfg = MixedConfig();
  cfg.gets_per_tenant = 100;
  cfg.retry_count = 8;  // ride out bursts instead of declaring death
  FaultEntry flaky;
  flaky.server = 0;
  flaky.kind = FaultKind::kFlaky;
  flaky.down_at = 30'000;
  flaky.up_at = sim::Millis(4);
  cfg.faults.entries.push_back(flaky);

  const KvServiceResult r = RunKvService(cfg);
  EXPECT_EQ(Ops(r), 300u);
  EXPECT_EQ(r.unanswered, 0u);
  // Loss bursts force transport-level recovery.
  EXPECT_GT(r.retransmits, 0u);
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_EQ(r.ryw_violations, 0u);
  EXPECT_EQ(r.value_divergence, 0u);

  // Same seed, same bursts, same result.
  const KvServiceResult again = RunKvService(cfg);
  EXPECT_EQ(again.retransmits, r.retransmits);
  EXPECT_EQ(again.p999_us, r.p999_us);
  EXPECT_EQ(again.events, r.events);

  // A different seed draws different burst boundaries.
  KvServiceConfig reseeded = cfg;
  reseeded.seed = 2;
  const KvServiceResult other = RunKvService(reseeded);
  EXPECT_NE(other.events, r.events);
}

// At one transport retry, a response that runs out of retries inside a
// flaky window errors the get harness's server QP alone. The client sees
// no CQE and the keepalives ride their own healthy QP pair, so no detour
// fires: unless the heal re-arms a harness that errored on the shard side
// only, the tenant's get hangs until the horizon (47, 128 and 214 of 300
// ops in these three runs).
TEST(KvRecovery, HealRearmsAGetHarnessErroredOnlyOnTheShardSide) {
  struct Run {
    std::uint64_t seed;
    int sim_shards;
    std::vector<int> placement;
  };
  for (const Run& run :
       {Run{2, 1, {}}, Run{3, 1, {}}, Run{1, 2, {0, 1, 0}}}) {
    SCOPED_TRACE("seed " + std::to_string(run.seed) + ", " +
                 std::to_string(run.sim_shards) + " domain(s)");
    KvServiceConfig cfg = MixedConfig();
    cfg.gets_per_tenant = 100;
    cfg.retry_count = 1;
    cfg.horizon = sim::Millis(100);
    cfg.seed = run.seed;
    cfg.sim_shards = run.sim_shards;
    cfg.placement = run.placement;
    FaultEntry flaky;
    flaky.server = 0;
    flaky.kind = FaultKind::kFlaky;
    flaky.down_at = 30'000;
    flaky.up_at = sim::Millis(4);
    flaky.flaky_loss = 0.5;
    cfg.faults.entries.push_back(flaky);

    const KvServiceResult r = RunKvService(cfg);
    EXPECT_EQ(r.unanswered, 0u);
    EXPECT_EQ(Ops(r), 300u);
    EXPECT_EQ(r.lost_acked_writes, 0u);
    EXPECT_EQ(r.ryw_violations, 0u);
    EXPECT_EQ(r.value_divergence, 0u);
  }
}

TEST(KvRecovery, SlowLinkStretchesTailsWithoutFailover) {
  KvServiceConfig cfg = MixedConfig();
  cfg.gets_per_tenant = 100;
  FaultEntry slow;
  slow.server = 0;
  slow.kind = FaultKind::kSlow;
  slow.down_at = 30'000;
  slow.up_at = sim::Millis(2);
  slow.slow_ns = 30'000;
  cfg.faults.entries.push_back(slow);

  const KvServiceResult base = RunKvService(MixedConfig());
  const KvServiceResult r = RunKvService(cfg);
  EXPECT_EQ(Ops(r), 300u);
  EXPECT_EQ(r.unanswered, 0u);
  // Latency, not loss: no QP died, nothing needed re-syncing.
  EXPECT_EQ(r.qp_errors, 0u);
  EXPECT_EQ(r.resyncs_started, 0u);
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_EQ(r.value_divergence, 0u);
  EXPECT_GT(r.p999_us, base.p999_us);
  // The window is reported as exactly the configured span.
  EXPECT_DOUBLE_EQ(r.degraded_window_us,
                   sim::ToMicros(slow.up_at - slow.down_at));
}

// --- writes missed mid-resync ------------------------------------------------

// bench_scale_recovery's fault plan at 1000 ops per tenant. While shard 1
// re-syncs, degraded puts at its successor can land after the session has
// already read the donor's copy of the key; unless a follow-up pass
// re-reads those keys, shard 1 later chain-forwards a version computed
// from its stale copy over an acked one. Seeds 1 and 3 hit that window.
TEST(KvRecovery, WritesMissedDuringResyncAreReReadBeforeServing) {
  for (const std::uint64_t seed : {1u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    KvServiceConfig cfg;
    cfg.shards = 4;
    cfg.tenants = 4;
    cfg.gets_per_tenant = 1000;
    cfg.keys = 100'000;
    cfg.put_fraction = 0.3;
    cfg.seed = seed;
    FaultEntry crash;
    crash.server = 1;
    crash.kind = FaultKind::kCrash;
    crash.down_at = 60'000;
    crash.up_at = sim::Millis(1);
    cfg.faults.entries.push_back(crash);
    FaultEntry slow;
    slow.server = 2;
    slow.kind = FaultKind::kSlow;
    slow.down_at = crash.up_at + 500'000;
    slow.up_at = slow.down_at + 500'000;
    slow.slow_ns = 30'000;
    cfg.faults.entries.push_back(slow);

    const KvServiceResult r = RunKvService(cfg);
    EXPECT_EQ(r.unanswered, 0u);
    EXPECT_EQ(r.rejoins, 1u);
    // The full pass plus at least one follow-up pass of missed keys.
    EXPECT_GT(r.resyncs_started, 2u);
    EXPECT_EQ(r.lost_acked_writes, 0u);
    EXPECT_EQ(r.ryw_violations, 0u);
    EXPECT_EQ(r.value_divergence, 0u);
  }
}

// --- a second fault mid-resync -----------------------------------------------

// Shard 1 crashes over [50 us, 1 ms] and re-joins; a second window opens
// while its re-sync still runs. The second heal must join the running
// recovery rather than start one beside it: two recoveries shared QP pairs
// and CQ hooks (a heap overflow in a session's staging slots, seed 1 on 2
// domains and the flaky window at seed 2), or the first reopened routing
// mid-transfer (a lost acked write at seed 1). A session whose own or
// donor's link dies must hand its keys to the next pass: counted as
// drained, a blackhole on donor 2 let shard 1 serve keys it never read
// (a lost acked write at seed 3). A second crash mid-re-sync drops the
// recovery, and the re-join runs a fresh one.
TEST(KvRecovery, SecondFaultMidResyncJoinsTheRecovery) {
  struct Cell {
    const char* name;
    FaultEntry second;
    std::uint64_t seed;
    int sim_shards;
    std::vector<int> placement;
  };
  auto window = [](int server, FaultKind kind, sim::Nanos down_at,
                   sim::Nanos up_at) {
    FaultEntry e;
    e.server = server;
    e.kind = kind;
    e.down_at = down_at;
    e.up_at = up_at;
    return e;
  };
  const FaultEntry blackhole1 =
      window(1, FaultKind::kBlackhole, 1'100'000, 1'600'000);
  FaultEntry flaky1 = window(1, FaultKind::kFlaky, 1'100'000, 1'600'000);
  flaky1.flaky_loss = 0.5;
  const FaultEntry blackhole2 =
      window(2, FaultKind::kBlackhole, 1'100'000, 1'600'000);
  const FaultEntry crash1 = window(1, FaultKind::kCrash, 1'200'000, 2'000'000);
  const std::vector<Cell> cells = {
      {"blackhole on shard 1", blackhole1, 1, 1, {}},
      {"blackhole on shard 1", blackhole1, 1, 2, {0, 1, 0}},
      {"flaky shard 1", flaky1, 2, 1, {}},
      {"flaky shard 1", flaky1, 2, 2, {0, 1, 0}},
      {"flaky shard 1", flaky1, 2, 3, {1, 2, 1}},
      {"blackhole on donor 2", blackhole2, 3, 1, {}},
      {"shard 1 crashes again", crash1, 1, 1, {}},
  };
  auto config = [&](const Cell& c) {
    KvServiceConfig cfg = MixedConfig();
    cfg.gets_per_tenant = 300;
    cfg.keys = 20'000;
    cfg.seed = c.seed;
    cfg.sim_shards = c.sim_shards;
    cfg.placement = c.placement;
    cfg.faults.entries.push_back(
        window(1, FaultKind::kCrash, 50'000, sim::Millis(1)));
    cfg.faults.entries.push_back(c.second);
    return cfg;
  };
  for (const Cell& c : cells) {
    SCOPED_TRACE(std::string(c.name) + ", seed " + std::to_string(c.seed) +
                 ", " + std::to_string(c.sim_shards) + " domain(s)");
    const KvServiceResult r = RunKvService(config(c));
    EXPECT_EQ(r.unanswered, 0u);
    EXPECT_EQ(Ops(r), 900u);
    EXPECT_EQ(r.lost_acked_writes, 0u);
    EXPECT_EQ(r.ryw_violations, 0u);
    EXPECT_EQ(r.value_divergence, 0u);
    EXPECT_EQ(r.heals_applied, 2u);
    // The crash's recovery closed its window (a recovery that never
    // finishes leaves it open), and promptly.
    EXPECT_GE(r.degraded_window_us, 950.0);
    EXPECT_LT(r.degraded_window_us, 5000.0);
  }
  const KvServiceConfig cfg = config(cells[4]);
  const KvServiceResult a = RunKvService(cfg);
  const KvServiceResult b = RunKvService(cfg);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.resyncs_started, b.resyncs_started);
  EXPECT_EQ(a.degraded_window_us, b.degraded_window_us);
  EXPECT_EQ(a.p999_us, b.p999_us);
}

// --- ResyncSession unit ------------------------------------------------------

class ResyncBed : public ::testing::Test {
 protected:
  ResyncBed() : tr(bed.sim, fabric, sim::TransportConfig{}) {
    bed.client.AttachPort(0, fabric, {25.0, 125});
    bed.server.AttachPort(0, fabric, {25.0, 125});
    QpConfig c;
    c.send_cq = bed.client.CreateCq();
    c.recv_cq = bed.client.CreateCq();
    rq = bed.client.CreateQp(c);
    QpConfig s;
    s.send_cq = bed.server.CreateCq();
    s.recv_cq = bed.server.CreateCq();
    dq = bed.server.CreateQp(s);
    rnic::ConnectOverTransport(rq, dq, tr);
  }

  // `n` values of `len` bytes on each side; the local (resyncing) side on
  // the client device, the donor on the server device.
  void Seed(int n, std::uint32_t len) {
    len_ = len;
    local_ = bed.Alloc(bed.client, static_cast<std::size_t>(n) * len);
    donor_ = bed.Alloc(bed.server, static_cast<std::size_t>(n) * len);
    for (int i = 0; i < n; ++i) {
      items_.push_back(kv::ResyncSession::Item{
          static_cast<std::uint64_t>(100 + i), donor_.addr() + i * len,
          local_.addr() + i * len, len});
    }
  }
  std::uint64_t LocalAddr(int i) const { return local_.addr() + i * len_; }
  std::uint64_t DonorAddr(int i) const { return donor_.addr() + i * len_; }

  kv::ResyncSession::Config SessionConfig(int window = 4) {
    kv::ResyncSession::Config c;
    c.qp = rq;
    c.remote_rkey = donor_.rkey();
    c.window = window;
    return c;
  }

  TestBed bed;
  sim::Fabric fabric;
  sim::Transport tr;
  QueuePair* rq = nullptr;
  QueuePair* dq = nullptr;
  Buffer local_;
  Buffer donor_;
  std::vector<kv::ResyncSession::Item> items_;
  std::uint32_t len_ = 0;
};

TEST_F(ResyncBed, ReconcilesByVersionTagAndKeepsNewerLocalValues) {
  Seed(8, 128);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t key = items_[i].key;
    kv::WriteVersionedValue(DonorAddr(i), 128, key, 5);
    // Chain-order violation injection: values 0..2 carry a HIGHER local
    // version than the donor stages — the shape a dual-applied put (or an
    // out-of-order transfer) leaves behind. They must survive untouched.
    kv::WriteVersionedValue(LocalAddr(i), 128, key, i < 3 ? 7 : 2);
  }
  kv::ResyncSession::Stats done;
  kv::ResyncSession s(bed.sim, SessionConfig(), items_,
                      [&](const kv::ResyncSession::Stats& st) { done = st; });
  s.Start();
  bed.sim.Run();

  ASSERT_TRUE(s.done());
  EXPECT_FALSE(done.failed);
  EXPECT_EQ(done.keys_scanned, 8u);
  EXPECT_EQ(done.keys_applied, 5u);
  EXPECT_EQ(done.keys_kept_local, 3u);
  EXPECT_EQ(done.bytes_read, 8u * 128u);
  EXPECT_GT(done.finished, done.started);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t key = items_[i].key;
    EXPECT_EQ(kv::ValueVersion(LocalAddr(i)), i < 3 ? 7u : 5u) << i;
    EXPECT_TRUE(kv::VersionedValueIntact(LocalAddr(i), 128, key)) << i;
  }
}

TEST_F(ResyncBed, TieGoesToThePeerSoRerunningIsIdempotent) {
  Seed(4, 64);
  for (int i = 0; i < 4; ++i) {
    kv::WriteVersionedValue(DonorAddr(i), 64, items_[i].key, 3);
    kv::WriteVersionedValue(LocalAddr(i), 64, items_[i].key, i == 0 ? 3 : 1);
  }
  kv::ResyncSession first(bed.sim, SessionConfig(), items_, nullptr);
  first.Start();
  bed.sim.Run();
  EXPECT_EQ(first.stats().keys_applied, 4u);  // the tie adopted too

  // Re-running against an unchanged donor re-adopts everything and
  // changes nothing — the >= rule at work.
  kv::ResyncSession second(bed.sim, SessionConfig(), items_, nullptr);
  second.Start();
  bed.sim.Run();
  EXPECT_EQ(second.stats().keys_applied, 4u);
  EXPECT_EQ(second.stats().keys_kept_local, 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(kv::ValueVersion(LocalAddr(i)), 3u);
    EXPECT_TRUE(kv::VersionedValueIntact(LocalAddr(i), 64, items_[i].key));
  }
}

TEST_F(ResyncBed, EmptyItemListFinishesSynchronously) {
  Seed(2, 64);
  bool fired = false;
  kv::ResyncSession s(bed.sim, SessionConfig(), {},
                      [&](const kv::ResyncSession::Stats& st) {
                        fired = true;
                        EXPECT_EQ(st.keys_scanned, 0u);
                      });
  s.Start();
  EXPECT_TRUE(fired);  // no events needed
  EXPECT_TRUE(s.done());
}

TEST_F(ResyncBed, DonorDeathMidSyncMarksFailedAndLeavesLocalValuesAlone) {
  Seed(6, 128);
  for (int i = 0; i < 6; ++i) {
    kv::WriteVersionedValue(DonorAddr(i), 128, items_[i].key, 9);
    kv::WriteVersionedValue(LocalAddr(i), 128, items_[i].key, 1);
  }
  dq->owner_pid = 42;
  bed.server.KillProcessResources(42);  // donor dies before any READ lands
  kv::ResyncSession::Stats done;
  kv::ResyncSession s(bed.sim, SessionConfig(/*window=*/2), items_,
                      [&](const kv::ResyncSession::Stats& st) { done = st; });
  s.Start();
  bed.sim.Run();
  ASSERT_TRUE(s.done());
  EXPECT_TRUE(done.failed);
  EXPECT_EQ(done.keys_applied, 0u);
  // Nothing was adopted off the dead donor; the local copies are intact.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(kv::ValueVersion(LocalAddr(i)), 1u);
    EXPECT_TRUE(kv::VersionedValueIntact(LocalAddr(i), 128, items_[i].key));
  }
}

TEST_F(ResyncBed, MalformedSessionsThrow) {
  Seed(2, 64);
  kv::ResyncSession::Config bad = SessionConfig();
  bad.qp = nullptr;
  EXPECT_THROW(kv::ResyncSession(bed.sim, bad, items_, nullptr),
               std::invalid_argument);
  bad = SessionConfig();
  bad.window = 0;
  EXPECT_THROW(kv::ResyncSession(bed.sim, bad, items_, nullptr),
               std::invalid_argument);
  auto runt = items_;
  runt[0].len = 4;  // shorter than the version tag
  EXPECT_THROW(kv::ResyncSession(bed.sim, SessionConfig(), runt, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace redn::test
