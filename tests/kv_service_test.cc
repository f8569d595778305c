// Sharded multi-tenant KV service: consistent-hash placement, Zipfian
// tenants, chain-replication failover. The headline comparisons: a shard
// killed mid-run is absorbed by the pre-installed client-NIC detour chain
// with a bounded blip, while the host-reissue baseline eats the multi-RTO
// application timeout; both policies still answer every get.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "kv/ring.h"
#include "workload/kv_service.h"
#include "workload_printers.h"

namespace redn::test {
namespace {

using workload::FailoverPolicy;
using workload::FaultEntry;
using workload::FaultKind;
using workload::KvServiceConfig;
using workload::KvServiceResult;
using workload::RunKvService;

KvServiceConfig SmallConfig() {
  KvServiceConfig cfg;
  cfg.shards = 3;
  cfg.tenants = 3;
  cfg.gets_per_tenant = 60;
  cfg.keys = 2'000;  // small keyspace keeps table construction fast
  cfg.value_len = 256;
  return cfg;
}

TEST(HashRing, PlacementIsDeterministicAndReasonablyBalanced) {
  kv::ConsistentHashRing ring(4, 16, 42);
  kv::ConsistentHashRing ring2(4, 16, 42);
  std::vector<std::uint64_t> per_shard(4, 0);
  for (std::uint64_t k = 1; k <= 100'000; ++k) {
    const int p = ring.PrimaryOf(k);
    ASSERT_EQ(p, ring2.PrimaryOf(k));  // same seed, same placement
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 4);
    ++per_shard[static_cast<std::size_t>(p)];
  }
  // 16 vnodes won't be perfectly even, but no shard may be starved or
  // hoarding: each within [1/4x, 2.5x] of the fair share.
  for (const std::uint64_t n : per_shard) {
    EXPECT_GT(n, 100'000u / 16);
    EXPECT_LT(n, 100'000u * 5 / 8);
  }
  // Succession: a fixed, distinct successor per shard, and following it
  // visits every shard (single cycle over a small ring is not guaranteed,
  // but the successor may never be self).
  for (int s = 0; s < 4; ++s) {
    EXPECT_NE(ring.SuccessorOf(s), s);
    EXPECT_EQ(ring.BackupOf(77), ring.SuccessorOf(ring.PrimaryOf(77)));
  }
  // A different seed moves the cut points.
  kv::ConsistentHashRing moved(4, 16, 43);
  int diffs = 0;
  for (std::uint64_t k = 1; k <= 1'000; ++k) {
    if (moved.PrimaryOf(k) != ring.PrimaryOf(k)) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(HashRing, RejectsDegenerateShapes) {
  EXPECT_THROW(kv::ConsistentHashRing(0, 16), std::invalid_argument);
  EXPECT_THROW(kv::ConsistentHashRing(2, 0), std::invalid_argument);
}

TEST(KvService, HealthyRunAnswersEveryGetAcrossAllTenants) {
  KvServiceConfig cfg = SmallConfig();
  const KvServiceResult r = RunKvService(cfg);
  EXPECT_EQ(r.gets, 180u);  // 3 tenants x 60
  EXPECT_EQ(r.unanswered, 0u);
  EXPECT_EQ(r.detour_responses, 0u);
  EXPECT_EQ(r.host_reissues, 0u);
  EXPECT_EQ(r.reroutes, 0u);
  EXPECT_EQ(r.qp_errors, 0u);
  // Keys both replicas hold in an H1 or H2 bucket, as Insert reported them
  // at set-up; 24 of the 2000 fell back to a neighbourhood on some replica.
  EXPECT_EQ(r.keys_visible, 1'976u);
  EXPECT_GT(r.p50_us, 0.0);
  EXPECT_GE(r.p99_us, r.p50_us);
  EXPECT_GE(r.p999_us, r.p99_us);
  ASSERT_EQ(r.tenants.size(), 3u);
  for (const auto& t : r.tenants) {
    EXPECT_EQ(t.gets, 60u);
    EXPECT_GT(t.p999_us, 0.0);
  }
}

TEST(KvService, CrashedShardOffloadDetourBoundsTheBlipHostBaselineStalls) {
  KvServiceConfig cfg = SmallConfig();
  FaultEntry crash;
  crash.server = 1;
  crash.kind = FaultKind::kCrash;
  // Chosen (deterministic sim, fixed seed) so the crash lands while a get's
  // trigger is already delivered-and-acked but its response is still in
  // flight — the silent-loss window where no failure CQE would ever arrive
  // on its own. The keepalive probe must produce it.
  crash.down_at = 34'000;
  cfg.faults.entries.push_back(crash);

  const KvServiceResult off = RunKvService(cfg);
  EXPECT_EQ(off.gets, 180u);  // every get answered despite the dead shard
  EXPECT_EQ(off.unanswered, 0u);
  EXPECT_GT(off.detour_responses, 0u);  // the chain, not the host, failed over
  EXPECT_GT(off.reroutes, 0u);          // later gets route straight to backup
  // The silent-loss race (trigger acked, response flushed by the crash) is
  // what the keepalive probes exist for — the crash must have engaged them.
  EXPECT_GT(off.probes_sent, 0u);
  EXPECT_EQ(off.faults_applied, 1u);

  KvServiceConfig host_cfg = cfg;
  host_cfg.policy = FailoverPolicy::kHostReissue;
  const KvServiceResult host = RunKvService(host_cfg);
  EXPECT_EQ(host.gets, 180u);
  EXPECT_EQ(host.unanswered, 0u);
  EXPECT_EQ(host.detour_responses, 0u);
  EXPECT_GT(host.host_reissues, 0u);  // the RPC-timeout watchdog did the work

  // The comparison the system exists for: the NIC detour bounds the outage
  // to (roughly) the retry-budget exhaustion time, while the host baseline
  // waits out the conservative multi-RTO application timer first.
  EXPECT_GT(off.max_blip_us, 0.0);
  EXPECT_LT(off.max_blip_us, host.max_blip_us);
  EXPECT_LT(off.p999_us, host.p999_us);
  // Crash detection is a dead-peer NAK (no multi-RTO wait), so even the
  // detour's worst blip sits far under the host's ~4.2 ms timer.
  EXPECT_LT(off.max_blip_us, 1'000.0);
  EXPECT_GT(host.max_blip_us, 3'000.0);
}

TEST(KvService, BlackholeWindowHealsAndServiceRecovers) {
  KvServiceConfig cfg = SmallConfig();
  cfg.gets_per_tenant = 80;
  FaultEntry bh;
  bh.server = 0;
  bh.kind = FaultKind::kBlackhole;
  bh.down_at = 30'000;
  bh.up_at = sim::Millis(3);
  cfg.faults.entries.push_back(bh);

  const KvServiceResult r = RunKvService(cfg);
  EXPECT_EQ(r.gets, 240u);
  EXPECT_EQ(r.unanswered, 0u);
  // Budget exhaustion inside the window: the in-flight gets detoured, and
  // the heal re-armed the wrecked QPs for the post-window traffic.
  EXPECT_GT(r.detour_responses + r.reroutes, 0u);
  EXPECT_EQ(r.heals_applied, 1u);
  EXPECT_GT(r.qp_rearms, 0u);
  EXPECT_GT(r.rto_fires, 0u);
}

TEST(KvService, SameSeedRunsAreBitStable) {
  KvServiceConfig cfg = SmallConfig();
  FaultEntry crash;
  crash.server = 2;
  crash.kind = FaultKind::kCrash;
  crash.down_at = 50'000;
  cfg.faults.entries.push_back(crash);
  EXPECT_EQ(RunKvService(cfg), RunKvService(cfg));
}

TEST(KvService, RnrStallWindowRecoversTransiently) {
  KvServiceConfig cfg = SmallConfig();
  cfg.rnr_retry_count = 16;  // generous budget: the stall stays transient
  FaultEntry stall;
  stall.server = 0;
  stall.kind = FaultKind::kRnrStall;
  stall.down_at = 20'000;
  stall.up_at = sim::Millis(2);
  stall.rnr_count = 3;
  cfg.faults.entries.push_back(stall);
  const KvServiceResult r = RunKvService(cfg);
  EXPECT_EQ(r.gets, 180u);
  EXPECT_EQ(r.unanswered, 0u);
  EXPECT_GT(r.rnr_naks, 0u);
  EXPECT_EQ(r.detour_responses, 0u);  // backoff absorbed it; no failover
}

TEST(KvService, MalformedConfigsThrow) {
  KvServiceConfig cfg = SmallConfig();
  cfg.shards = 1;  // no chain successor
  EXPECT_THROW(RunKvService(cfg), std::invalid_argument);

  cfg = SmallConfig();
  cfg.put_fraction = 1.5;  // not a fraction
  EXPECT_THROW(RunKvService(cfg), std::invalid_argument);

  cfg = SmallConfig();
  cfg.put_fraction = 0.5;
  cfg.value_len = 8;  // versioned values need room past the tag
  EXPECT_THROW(RunKvService(cfg), std::invalid_argument);

  cfg = SmallConfig();
  FaultEntry flaky;
  flaky.server = 0;
  flaky.kind = FaultKind::kFlaky;
  flaky.down_at = 1'000;
  flaky.up_at = 2'000;
  flaky.flaky_loss = 2.0;  // not a probability
  cfg.faults.entries.push_back(flaky);
  EXPECT_THROW(RunKvService(cfg), std::invalid_argument);

  cfg = SmallConfig();
  FaultEntry a;  // overlapping windows on the same shard
  a.server = 0;
  a.kind = FaultKind::kBlackhole;
  a.down_at = 1'000;
  a.up_at = 5'000;
  FaultEntry b = a;
  b.down_at = 3'000;
  b.up_at = 7'000;
  cfg.faults.entries.push_back(a);
  cfg.faults.entries.push_back(b);
  EXPECT_THROW(RunKvService(cfg), std::invalid_argument);

  cfg = SmallConfig();
  FaultEntry oob;
  oob.server = 9;
  oob.down_at = 1'000;
  cfg.faults.entries.push_back(oob);
  EXPECT_THROW(RunKvService(cfg), std::invalid_argument);

  // An entry that names no shard is rejected as such, before the overlap
  // check could read two such entries as sharing one shard.
  cfg = SmallConfig();
  FaultEntry unnamed;
  unnamed.down_at = 1'000;
  unnamed.up_at = 5'000;
  cfg.faults.entries = {unnamed, unnamed};
  try {
    RunKvService(cfg);
    ADD_FAILURE() << "an entry with no shard ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("entry #0: names no target shard"),
              std::string::npos)
        << e.what();
  }

  cfg = SmallConfig();
  FaultEntry inverted;
  inverted.server = 0;
  inverted.down_at = 5'000;
  inverted.up_at = 4'000;
  cfg.faults.entries.push_back(inverted);
  EXPECT_THROW(RunKvService(cfg), std::invalid_argument);
}

// Runs `cfg`, which must be rejected with a message naming `field` and
// the rejected `value`.
void ExpectRejected(const KvServiceConfig& cfg, const std::string& field,
                    const std::string& value) {
  try {
    RunKvService(cfg);
    ADD_FAILURE() << field << " = " << value << " ran";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(field), std::string::npos) << what;
    EXPECT_NE(what.find("got " + value), std::string::npos) << what;
  }
}

TEST(KvService, LossOutsideUnitIntervalIsRejected) {
  KvServiceConfig cfg = SmallConfig();
  cfg.loss = 1.5;
  ExpectRejected(cfg, "loss", "1.5");
  cfg.loss = -0.25;
  ExpectRejected(cfg, "loss", "-0.25");
}

TEST(KvService, NegativeZipfThetaIsRejected) {
  KvServiceConfig cfg = SmallConfig();
  cfg.zipf_theta = -1;  // used to run silently as uniform
  ExpectRejected(cfg, "zipf_theta", "-1");
}

TEST(KvService, ShardsBeyondTheReplicaMaskAreRejected) {
  // A put's replica mask has one bit per shard, and the per-key primary
  // array holds any shard id up to that bound.
  KvServiceConfig cfg = SmallConfig();
  cfg.shards = 65;
  ExpectRejected(cfg, "shards", "65");
  cfg.shards = 1;
  ExpectRejected(cfg, "shards", "1");
}

}  // namespace
}  // namespace redn::test
