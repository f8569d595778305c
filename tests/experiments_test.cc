// Integration tests for the macro-experiment drivers (Figs 15 and 16).
// These assert the *shape* the paper reports, with small op counts so the
// suite stays fast; the benches run the full-size versions.
#include <gtest/gtest.h>

#include "workload/experiments.h"

namespace redn::workload {
namespace {

TEST(Contention, RedNLatencyFlatUnderWriters) {
  const auto quiet = RunRedNContention(/*writers=*/0, /*n_gets=*/60);
  const auto loaded = RunRedNContention(/*writers=*/16, /*n_gets=*/60);
  ASSERT_GT(quiet.gets, 0u);
  ASSERT_GT(loaded.gets, 0u);
  // Fig 15: RedN average and 99th stay below ~7 us regardless of writers.
  EXPECT_LT(loaded.avg_us, 7.0);
  EXPECT_LT(loaded.p99_us, 8.0);
  EXPECT_LT(loaded.p99_us, quiet.p99_us * 1.5);
}

TEST(Contention, TwoSidedTailExplodesWithWriters) {
  const auto one = RunTwoSidedContention(/*writers=*/1, /*n_gets=*/150);
  const auto sixteen = RunTwoSidedContention(/*writers=*/16, /*n_gets=*/150);
  ASSERT_GT(one.gets, 0u);
  ASSERT_GT(sixteen.gets, 0u);
  EXPECT_GT(sixteen.avg_us, one.avg_us);
  EXPECT_GT(sixteen.p99_us, 4 * one.p99_us);
  // Fig 15's headline: two-sided p99 at 16 writers is tens of times RedN's.
  const auto redn = RunRedNContention(16, 60);
  EXPECT_GT(sixteen.p99_us, 15 * redn.p99_us);
}

TEST(Failover, VanillaMemcachedHasOutage) {
  FailoverConfig cfg;
  cfg.redn = false;
  cfg.horizon = sim::Seconds(10);
  cfg.crash_at = sim::Seconds(4);
  const auto r = RunFailover(cfg);
  ASSERT_GT(r.served, 0u);
  // Restart (1 s) + rebuild (10'000 * 125 us = 1.25 s) -> >2 s outage.
  EXPECT_GT(r.outage_seconds, 2.0);
  // Service resumes by the end.
  EXPECT_GT(r.normalized.back(), 0.5);
}

TEST(Failover, RedNWithHullSurvivesCrash) {
  FailoverConfig cfg;
  cfg.redn = true;
  cfg.hull_parent = true;
  cfg.horizon = sim::Seconds(10);
  cfg.crash_at = sim::Seconds(4);
  const auto r = RunFailover(cfg);
  EXPECT_EQ(r.outage_seconds, 0.0);
  // The crash costs no get: a run without it serves exactly as many. (A
  // get of a key that fell back to the hopscotch neighbourhood, invisible
  // to the 2-bucket NIC probe, goes unanswered in both.)
  EXPECT_GE(r.served * 100, r.sent * 99);
  cfg.crash_at = cfg.horizon + sim::Seconds(2);
  EXPECT_EQ(r.served, RunFailover(cfg).served);
}

TEST(Failover, RedNWithoutHullDiesWithProcess) {
  // The §5.6 counterpoint: if the crashed process owned the RDMA
  // resources, the OS reclaim terminates the chains and service stops.
  FailoverConfig cfg;
  cfg.redn = true;
  cfg.hull_parent = false;
  cfg.horizon = sim::Seconds(8);
  cfg.crash_at = sim::Seconds(3);
  const auto r = RunFailover(cfg);
  EXPECT_GT(r.outage_seconds, 3.0);
  EXPECT_LT(r.normalized.back(), 0.1);
}

}  // namespace
}  // namespace redn::workload
