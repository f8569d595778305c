// Integration tests for the RedN offloads: hash gets (Fig 9), list
// traversal (Fig 12), RPC triggers (Figs 3/4), and recycled loops (§3.4).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "offloads/array_search.h"
#include "offloads/hash_harness.h"
#include "offloads/list_traversal.h"
#include "offloads/recycled_loop.h"
#include "offloads/rpc.h"
#include "sim/stats.h"
#include "testbed.h"

namespace redn::test {
namespace {

using offloads::HashGetHarness;
using offloads::HashGetOffload;
using offloads::ListStore;
using offloads::ListTraversalOffload;

class OffloadTest : public ::testing::Test {
 protected:
  TestBed bed;
};

// ---------------------------------------------------------------------------
// Hash lookups
// ---------------------------------------------------------------------------

TEST_F(OffloadTest, HashGetHitReturnsValue) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(42, 64);
  h.Arm(4);
  auto r = h.Get(42);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.len, 64u);
  EXPECT_TRUE(h.ResponseMatchesPattern(42, 64));
}

TEST_F(OffloadTest, HashGetMissReturnsNothing) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(42, 64);
  h.Arm(4);
  auto r = h.Get(43, sim::Micros(60));
  EXPECT_FALSE(r.found);
}

TEST_F(OffloadTest, HashGetRepeatedRequestsReuseArmedChains) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  for (std::uint64_t k = 1; k <= 16; ++k) h.PutPattern(k, 32);
  h.Arm(16);
  for (std::uint64_t k = 1; k <= 16; ++k) {
    auto r = h.Get(k);
    ASSERT_TRUE(r.found) << "key " << k;
    EXPECT_TRUE(h.ResponseMatchesPattern(k, 32));
  }
}

TEST_F(OffloadTest, HashGetSecondBucketSequential) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 2, .parallel = false});
  h.PutPattern(77, 64, /*force_second=*/true);
  h.Arm(2);
  auto r = h.Get(77);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(h.ResponseMatchesPattern(77, 64));
}

TEST_F(OffloadTest, HashGetSecondBucketParallel) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 2, .parallel = true});
  h.PutPattern(77, 64, /*force_second=*/true);
  h.Arm(2);
  auto r = h.Get(77);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(h.ResponseMatchesPattern(77, 64));
}

TEST_F(OffloadTest, HashGetParallelFasterThanSequentialOnCollision) {
  // Fig 11: with the key always in the second bucket, parallel probing
  // hides the second lookup almost entirely; sequential pays ~3 us extra.
  HashGetHarness hs(bed.client, bed.server, {.buckets = 2, .parallel = false});
  hs.PutPattern(77, 64, /*force_second=*/true);
  hs.Arm(2);
  const auto seq = hs.Get(77);
  ASSERT_TRUE(seq.found);

  TestBed bed2;
  HashGetHarness hp(bed2.client, bed2.server, {.buckets = 2, .parallel = true});
  hp.PutPattern(77, 64, /*force_second=*/true);
  hp.Arm(2);
  const auto par = hp.Get(77);
  ASSERT_TRUE(par.found);
  EXPECT_LT(par.latency, seq.latency - sim::Micros(1.5));
}

TEST_F(OffloadTest, HashGetNoCollisionLatencyNearPaper) {
  // Table 5: 64 B gets complete in ~5.7 us median on the paper's testbed.
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(42, 64);
  h.Arm(8);
  sim::LatencyRecorder rec;
  for (int i = 0; i < 8; ++i) {
    auto r = h.Get(42);
    ASSERT_TRUE(r.found);
    rec.Add(r.latency);
  }
  EXPECT_GT(rec.MedianUs(), 3.5);
  EXPECT_LT(rec.MedianUs(), 8.0);
}

TEST_F(OffloadTest, HashGetLargeValue) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(9, 64 * 1024);
  h.Arm(2);
  auto r = h.Get(9, sim::Micros(500));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.len, 64u * 1024);
  EXPECT_TRUE(h.ResponseMatchesPattern(9, 64 * 1024));
}

TEST_F(OffloadTest, HashGetServesWithoutServerCpuAfterArming) {
  // The whole point of the offload: once armed, requests are served with
  // zero server-side host activity. We verify no *new* server-side posting
  // happens during gets (all doorbells/posts precede the first trigger).
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(5, 64);
  h.Arm(8);
  bed.sim.Run();  // settle arming
  const auto doorbells_before = bed.server.counters().doorbells;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(h.Get(5).found);
  }
  EXPECT_EQ(bed.server.counters().doorbells, doorbells_before);
}

// Ring sizing: every ring a pre-armed hash get allocates holds what
// Arm(max_requests) posts into it plus HashGetOffload::kRingSlack, no more;
// arming past that budget must fail loudly instead of wrapping onto
// unexecuted WRs. ArmAhead serves any number of requests from those same
// rings, one window of max_requests at a time.
class HashGetRingSizing
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  struct Ring {
    const char* name;
    const rnic::WorkQueue* wq;
  };
  // Every server-side ring of `h`. Lane 1's control queue exists even when
  // no probe rides it (QP ids and PU assignment must not depend on
  // `parallel`); it stays minimal.
  static std::vector<Ring> Rings(HashGetHarness& h, bool parallel) {
    HashGetOffload& off = h.offload();
    std::vector<Ring> rings = {
        {"control 0", &off.control(0)->sq},
        {"control 1", &off.control(1)->sq},
        {"chain 0", &off.chain(0)->sq},
        {"response 0", &h.server_qp()->sq},
        {"server RQ 0", &h.server_qp()->rq},
    };
    if (parallel) {
      rings.push_back({"chain 1", &off.chain(1)->sq});
      rings.push_back({"response 1", &h.server_qp2()->sq});
      rings.push_back({"server RQ 1", &h.server_qp2()->rq});
    }
    return rings;
  }

  // Arming past the rings throws the SQ overflow guard's error.
  static void ExpectArmOverflows(HashGetHarness& h) {
    try {
      h.Arm(static_cast<int>(HashGetOffload::kRingSlack) + 1);
      FAIL() << "arming past the ring budget did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "size the QP for the full pre-posted chain"),
                std::string::npos)
          << e.what();
    }
  }
};

TEST_P(HashGetRingSizing, RingsHoldArmedWrsPlusSlack) {
  const auto [buckets, parallel] = GetParam();
  constexpr int kMaxRequests = 40;
  TestBed bed;
  HashGetHarness h(bed.client, bed.server,
                   {.buckets = buckets,
                    .parallel = parallel,
                    .max_requests = kMaxRequests},
                   /*table_cfg=*/{}, /*heap_bytes=*/1 << 20);
  h.Arm(kMaxRequests);

  for (const Ring& r : Rings(h, parallel)) {
    ASSERT_LE(r.wq->posted, r.wq->capacity()) << r.name;
    EXPECT_LE(r.wq->capacity() - r.wq->posted, HashGetOffload::kRingSlack)
        << r.name << ": capacity " << r.wq->capacity() << ", posted "
        << r.wq->posted;
  }
  ExpectArmOverflows(h);
}

TEST_P(HashGetRingSizing, ArmAheadPostsOneWindow) {
  const auto [buckets, parallel] = GetParam();
  constexpr int kWindow = 8;
  const HashGetOffload::Config cfg{
      .buckets = buckets, .parallel = parallel, .max_requests = kWindow};
  TestBed lifetime_bed;
  TestBed window_bed;
  HashGetHarness lifetime(lifetime_bed.client, lifetime_bed.server, cfg,
                          /*table_cfg=*/{}, /*heap_bytes=*/1 << 20);
  HashGetHarness windowed(window_bed.client, window_bed.server, cfg,
                          /*table_cfg=*/{}, /*heap_bytes=*/1 << 20);
  lifetime.Arm(kWindow);
  windowed.ArmAhead(10 * kWindow);

  const std::vector<Ring> want = Rings(lifetime, parallel);
  const std::vector<Ring> got = Rings(windowed, parallel);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].wq->capacity(), want[i].wq->capacity()) << got[i].name;
    EXPECT_EQ(got[i].wq->posted, want[i].wq->posted) << got[i].name;
  }
  EXPECT_EQ(windowed.offload().owed(), 9u * kWindow);
  ExpectArmOverflows(windowed);
}

// A closed loop served through ArmAhead is the closed loop served from
// rings armed for the whole run: same bytes, same simulated latency per
// get. Only the server's doorbells differ, one per launch plus one per
// refill, and a refill posts W/2 + 1 requests. Every window wraps every
// ring many times over the run.
TEST_P(HashGetRingSizing, ArmAheadServesLikeLifetimeArm) {
  const auto [buckets, parallel] = GetParam();
  constexpr int kGets = 1000;
  constexpr int kKeys = 64;
  const std::uint64_t lanes = parallel ? 2 : 1;  // control doorbells per Arm
  for (const int window : {4, 8, 128}) {
    SCOPED_TRACE("window " + std::to_string(window));
    TestBed full_bed;
    TestBed window_bed;
    HashGetHarness full(
        full_bed.client, full_bed.server,
        {.buckets = buckets, .parallel = parallel, .max_requests = kGets},
        /*table_cfg=*/{}, /*heap_bytes=*/1 << 20);
    HashGetHarness windowed(
        window_bed.client, window_bed.server,
        {.buckets = buckets, .parallel = parallel, .max_requests = window},
        /*table_cfg=*/{}, /*heap_bytes=*/1 << 20);
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      const auto len = static_cast<std::uint32_t>(32 + k);
      full.PutPattern(k, len);
      windowed.PutPattern(k, len);
    }
    full.Arm(kGets);
    windowed.ArmAhead(kGets);

    for (int i = 0; i < kGets; ++i) {
      const std::uint64_t key = 1 + (static_cast<std::uint64_t>(i) * 7) % kKeys;
      const HashGetHarness::Result a = full.Get(key);
      const HashGetHarness::Result b = windowed.Get(key);
      ASSERT_TRUE(a.found) << "get " << i << " key " << key;
      ASSERT_TRUE(b.found) << "get " << i << " key " << key;
      ASSERT_EQ(b.latency, a.latency) << "get " << i;
      ASSERT_EQ(b.len, a.len) << "get " << i;
      ASSERT_TRUE(windowed.ResponseMatchesPattern(key, b.len)) << "get " << i;
    }
    window_bed.sim.Run();

    const std::uint64_t w = static_cast<std::uint64_t>(window);
    const std::uint64_t refills = (kGets - w + w / 2) / (w / 2 + 1);
    EXPECT_EQ(windowed.offload().owed(), 0u);
    EXPECT_EQ(windowed.offload().refills(), refills);
    EXPECT_EQ(window_bed.server.counters().doorbells, lanes * (1 + refills));
  }
}

// ArmAhead serves a closed loop: an open-loop burst that outruns the
// window must fail loudly, not stall on RNR.
TEST_P(HashGetRingSizing, ArmAheadBurstPastTheWindowThrows) {
  const auto [buckets, parallel] = GetParam();
  constexpr int kWindow = 8;
  TestBed bed;
  HashGetHarness h(
      bed.client, bed.server,
      {.buckets = buckets, .parallel = parallel, .max_requests = kWindow},
      /*table_cfg=*/{}, /*heap_bytes=*/1 << 20);
  h.PutPattern(7, 64);
  h.ArmAhead(10 * kWindow);
  for (int i = 0; i < 5 * kWindow; ++i) ASSERT_TRUE(h.SendTrigger(7));
  try {
    bed.sim.Run();
    FAIL() << "a burst of " << 5 * kWindow << " triggers on a window of "
           << kWindow << " did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("window too small"),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BucketsByParallel, HashGetRingSizing,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) + "Bucket" +
             (std::get<1>(info.param) ? "Parallel" : "Sequential");
    });

// A windowed harness heals like a fully armed one. A re-arm retires the
// old program, which then owes nothing: its stale wake-up must not post
// RECVs into the shared server QP, where the fresh program's triggers
// would consume them. A server QP error flushes the armed RECVs, so the
// trigger count passes every armed request; when the next request's
// trigger WAIT is the signaled one, the refill hook wakes and must read
// that as an error for the heal to handle, not as a window overrun. At W =
// 8 a refill posts 5 requests, so erroring after 20..24 gets hits every
// phase of the refill cycle.
TEST_F(OffloadTest, HashGetWindowSurvivesRearms) {
  constexpr int kWindow = 8;
  const HashGetOffload::Config cfg{.buckets = 2, .max_requests = kWindow};
  {
    HashGetHarness h(bed.client, bed.server, cfg, /*table_cfg=*/{},
                     /*heap_bytes=*/1 << 20);
    h.PutPattern(7, 64);
    h.ArmAhead(100);
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(h.Get(7).found) << "get " << i;
    const HashGetOffload* old = &h.offload();
    ASSERT_GT(old->owed(), 0u);
    h.RearmTransportClientHalf();
    h.RearmTransportServerHalf(100);
    EXPECT_EQ(old->owed(), 0u);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(h.Get(7).found) << "get " << i << " after the re-arm";
      ASSERT_TRUE(h.ResponseMatchesPattern(7, 64));
    }
  }
  for (int gets = 20; gets < 25; ++gets) {
    SCOPED_TRACE("server QP errored after " + std::to_string(gets) + " gets");
    TestBed tb;
    HashGetHarness h(tb.client, tb.server, cfg, /*table_cfg=*/{},
                     /*heap_bytes=*/1 << 20);
    h.PutPattern(7, 64);
    h.ArmAhead(100);
    for (int i = 0; i < gets; ++i) ASSERT_TRUE(h.Get(7).found) << "get " << i;
    const HashGetOffload* old = &h.offload();
    const std::uint64_t refills = old->refills();
    tb.server.TransitionToError(h.server_qp());
    tb.sim.Run();
    EXPECT_EQ(old->refills(), refills);
    h.RearmTransportClientHalf();
    h.RearmTransportServerHalf(40);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(h.Get(7).found) << "get " << i << " after the heal";
    }
    EXPECT_GT(h.offload().refills(), 0u);
  }
}

// Out-of-range configs fail before any ring is sized, in every build type:
// buckets = 3 would overrun the trigger and RECV scatter arrays, buckets = 0
// would miss every get, and max_requests < 1 would wrap into a
// multi-gigabyte ring. ArmAhead needs a window of at least kMinWindow.
TEST_F(OffloadTest, HashGetRejectsOutOfRangeConfigs) {
  auto expect_invalid = [&](HashGetOffload::Config cfg, const char* what) {
    try {
      HashGetHarness h(bed.client, bed.server, cfg, /*table_cfg=*/{},
                       /*heap_bytes=*/1 << 20);
      FAIL() << "accepted a config with " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expect_invalid({.buckets = 3}, "buckets");
  expect_invalid({.buckets = 0}, "buckets");
  expect_invalid({.buckets = 2, .max_requests = 0}, "max_requests");
  expect_invalid({.buckets = 1, .max_requests = -5}, "max_requests");

  HashGetHarness small(bed.client, bed.server,
                       {.buckets = 1,
                        .max_requests = HashGetOffload::kMinWindow - 1},
                       /*table_cfg=*/{}, /*heap_bytes=*/1 << 20);
  small.Arm(HashGetOffload::kMinWindow - 1);  // a lifetime arm is fine
  EXPECT_THROW(small.ArmAhead(1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Linked-list traversal
// ---------------------------------------------------------------------------

struct ListRig {
  TestBed& bed;
  ListStore list;
  rnic::QueuePair* srv_qp;
  rnic::QueuePair* cli_qp;
  Buffer resp;
  Buffer msg;

  ListRig(TestBed& b, int nodes, std::uint32_t vlen)
      : bed(b), list(b.server, nodes + 1, vlen) {
    rnic::QpConfig s;
    s.sq_depth = 4096;
    s.rq_depth = 256;
    s.managed = true;
    s.send_cq = b.server.CreateCq();
    s.recv_cq = b.server.CreateCq();
    srv_qp = b.server.CreateQp(s);
    rnic::QpConfig c;
    c.sq_depth = 256;
    c.rq_depth = 256;
    c.send_cq = b.client.CreateCq();
    c.recv_cq = b.client.CreateCq();
    cli_qp = b.client.CreateQp(c);
    rnic::Connect(cli_qp, srv_qp, rnic::Calibration{}.net_one_way);
    resp = bed.Alloc(b.client, vlen);
    msg = bed.Alloc(b.client, 16 * 8);  // up to 15 iterations + head
    for (int i = 0; i < nodes; ++i) list.AppendPattern(100 + i);
  }

  // One traversal; arms a fresh chain (the paper's unrolled mode).
  HashGetHarness::Result Get(std::uint64_t key, bool use_break,
                             int iterations) {
    ListTraversalOffload off(bed.server, list, srv_qp,
                             {.iterations = iterations, .use_break = use_break},
                             resp.addr(), resp.rkey());
    verbs::RecvWr rwr;
    verbs::PostRecv(cli_qp, rwr);
    off.BuildTrigger(key, msg.bytes());
    auto& sim = bed.sim;
    const sim::Nanos t0 = sim.now();
    verbs::PostSendNow(cli_qp,
                       verbs::MakeSend(msg.addr(), off.TriggerBytes(),
                                       msg.lkey(), /*signaled=*/false));
    verbs::Cqe cqe;
    HashGetHarness::Result r;
    if (verbs::AwaitCqe(sim, bed.client, cli_qp->recv_cq, &cqe,
                        t0 + sim::Micros(400))) {
      r.found = true;
      r.latency = sim.now() - t0;
      r.len = cqe.byte_len;
    }
    // Quiesce before `off` (and the SGE tables the NIC references) dies.
    sim.Run();
    return r;
  }

  bool ResponseMatches(std::uint64_t key, std::uint32_t vlen) const {
    for (std::uint32_t i = 0; i < vlen; ++i) {
      if (resp.data[i] != ListStore::PatternByte(key, i)) return false;
    }
    return true;
  }
};

TEST_F(OffloadTest, ListTraversalFindsEachPosition) {
  ListRig rig(bed, 8, 64);
  for (int pos = 0; pos < 8; ++pos) {
    auto r = rig.Get(100 + pos, /*use_break=*/false, 8);
    ASSERT_TRUE(r.found) << "position " << pos;
    EXPECT_TRUE(rig.ResponseMatches(100 + pos, 64));
  }
}

TEST_F(OffloadTest, ListTraversalWithBreakFindsEachPosition) {
  ListRig rig(bed, 8, 64);
  for (int pos = 0; pos < 8; ++pos) {
    auto r = rig.Get(100 + pos, /*use_break=*/true, 8);
    ASSERT_TRUE(r.found) << "position " << pos;
    EXPECT_TRUE(rig.ResponseMatches(100 + pos, 64));
  }
}

TEST_F(OffloadTest, ListTraversalMissesAbsentKey) {
  ListRig rig(bed, 8, 64);
  auto r = rig.Get(999, /*use_break=*/false, 8);
  EXPECT_FALSE(r.found);
}

TEST_F(OffloadTest, BreakSavesWorkRequests) {
  // §5.3: without breaks every iteration executes; with breaks the chain
  // stops after the hit. Key at position 1 of 8: the break variant must
  // execute far fewer WRs.
  ListRig rig(bed, 8, 64);
  bed.sim.Run();
  const auto before_nobreak = bed.server.counters().TotalExecuted();
  ASSERT_TRUE(rig.Get(101, false, 8).found);
  bed.sim.Run();
  const auto nobreak = bed.server.counters().TotalExecuted() - before_nobreak;

  const auto before_break = bed.server.counters().TotalExecuted();
  ASSERT_TRUE(rig.Get(101, true, 8).found);
  bed.sim.RunUntil(bed.sim.now() + sim::Micros(100));
  const auto wbreak = bed.server.counters().TotalExecuted() - before_break;
  EXPECT_LT(wbreak, nobreak * 2 / 3);  // paper: no-break uses >65% more WRs
}

TEST_F(OffloadTest, BreakStopsLaterIterationsCompletely) {
  // After a hit at position 0, iteration 1+ must never execute: the READ
  // count for the traversal stays at 1.
  ListRig rig(bed, 8, 64);
  bed.sim.Run();
  const auto reads_before =
      bed.server.counters().executed_by_opcode[int(rnic::Opcode::kRead)];
  ASSERT_TRUE(rig.Get(100, true, 8).found);
  bed.sim.RunUntil(bed.sim.now() + sim::Micros(200));
  const auto reads =
      bed.server.counters().executed_by_opcode[int(rnic::Opcode::kRead)] -
      reads_before;
  EXPECT_EQ(reads, 1u);
}

// The assert this replaces compiled out in Release, where 16 or more
// iterations overran UnrolledLoop's 16-entry injection table.
TEST_F(OffloadTest, ListTraversalRejectsIterationsOutsideOneToFifteen) {
  ListRig rig(bed, 8, 64);
  for (const int iterations : {0, 16}) {
    try {
      ListTraversalOffload off(bed.server, rig.list, rig.srv_qp,
                               {.iterations = iterations}, rig.resp.addr(),
                               rig.resp.rkey());
      ADD_FAILURE() << iterations << " iterations were accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("iterations"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// RPC offloads
// ---------------------------------------------------------------------------

struct RpcRig {
  TestBed& bed;
  rnic::QueuePair* srv_qp;
  rnic::QueuePair* cli_qp;
  Buffer resp;
  Buffer msg;

  explicit RpcRig(TestBed& b, std::size_t bufsz = 256) : bed(b) {
    rnic::QpConfig s;
    s.sq_depth = 4096;
    s.rq_depth = 4096;
    s.managed = true;
    s.send_cq = b.server.CreateCq();
    s.recv_cq = b.server.CreateCq();
    srv_qp = b.server.CreateQp(s);
    rnic::QpConfig c;
    c.send_cq = b.client.CreateCq();
    c.recv_cq = b.client.CreateCq();
    cli_qp = b.client.CreateQp(c);
    rnic::Connect(cli_qp, srv_qp, rnic::Calibration{}.net_one_way);
    resp = bed.Alloc(b.client, bufsz);
    msg = bed.Alloc(b.client, bufsz);
  }

  bool Call(std::uint32_t len, verbs::Cqe* out) {
    verbs::RecvWr rwr;
    verbs::PostRecv(cli_qp, rwr);
    verbs::PostSendNow(cli_qp, verbs::MakeSend(msg.addr(), len, msg.lkey(),
                                               /*signaled=*/false));
    return verbs::AwaitCqe(bed.sim, bed.client, cli_qp->recv_cq, out,
                           bed.sim.now() + sim::Micros(100));
  }
};

TEST_F(OffloadTest, EchoRpcRoundTripsPayload) {
  RpcRig rig(bed);
  offloads::EchoRpcOffload echo(bed.server, rig.srv_qp, 32, /*n=*/4,
                                rig.resp.addr(), rig.resp.rkey());
  for (int r = 0; r < 4; ++r) {
    rig.msg.SetU64(0, 0x1111 * (r + 1));
    rig.msg.SetU64(1, 0x2222 * (r + 1));
    verbs::Cqe cqe;
    ASSERT_TRUE(rig.Call(32, &cqe));
    EXPECT_EQ(cqe.imm, static_cast<std::uint32_t>(r + 1));
    EXPECT_EQ(rig.resp.U64(0), 0x1111u * (r + 1));
    EXPECT_EQ(rig.resp.U64(1), 0x2222u * (r + 1));
  }
}

TEST_F(OffloadTest, CondRpcComparesAgainstConstant) {
  RpcRig rig(bed);
  offloads::CondRpcOffload cond(bed.server, rig.srv_qp, /*y=*/5, /*n=*/4,
                                rig.resp.addr(), rig.resp.rkey());
  const std::uint64_t xs[4] = {5, 7, 5, 0};
  const std::uint64_t want[4] = {1, 0, 1, 0};
  for (int r = 0; r < 4; ++r) {
    offloads::CondRpcOffload::BuildTrigger(xs[r], rig.msg.bytes());
    verbs::Cqe cqe;
    ASSERT_TRUE(rig.Call(8, &cqe));
    EXPECT_EQ(rig.resp.U64(0), want[r]) << "x=" << xs[r];
  }
}

// ---------------------------------------------------------------------------
// Recycled loops
// ---------------------------------------------------------------------------

TEST_F(OffloadTest, RecycledLoopRunsWithoutCpu) {
  offloads::RecycledAddLoop loop(bed.server);
  loop.Start();
  bed.sim.RunUntil(sim::Micros(200));
  const std::uint64_t at_200us = loop.iterations();
  EXPECT_GT(at_200us, 10u);
  // No further host involvement — the loop keeps making progress.
  bed.sim.RunUntil(sim::Micros(400));
  EXPECT_GT(loop.iterations(), at_200us + 10);
}

TEST_F(OffloadTest, RecycledLoopRateMatchesTable3) {
  // Table 3: while with WQ recycling executes ~0.3M iterations/s.
  offloads::RecycledAddLoop loop(bed.server);
  loop.Start();
  bed.sim.RunUntil(sim::Millis(2));
  const double rate =
      static_cast<double>(loop.iterations()) / sim::ToSeconds(sim::Millis(2));
  EXPECT_GT(rate, 0.15e6);
  EXPECT_LT(rate, 0.6e6);
}

TEST_F(OffloadTest, RecycledLoopStopsWhenKilled) {
  offloads::RecycledAddLoop loop(bed.server);
  loop.Start();
  bed.sim.RunUntil(sim::Micros(100));
  loop.Kill();
  const std::uint64_t frozen = loop.iterations();
  bed.sim.RunUntil(sim::Micros(300));
  EXPECT_LE(loop.iterations(), frozen + 1);
}

// ---------------------------------------------------------------------------
// WR budgets
// ---------------------------------------------------------------------------

// WRs posted to a set of queues since each was watched.
class PostedSince {
 public:
  void Watch(const char* name, const rnic::WorkQueue& wq) {
    rows_.push_back({name, &wq, wq.posted});
  }
  // The queues a Program created after `last` on `dev`: its control queue
  // first, then its chain queue. Watched from zero (they are new).
  void WatchProgram(rnic::RnicDevice& dev, const QueuePair* last) {
    rows_.push_back({"control", &dev.GetQp(last->id + 1)->sq, 0});
    rows_.push_back({"chain", &dev.GetQp(last->id + 2)->sq, 0});
    EXPECT_EQ(dev.GetQp(last->id + 3), nullptr) << "an unexpected queue";
  }
  // "name=n ..." in watch order.
  std::string Read() const {
    std::string out;
    for (const Row& r : rows_) {
      if (!out.empty()) out += ' ';
      out += std::string(r.name) + "=" + std::to_string(r.wq->posted - r.base);
    }
    return out;
  }

 private:
  struct Row {
    const char* name;
    const rnic::WorkQueue* wq;
    std::uint64_t base;
  };
  std::vector<Row> rows_;
};

// One get request armed on a fresh harness.
std::string HashGetBudget(int buckets, bool parallel) {
  TestBed bed;
  HashGetHarness h(bed.client, bed.server,
                   {.buckets = buckets, .parallel = parallel, .max_requests = 8},
                   /*table_cfg=*/{}, /*heap_bytes=*/1 << 20);
  HashGetOffload& off = h.offload();
  PostedSince posted;
  posted.Watch("control0", off.control(0)->sq);
  posted.Watch("control1", off.control(1)->sq);
  posted.Watch("chain0", off.chain(0)->sq);
  if (parallel) posted.Watch("chain1", off.chain(1)->sq);
  posted.Watch("response0", h.server_qp()->sq);
  posted.Watch("recv", h.server_qp()->rq);
  if (parallel) posted.Watch("response1", h.server_qp2()->sq);
  h.Arm(1);
  return posted.Read();
}

// One request of an offload armed per request on a managed server QP.
template <typename Arm>
std::string PerRequestBudget(Arm arm) {
  TestBed bed;
  auto [cli, srv] = bed.ConnectedPair(/*server_managed=*/true, 4096);
  Buffer resp = bed.Alloc(bed.client, 64);
  PostedSince posted;
  posted.Watch("response", srv->sq);
  posted.Watch("recv", srv->rq);
  auto off = arm(bed.server, srv, resp);
  posted.WatchProgram(bed.server, srv);
  return posted.Read();
}

std::string ArraySearchBudget(bool use_break) {
  return PerRequestBudget([&](rnic::RnicDevice& dev, QueuePair* srv,
                              const Buffer& resp) {
    static const std::vector<std::uint64_t> kValues = {1, 2, 3, 4,
                                                       5, 6, 7, 8};
    auto array = std::make_shared<offloads::SearchArray>(dev, kValues);
    return std::make_pair(
        array, std::make_unique<offloads::ArraySearchOffload>(
                   dev, *array, srv,
                   offloads::ArraySearchOffload::Config{.use_break = use_break},
                   resp.addr(), resp.rkey()));
  });
}

std::string ListTraversalBudget(bool use_break) {
  return PerRequestBudget([&](rnic::RnicDevice& dev, QueuePair* srv,
                              const Buffer& resp) {
    auto list = std::make_shared<ListStore>(dev, 8, 64);
    for (int i = 0; i < 8; ++i) list->AppendPattern(100 + i);
    return std::make_pair(
        list, std::make_unique<ListTraversalOffload>(
                  dev, *list, srv,
                  ListTraversalOffload::Config{.iterations = 8,
                                               .use_break = use_break},
                  resp.addr(), resp.rkey()));
  });
}

std::string CondRpcBudget() {
  return PerRequestBudget([](rnic::RnicDevice& dev, QueuePair* srv,
                             const Buffer& resp) {
    return std::make_unique<offloads::CondRpcOffload>(
        dev, srv, /*y=*/5, /*n=*/1, resp.addr(), resp.rkey());
  });
}

// Every offload shape's exact WR budget for one request, on every queue
// the offload posts to. The counts are the shapes' Table 2 budgets, the
// same whether a shape is built from core::Program's constructs or by
// hand: a construct that gains or loses a WR, or a WR that moves queues,
// fails here, naming the shape.
TEST(OffloadWrBudget, EachShapePostsItsPinnedWrsPerQueue) {
  const struct {
    const char* shape;
    std::string posted;
    const char* want;
  } kShapes[] = {
      {"hash get, 1 bucket", HashGetBudget(1, false),
       "control0=6 control1=0 chain0=2 response0=1 recv=1"},
      {"hash get, 2 buckets sequential", HashGetBudget(2, false),
       "control0=12 control1=0 chain0=4 response0=2 recv=1"},
      {"hash get, 2 buckets parallel", HashGetBudget(2, true),
       "control0=6 control1=6 chain0=2 chain1=2 response0=1 recv=1 "
       "response1=1"},
      {"array search", ArraySearchBudget(false),
       "response=8 recv=1 control=41 chain=16"},
      {"array search with break", ArraySearchBudget(true),
       "response=8 recv=1 control=64 chain=24"},
      {"list traversal", ListTraversalBudget(false),
       "response=8 recv=1 control=41 chain=16"},
      {"list traversal with break", ListTraversalBudget(true),
       "response=8 recv=1 control=64 chain=24"},
      {"conditional RPC", CondRpcBudget(),
       "response=1 recv=1 control=6 chain=1"},
  };
  for (const auto& s : kShapes) EXPECT_EQ(s.posted, s.want) << s.shape;
}

TEST_F(OffloadTest, RateLimiterThrottlesRecycledLoop) {
  // §3.5 Isolation: a WQ rate limit bounds even runaway loops.
  offloads::RecycledAddLoop unlimited(bed.server);
  unlimited.Start();
  offloads::RecycledAddLoop limited(bed.server);
  limited.body()->rate_gap = sim::Micros(50);  // 20K iterations/s cap
  limited.Start();
  bed.sim.RunUntil(sim::Millis(2));
  EXPECT_GT(unlimited.iterations(), limited.iterations() * 5);
}

}  // namespace
}  // namespace redn::test
