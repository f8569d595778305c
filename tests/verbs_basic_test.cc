// End-to-end verb execution on the simulated RNIC: data movement,
// completions, latency calibration, and error paths.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "testbed.h"

namespace redn::test {
namespace {

using verbs::AwaitCqe;
using verbs::Cqe;
using verbs::MakeCas;
using verbs::MakeFetchAdd;
using verbs::MakeNoop;
using verbs::MakeRead;
using verbs::MakeSend;
using verbs::MakeWrite;
using verbs::PostRecv;
using verbs::PostSendNow;
using verbs::RecvWr;

class VerbsTest : public ::testing::Test {
 protected:
  TestBed bed;
};

TEST_F(VerbsTest, RemoteWriteMovesData) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 256);
  Buffer dst = bed.Alloc(bed.server, 256);
  src.SetU64(0, 0xfeedface12345678ULL);

  PostSendNow(cqp, MakeWrite(src.addr(), 64, src.lkey(), dst.addr(), dst.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(cqe.byte_len, 64u);
  EXPECT_EQ(dst.U64(0), 0xfeedface12345678ULL);
}

TEST_F(VerbsTest, RemoteWriteLatencyMatchesPaper) {
  // Fig 7: a remote 64B WRITE completes in ~1.6 us.
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.server, 64);
  const sim::Nanos t0 = bed.sim.now();
  PostSendNow(cqp, MakeWrite(src.addr(), 64, src.lkey(), dst.addr(), dst.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  const double us = sim::ToMicros(bed.sim.now() - t0);
  EXPECT_NEAR(us, 1.6, 0.15);
}

TEST_F(VerbsTest, RemoteReadFetchesData) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer local = bed.Alloc(bed.client, 256);
  Buffer remote = bed.Alloc(bed.server, 256);
  remote.SetU64(0, 0xabcdefULL);
  remote.SetU64(1, 0x123456ULL);

  const sim::Nanos t0 = bed.sim.now();
  PostSendNow(cqp, MakeRead(local.addr(), 16, local.lkey(), remote.addr(),
                            remote.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(local.U64(0), 0xabcdefULL);
  EXPECT_EQ(local.U64(1), 0x123456ULL);
  // Fig 7: non-posted verbs take ~1.8 us.
  EXPECT_NEAR(sim::ToMicros(bed.sim.now() - t0), 1.8, 0.15);
}

TEST_F(VerbsTest, NoopRemoteVsLocalDeltaIsNetworkCost) {
  // Fig 7: remote NOOP ~1.21 us; the remote-local delta is ~0.25 us.
  auto [cqp, sqp] = bed.ConnectedPair();
  const sim::Nanos t0 = bed.sim.now();
  PostSendNow(cqp, MakeNoop());
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  const double remote_us = sim::ToMicros(bed.sim.now() - t0);
  EXPECT_NEAR(remote_us, 1.21, 0.1);

  QueuePair* lb = bed.Loopback(bed.client);
  const sim::Nanos t1 = bed.sim.now();
  PostSendNow(lb, MakeNoop());
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, lb->send_cq, &cqe));
  const double local_us = sim::ToMicros(bed.sim.now() - t1);
  EXPECT_NEAR(remote_us - local_us, 0.25, 0.05);
}

TEST_F(VerbsTest, SendConsumesRecvAndScatters) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer msg = bed.Alloc(bed.client, 64);
  Buffer rbuf = bed.Alloc(bed.server, 64);
  msg.SetU64(0, 111);
  msg.SetU64(1, 222);

  RecvWr rwr;
  rwr.wr_id = 9;
  rwr.local_addr = rbuf.addr();
  rwr.length = 64;
  rwr.lkey = rbuf.lkey();
  PostRecv(sqp, rwr);

  PostSendNow(cqp, MakeSend(msg.addr(), 16, msg.lkey()));
  Cqe rcqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &rcqe));
  EXPECT_EQ(rcqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(rcqe.wr_id, 9u);
  EXPECT_EQ(rcqe.byte_len, 16u);
  EXPECT_EQ(rbuf.U64(0), 111u);
  EXPECT_EQ(rbuf.U64(1), 222u);
}

TEST_F(VerbsTest, SendScattersAcrossSgeTable) {
  // The injection primitive: a RECV scatter list pointing at two disjoint
  // destinations (in RedN: fields of different WQEs).
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer msg = bed.Alloc(bed.client, 64);
  Buffer a = bed.Alloc(bed.server, 8);
  Buffer b = bed.Alloc(bed.server, 8);
  msg.SetU64(0, 0xaaaa);
  msg.SetU64(1, 0xbbbb);

  std::vector<rnic::Sge> sges = {{a.addr(), 8, a.lkey()},
                                 {b.addr(), 8, b.lkey()}};
  RecvWr rwr;
  rwr.sge_table = sges.data();
  rwr.sge_count = 2;
  PostRecv(sqp, rwr);

  PostSendNow(cqp, MakeSend(msg.addr(), 16, msg.lkey()));
  Cqe rcqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &rcqe));
  EXPECT_EQ(a.U64(0), 0xaaaau);
  EXPECT_EQ(b.U64(0), 0xbbbbu);
}

TEST_F(VerbsTest, SendWithoutRecvIsRnr) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer msg = bed.Alloc(bed.client, 64);
  PostSendNow(cqp, MakeSend(msg.addr(), 8, msg.lkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRnrError);
}

TEST_F(VerbsTest, RecvOverflowThrowsInsteadOfOverwriting) {
  // ibv_post_recv's ENOMEM: an RQ already holding `capacity` unconsumed
  // RECVs refuses the next one instead of overwriting the oldest.
  auto [cqp, sqp] = bed.ConnectedPair(/*server_managed=*/false, /*depth=*/4);
  Buffer msg = bed.Alloc(bed.client, 8);
  Buffer rbuf = bed.Alloc(bed.server, 8);
  RecvWr rwr;
  rwr.local_addr = rbuf.addr();
  rwr.length = 8;
  rwr.lkey = rbuf.lkey();
  for (std::uint64_t i = 0; i < 4; ++i) {
    rwr.wr_id = i;
    PostRecv(sqp, rwr);
  }
  rwr.wr_id = 4;
  try {
    PostRecv(sqp, rwr);
    FAIL() << "fifth RECV on a 4-deep RQ did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("receive queue overflow"),
              std::string::npos)
        << e.what();
  }

  // The oldest RECV survived; consuming it frees exactly one slot.
  PostSendNow(cqp, MakeSend(msg.addr(), 8, msg.lkey()));
  Cqe rcqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &rcqe));
  EXPECT_EQ(rcqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(rcqe.wr_id, 0u);
  EXPECT_NO_THROW(PostRecv(sqp, rwr));
  EXPECT_THROW(PostRecv(sqp, rwr), std::runtime_error);
}

TEST_F(VerbsTest, CasSucceedsOnMatch) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer word = bed.Alloc(bed.server, 8);
  Buffer result = bed.Alloc(bed.client, 8);
  word.SetU64(0, 42);

  PostSendNow(cqp, MakeCas(word.addr(), word.rkey(), 42, 99, result.addr(),
                           result.lkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(word.U64(0), 99u);    // swapped
  EXPECT_EQ(result.U64(0), 42u);  // old value returned
}

TEST_F(VerbsTest, CasFailsOnMismatchLeavingMemoryIntact) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer word = bed.Alloc(bed.server, 8);
  Buffer result = bed.Alloc(bed.client, 8);
  word.SetU64(0, 41);

  PostSendNow(cqp, MakeCas(word.addr(), word.rkey(), 42, 99, result.addr(),
                           result.lkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);  // CAS miss is not an error
  EXPECT_EQ(word.U64(0), 41u);
  EXPECT_EQ(result.U64(0), 41u);
}

TEST_F(VerbsTest, FetchAddAccumulates) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer word = bed.Alloc(bed.server, 8);
  word.SetU64(0, 100);
  PostSendNow(cqp, MakeFetchAdd(word.addr(), word.rkey(), 7));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(word.U64(0), 107u);
}

TEST_F(VerbsTest, CalcMaxKeepsLargerValue) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer word = bed.Alloc(bed.server, 8);
  word.SetU64(0, 50);
  PostSendNow(cqp, verbs::MakeCalcMax(word.addr(), word.rkey(), 80));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(word.U64(0), 80u);
  PostSendNow(cqp, verbs::MakeCalcMax(word.addr(), word.rkey(), 30));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(word.U64(0), 80u);
}

TEST_F(VerbsTest, AtomicRequiresAlignment) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer word = bed.Alloc(bed.server, 16);
  PostSendNow(cqp, MakeCas(word.addr() + 4, word.rkey(), 0, 1));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kAlignmentError);
}

TEST_F(VerbsTest, BadRkeyFailsWrite) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.server, 64);
  PostSendNow(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), 0xbad));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError);
}

TEST_F(VerbsTest, QpStopsAfterError) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.server, 64);
  verbs::PostSend(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), 0xbad));
  verbs::PostSend(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(),
                                 dst.rkey()));
  verbs::RingDoorbell(cqp);
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError);
  bed.sim.Run();
  // The second WR never executes: the QP is in error state.
  EXPECT_EQ(bed.client.PollCq(cqp->send_cq, 1, &cqe), 0);
  EXPECT_EQ(dst.U64(0), 0u);
}

TEST_F(VerbsTest, UnsignaledWrProducesNoCqe) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.server, 64);
  src.SetU64(0, 5);
  PostSendNow(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), dst.rkey(),
                             /*signaled=*/false));
  bed.sim.Run();
  Cqe cqe;
  EXPECT_EQ(bed.client.PollCq(cqp->send_cq, 1, &cqe), 0);
  EXPECT_EQ(dst.U64(0), 5u);  // data still moved
}

TEST_F(VerbsTest, LargeTransferLatencyScalesWithBandwidth) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 64 * 1024);
  Buffer dst = bed.Alloc(bed.server, 64 * 1024);
  const sim::Nanos t0 = bed.sim.now();
  PostSendNow(cqp, MakeWrite(src.addr(), 64 * 1024, src.lkey(), dst.addr(),
                             dst.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  const double us = sim::ToMicros(bed.sim.now() - t0);
  // 64 KiB across link+PCIe+memory store-and-forward: ~16 us (Fig 10 regime).
  EXPECT_GT(us, 12.0);
  EXPECT_LT(us, 20.0);
}

TEST_F(VerbsTest, RateLimiterSpacesIssues) {
  // §3.5 Isolation: a WQ rate limit caps issue rate even for runaway posts.
  QpConfig c;
  c.send_cq = bed.client.CreateCq();
  c.recv_cq = bed.client.CreateCq();
  c.rate_ops_per_sec = 1e6;  // 1 op/us
  QueuePair* qp = bed.client.CreateQp(c);
  rnic::ConnectSelf(qp);
  for (int i = 0; i < 10; ++i) verbs::PostSend(qp, MakeNoop());
  verbs::RingDoorbell(qp);
  Cqe cqe;
  ASSERT_TRUE(verbs::AwaitCqes(bed.sim, bed.client, qp->send_cq, 10, &cqe));
  // 10 ops at 1 op/us cannot finish faster than ~9 us.
  EXPECT_GE(bed.sim.now(), sim::Micros(9.0));
}

}  // namespace
}  // namespace redn::test
