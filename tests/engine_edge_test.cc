// Edge cases and failure-injection tests for the RNIC engine: zero-length
// ops, scatter-list limits, waiter bookkeeping, rate-limiter precision,
// mid-chain teardown, and utilisation accounting.
#include <gtest/gtest.h>

#include "sim/stats.h"
#include "testbed.h"

namespace redn::test {
namespace {

using verbs::AwaitCqe;
using verbs::AwaitCqes;
using verbs::Cqe;
using verbs::MakeEnable;
using verbs::MakeNoop;
using verbs::MakeWait;
using verbs::MakeWrite;
using verbs::PostSend;
using verbs::PostSendNow;

class EdgeTest : public ::testing::Test {
 protected:
  TestBed bed;
};

TEST_F(EdgeTest, ZeroLengthWriteCompletes) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 8);
  Buffer dst = bed.Alloc(bed.server, 8);
  dst.SetU64(0, 0x55);
  PostSendNow(cqp, MakeWrite(src.addr(), 0, src.lkey(), dst.addr(), dst.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(dst.U64(0), 0x55u);  // untouched
}

TEST_F(EdgeTest, ZeroLengthSendConsumesRecv) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 8);
  verbs::RecvWr rwr;
  rwr.wr_id = 5;
  verbs::PostRecv(sqp, rwr);
  PostSendNow(cqp, verbs::MakeSend(src.addr(), 0, src.lkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe));
  EXPECT_EQ(cqe.wr_id, 5u);
  EXPECT_EQ(cqe.byte_len, 0u);
}

TEST_F(EdgeTest, SendLargerThanScatterListFailsRecv) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.server, 8);
  verbs::RecvWr rwr;
  rwr.local_addr = dst.addr();
  rwr.length = 8;  // too small for a 64-byte send
  rwr.lkey = dst.lkey();
  verbs::PostRecv(sqp, rwr);
  PostSendNow(cqp, verbs::MakeSend(src.addr(), 64, src.lkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kLocalAccessError);
}

TEST_F(EdgeTest, SixteenScatterEntriesWork) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 16 * 8);
  Buffer dst = bed.Alloc(bed.server, 16 * 8);
  for (int i = 0; i < 16; ++i) src.SetU64(i, 100 + i);
  std::vector<rnic::Sge> sges;
  for (int i = 0; i < 16; ++i) {
    // reverse order so scatter targets are distinguishable
    sges.push_back({dst.addr() + (15 - i) * 8, 8, dst.lkey()});
  }
  verbs::RecvWr rwr;
  Buffer table = bed.SetSgeTable(rwr, bed.server, sges);
  verbs::PostRecv(sqp, rwr);
  PostSendNow(cqp, verbs::MakeSend(src.addr(), 16 * 8, src.lkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(dst.U64(15 - i), 100u + i);
}

TEST_F(EdgeTest, SgeTableOfMoreThanSixteenEntriesFailsTheWr) {
  // A WRITE gathering from a registered table of 20 entries fails with a
  // local protection error instead of sending entries 0-15 and silently
  // dropping 16-19.
  QueuePair* qp = bed.Loopback(bed.client);
  Buffer src = bed.Alloc(bed.client, 20 * 8);
  Buffer dst = bed.Alloc(bed.client, 20 * 8);
  src.Fill(0x5a, 20 * 8);
  std::vector<rnic::Sge> sges;
  for (int i = 0; i < 20; ++i) {
    sges.push_back({src.addr() + i * 8, 8, src.lkey()});
  }
  verbs::SendWr write = MakeWrite(0, 0, 0, dst.addr(), dst.rkey());
  Buffer table = bed.SetSgeTable(write, bed.client, sges);
  PostSendNow(qp, write);
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kLocalAccessError);
  EXPECT_EQ(dst.U64(0), 0u);  // nothing was written
}

TEST_F(EdgeTest, SgeTableOutsideRegisteredMemoryFailsTheWr) {
  // A table pointer naming no registered memory fails its WR with a local
  // protection error: a WRITE when it gathers, a READ and a RECV when they
  // scatter. The NIC never reads the table.
  const auto* nowhere = reinterpret_cast<const rnic::Sge*>(0x10);
  Buffer buf = bed.Alloc(bed.client, 64);
  Cqe cqe;

  QueuePair* wq = bed.Loopback(bed.client);
  verbs::SendWr write = MakeWrite(0, 0, 0, buf.addr(), buf.rkey());
  write.sge_table = nowhere;
  write.sge_count = 2;
  PostSendNow(wq, write);
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, wq->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kLocalAccessError);

  QueuePair* rq = bed.Loopback(bed.client);
  verbs::SendWr read = verbs::MakeRead(0, 8, 0, buf.addr(), buf.rkey());
  read.sge_table = nowhere;
  read.sge_count = 2;
  PostSendNow(rq, read);
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, rq->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kLocalAccessError);

  auto [cqp, sqp] = bed.ConnectedPair();
  verbs::RecvWr rwr;
  rwr.sge_table = nowhere;
  rwr.sge_count = 2;
  verbs::PostRecv(sqp, rwr);
  PostSendNow(cqp, verbs::MakeSend(buf.addr(), 16, buf.lkey()));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.server, sqp->recv_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kLocalAccessError);
}

TEST_F(EdgeTest, MultipleWaitersOnOneCqAllWake) {
  rnic::QueuePair* worker = bed.Loopback(bed.client);
  Buffer flags = bed.Alloc(bed.client, 32);
  Buffer one = bed.Alloc(bed.client, 8);
  one.SetU64(0, 1);
  std::vector<rnic::QueuePair*> waiters;
  for (int w = 0; w < 4; ++w) {
    rnic::QueuePair* qp = bed.Loopback(bed.client);
    PostSend(qp, MakeWait(worker->send_cq, 1));
    PostSend(qp, MakeWrite(one.addr(), 8, one.lkey(), flags.addr() + w * 8,
                           flags.rkey()));
    verbs::RingDoorbell(qp);
    waiters.push_back(qp);
  }
  bed.sim.RunUntil(sim::Micros(30));
  for (int w = 0; w < 4; ++w) EXPECT_EQ(flags.U64(w), 0u);
  PostSendNow(worker, MakeNoop());
  bed.sim.Run();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(flags.U64(w), 1u);
}

TEST_F(EdgeTest, WaitThresholdsFarAheadStayBlocked) {
  rnic::QueuePair* worker = bed.Loopback(bed.client);
  rnic::QueuePair* waiter = bed.Loopback(bed.client);
  PostSend(waiter, MakeWait(worker->send_cq, 100));
  PostSend(waiter, MakeNoop());
  verbs::RingDoorbell(waiter);
  for (int i = 0; i < 99; ++i) PostSend(worker, MakeNoop());
  verbs::RingDoorbell(worker);
  bed.sim.Run();
  Cqe cqe;
  EXPECT_EQ(bed.client.PollCq(waiter->send_cq, 1, &cqe), 0);
  PostSendNow(worker, MakeNoop());  // the 100th
  bed.sim.Run();
  EXPECT_EQ(bed.client.PollCq(waiter->send_cq, 1, &cqe), 1);
}

TEST_F(EdgeTest, EnableIsMonotonicNotResettable) {
  rnic::QueuePair* chain = bed.Loopback(bed.client, /*managed=*/true);
  rnic::QueuePair* ctrl = bed.Loopback(bed.client);
  for (int i = 0; i < 4; ++i) PostSend(chain, MakeNoop());
  PostSend(ctrl, MakeEnable(chain, 3));
  PostSend(ctrl, MakeEnable(chain, 1));  // lower limit must not regress
  verbs::RingDoorbell(ctrl);
  bed.sim.Run();
  Cqe cqe;
  int n = 0;
  while (bed.client.PollCq(chain->send_cq, 1, &cqe) == 1) ++n;
  EXPECT_EQ(n, 3);
}

// HostEnable on a non-managed queue must snapshot up to the new limit at
// enable time, exactly like the ENABLE verb does: WQE bytes rewritten after
// the enable but before execution reaches the slot are invisible.
TEST_F(EdgeTest, HostEnableSnapshotsNonManagedLikeEnableVerb) {
  rnic::QueuePair* qp = bed.Loopback(bed.client);
  Buffer a = bed.Alloc(bed.client, 64);
  Buffer b = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  a.SetU64(0, 0xaaaa);
  b.SetU64(0, 0xbbbb);

  // Slot 8 sits beyond the prefetch batch, so without the enable-time
  // snapshot it would be fetched lazily when execution reaches it — after
  // the rewrite below.
  std::uint64_t wr_idx = 0;
  for (int i = 0; i < 8; ++i) PostSend(qp, MakeNoop(/*signaled=*/false));
  wr_idx = PostSend(qp, MakeWrite(a.addr(), 8, a.lkey(), dst.addr(), dst.rkey()));
  bed.client.HostEnable(qp, 9);

  // Rewrite the gather address once the enable's snapshot has been taken
  // (doorbell MMIO delay) but long before slot 8 executes.
  bed.sim.After(rnic::Calibration{}.doorbell_mmio + 50, [&] {
    rnic::dma::WriteU64(qp->sq.SlotAddr(wr_idx, rnic::WqeField::kLocalAddr),
                        b.addr());
  });

  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(dst.U64(0), 0xaaaau)
      << "host enable executed post-enable WQE bytes; ENABLE-verb parity lost";
}

TEST_F(EdgeTest, RateLimitedQueueKeepsExactRate) {
  rnic::QpConfig c;
  c.sq_depth = 512;
  c.send_cq = bed.client.CreateCq();
  c.recv_cq = bed.client.CreateCq();
  c.rate_ops_per_sec = 100'000;  // 10 us gap
  rnic::QueuePair* qp = bed.client.CreateQp(c);
  rnic::ConnectSelf(qp);
  const int n = 50;
  for (int i = 0; i < n; ++i) PostSend(qp, MakeNoop());
  verbs::RingDoorbell(qp);
  Cqe cqe;
  ASSERT_TRUE(AwaitCqes(bed.sim, bed.client, qp->send_cq, n, &cqe));
  const double us = sim::ToMicros(bed.sim.now());
  EXPECT_GE(us, (n - 1) * 10.0);
  EXPECT_LE(us, n * 10.0 + 20.0);
}

TEST_F(EdgeTest, RateLimitReconfigureForgetsStaleSchedule) {
  rnic::QpConfig c;
  c.sq_depth = 64;
  c.send_cq = bed.client.CreateCq();
  c.recv_cq = bed.client.CreateCq();
  c.rate_ops_per_sec = 1'000;  // 1 ms gap
  rnic::QueuePair* qp = bed.client.CreateQp(c);
  rnic::ConnectSelf(qp);
  for (int i = 0; i < 3; ++i) PostSend(qp, MakeNoop());
  verbs::RingDoorbell(qp);
  Cqe cqe;
  ASSERT_TRUE(AwaitCqes(bed.sim, bed.client, qp->send_cq, 3, &cqe));
  // The limiter's cursor now points ~1 ms into the future. Lifting the cap
  // must forget that schedule: the next WQE paces from now, not from the
  // slot computed under the old gap.
  bed.client.SetRateLimit(qp, 0.0);
  const sim::Nanos before = bed.sim.now();
  PostSend(qp, MakeNoop());
  verbs::RingDoorbell(qp);
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_LT(bed.sim.now() - before, sim::Micros(50))
      << "first WQE after reconfigure still delayed by the stale rate slot";

  // Re-arming a (different) rate also starts fresh rather than inheriting
  // the old cursor.
  bed.client.SetRateLimit(qp, 1e6);  // 1 us gap
  const sim::Nanos t0 = bed.sim.now();
  for (int i = 0; i < 4; ++i) PostSend(qp, MakeNoop());
  verbs::RingDoorbell(qp);
  ASSERT_TRUE(AwaitCqes(bed.sim, bed.client, qp->send_cq, 4, &cqe));
  const double us = sim::ToMicros(bed.sim.now() - t0);
  EXPECT_GE(us, 3.0);   // paced at the new gap
  EXPECT_LE(us, 10.0);  // but not by any leftover millisecond slot
}

TEST_F(EdgeTest, ManagedRingWrapRefetchesSlotZeroOnSecondLap) {
  // WQ recycling (§3.4) across the ring boundary: a 4-deep managed queue
  // enabled past its posted count re-executes slot 0 on the second lap, and
  // doorbell order means that second execution must be fetched *then* — in
  // its modified form.
  rnic::QueuePair* qp = bed.Loopback(bed.client, /*managed=*/true,
                                     /*depth=*/4);
  Buffer src = bed.Alloc(bed.client, 128);
  Buffer dst = bed.Alloc(bed.client, 8);
  src.SetU64(0, 0x11);
  src.SetU64(8, 0x22);  // at src.addr() + 64, where the ADD shifts the gather

  // Slot 0: the lap-sensitive WRITE. Slot 1: self-modifies slot 0's gather
  // address (+64). Slot 2: barrier until both completed. Slot 3: padding.
  PostSend(qp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), dst.rkey(),
                         /*signaled=*/true));
  PostSend(qp, verbs::MakeFetchAdd(
                   qp->sq.SlotAddr(0, rnic::WqeField::kLocalAddr),
                   qp->sq_mr.rkey, 64));
  PostSend(qp, MakeWait(qp->send_cq, 2));
  PostSend(qp, MakeNoop(/*signaled=*/false));

  // Limit 5 > posted 4: index 4 wraps onto ring slot 0 for a second lap.
  bed.client.HostEnable(qp, 5);
  Cqe cqe;
  ASSERT_TRUE(AwaitCqes(bed.sim, bed.client, qp->send_cq, 3, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(dst.U64(0), 0x22u)
      << "second-lap slot 0 executed a stale snapshot, not the modified WQE";
  EXPECT_EQ(qp->sq.next_exec, 5u);
  // Each executed slot was individually fetched (no prefetch): 5 fetches.
  EXPECT_EQ(bed.client.counters().managed_fetches, 5u);
}

TEST_F(EdgeTest, WriteInFlightWhenPeerDiesFailsWithoutTouchingMemory) {
  auto [cqp, sqp] = bed.ConnectedPair();
  rnic::Connect(cqp, sqp, 10'000);  // long wire: the kill lands mid-flight
  Buffer src = bed.Alloc(bed.client, 8);
  Buffer dst = bed.Alloc(bed.server, 8);
  src.SetU64(0, 0x77);
  sqp->owner_pid = 9;
  PostSendNow(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), dst.rkey()));
  // Issue happens ~0.8 us in; arrival ~11 us. Kill in between.
  bed.sim.At(sim::Micros(5), [&] { bed.server.KillProcessResources(9); });
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError);
  EXPECT_EQ(dst.U64(0), 0u) << "bytes landed in a dead process's memory";
}

TEST_F(EdgeTest, SendInFlightWhenPeerDiesConsumesNoRecv) {
  auto [cqp, sqp] = bed.ConnectedPair();
  rnic::Connect(cqp, sqp, 10'000);
  Buffer src = bed.Alloc(bed.client, 8);
  Buffer dst = bed.Alloc(bed.server, 8);
  verbs::RecvWr rwr;
  rwr.local_addr = dst.addr();
  rwr.length = 8;
  rwr.lkey = dst.lkey();
  verbs::PostRecv(sqp, rwr);
  sqp->owner_pid = 9;
  PostSendNow(cqp, verbs::MakeSend(src.addr(), 8, src.lkey()));
  bed.sim.At(sim::Micros(5), [&] { bed.server.KillProcessResources(9); });
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError);
  EXPECT_EQ(sqp->rq.consumed, 0u) << "a dead QP consumed a RECV";
}

TEST_F(EdgeTest, ReadInFlightWhenPeerDiesFailsInsteadOfHanging) {
  auto [cqp, sqp] = bed.ConnectedPair();
  rnic::Connect(cqp, sqp, 10'000);
  Buffer src = bed.Alloc(bed.server, 8);
  Buffer dst = bed.Alloc(bed.client, 8);
  sqp->owner_pid = 9;
  PostSendNow(cqp, verbs::MakeRead(dst.addr(), 8, dst.lkey(), src.addr(),
                                   src.rkey()));
  bed.sim.At(sim::Micros(5), [&] { bed.server.KillProcessResources(9); });
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe))
      << "READ to a dying peer was dropped silently — requester hangs";
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError);
}

TEST_F(EdgeTest, AtomicInFlightWhenPeerDiesFailsAndSkipsRmw) {
  auto [cqp, sqp] = bed.ConnectedPair();
  rnic::Connect(cqp, sqp, 10'000);
  Buffer word = bed.Alloc(bed.server, 8);
  word.SetU64(0, 5);
  sqp->owner_pid = 9;
  PostSendNow(cqp, verbs::MakeFetchAdd(word.addr(), word.rkey(), 1));
  bed.sim.At(sim::Micros(5), [&] { bed.server.KillProcessResources(9); });
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError);
  EXPECT_EQ(word.U64(0), 5u) << "RMW executed against a dead process";
}

TEST(EdgeCrash, AtomicKilledBetweenCheckAndRmwFlushes) {
  // The narrowest window: the peer passes the protection check at request
  // arrival, then dies before the atomic unit runs the RMW. The completion
  // must report failure — a success CQE would claim remote memory changed.
  rnic::Calibration cal;
  cal.atomic_unit_service = 5'000;  // stretch the check->RMW window
  TestBed bed(rnic::NicConfig::ConnectX5(), cal);
  auto [cqp, sqp] = bed.ConnectedPair();
  rnic::Connect(cqp, sqp, 10'000);
  Buffer word = bed.Alloc(bed.server, 8);
  word.SetU64(0, 5);
  sqp->owner_pid = 9;
  PostSendNow(cqp, verbs::MakeFetchAdd(word.addr(), word.rkey(), 1));
  // t_req ~10.8 us, RMW at ~15.8 us: kill at 13 us lands inside the window.
  bed.sim.At(sim::Micros(13), [&] { bed.server.KillProcessResources(9); });
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError)
      << "atomic completed successfully although the RMW never ran";
  EXPECT_EQ(word.U64(0), 5u);
}

TEST_F(EdgeTest, RemoteWriteAfterServerShrinksMrFaults) {
  // ibv_rereg_mr keeps the key values: a client holding the old rkey must
  // fault past the new bounds, although the same write landed before the
  // server shrank the region (Reregister edits the region in place, see
  // rnic/memory.h).
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 8);
  Buffer dst = bed.Alloc(bed.server, 1024);
  // A far-end write while the region is whole.
  PostSendNow(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr() + 512,
                             dst.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  ASSERT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  // The server shrinks the registration to the first 256 bytes.
  ASSERT_TRUE(bed.server.pd().Reregister(dst.mr.lkey, dst.bytes(), 256,
                                         rnic::kAccessAll));
  PostSendNow(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr() + 512,
                             dst.rkey()));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError)
      << "a write past the shrunk region passed the protection check";
}

TEST_F(EdgeTest, KilledQpStopsMidChain) {
  rnic::QueuePair* chain = bed.Loopback(bed.client, /*managed=*/true);
  rnic::QueuePair* ctrl = bed.Loopback(bed.client);
  Buffer counter = bed.Alloc(bed.client, 8);
  chain->owner_pid = 42;
  ctrl->owner_pid = 42;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    PostSend(chain, verbs::MakeFetchAdd(counter.addr(), counter.rkey(), 1));
  }
  for (int i = 0; i < n; ++i) {
    if (i > 0) PostSend(ctrl, MakeWait(chain->send_cq, i));
    PostSend(ctrl, MakeEnable(chain, i + 1));
  }
  verbs::RingDoorbell(ctrl);
  bed.sim.RunUntil(sim::Micros(20));  // let a few iterations run
  bed.client.KillProcessResources(42);
  bed.sim.Run();
  const std::uint64_t at_kill = counter.U64(0);
  EXPECT_GT(at_kill, 0u);
  EXPECT_LT(at_kill, static_cast<std::uint64_t>(n));
  bed.sim.RunUntil(bed.sim.now() + sim::Millis(1));
  EXPECT_EQ(counter.U64(0), at_kill);  // no further progress, ever
}

TEST_F(EdgeTest, DeadPeerFailsNewOps) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 8);
  Buffer dst = bed.Alloc(bed.server, 8);
  sqp->owner_pid = 7;
  bed.server.KillProcessResources(7);
  PostSendNow(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), dst.rkey()));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kRemoteAccessError);
}

// The three WQEs Issue rejects before they execute: a WAIT on a CQ id the
// device never created, a RECV opcode in a send queue, and an opcode past
// the last one defined. Each completes with BAD_OPCODE, latches the send
// queue, and the WRITE posted behind it never runs.
TEST_F(EdgeTest, MalformedWqeFailsBadOpcodeAndLatchesTheQueue) {
  verbs::SendWr wait_on_missing_cq;
  wait_on_missing_cq.opcode = rnic::Opcode::kWait;
  wait_on_missing_cq.target_id = 1u << 20;
  wait_on_missing_cq.threshold = 1;
  verbs::SendWr recv_in_sq;
  recv_in_sq.opcode = rnic::Opcode::kRecv;
  verbs::SendWr past_last_opcode;
  past_last_opcode.opcode = rnic::Opcode::kOpcodeCount;
  const std::pair<const char*, verbs::SendWr> cases[] = {
      {"WAIT on a missing CQ", wait_on_missing_cq},
      {"RECV in a send queue", recv_in_sq},
      {"opcode >= kOpcodeCount", past_last_opcode},
  };
  std::uint64_t bad = 0;
  for (auto [what, wr] : cases) {
    SCOPED_TRACE(what);
    auto [cqp, sqp] = bed.ConnectedPair();
    (void)sqp;
    Buffer src = bed.Alloc(bed.client, 8);
    Buffer dst = bed.Alloc(bed.server, 8);
    src.SetU64(0, 0x1234);
    wr.wr_id = 77;
    PostSend(cqp, wr);
    PostSendNow(cqp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(),
                               dst.rkey()));
    Cqe cqe;
    ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
    EXPECT_EQ(cqe.status, rnic::WcStatus::kBadOpcode);
    EXPECT_EQ(cqe.wr_id, 77u);
    EXPECT_EQ(cqe.opcode, wr.opcode);
    EXPECT_FALSE(cqp->Usable());
    EXPECT_EQ(cqp->state, rnic::QpState::kRts);  // a latch, not a QP error
    bed.sim.RunUntil(bed.sim.now() + sim::Millis(1));
    EXPECT_EQ(bed.client.PollCq(cqp->send_cq, 1, &cqe), 0);  // no flush
    EXPECT_EQ(dst.U64(0), 0u);  // the WRITE behind it never ran
    EXPECT_EQ(bed.client.counters().error_completions, ++bad);
  }
  EXPECT_EQ(bed.client.counters().executed_by_opcode[static_cast<int>(
                rnic::Opcode::kWrite)],
            0u);
  EXPECT_EQ(bed.client.counters().qp_errors, 0u);
}

// ibv_post_send / ibv_post_recv on a QP in ERROR: each new WR completes at
// once with WR_FLUSH_ERR, and nothing executes. A killed QP flushes
// nothing (its process is gone); a send queue latched by a failed WR stays
// in RTS and flushes nothing either
// (MalformedWqeFailsBadOpcodeAndLatchesTheQueue).
TEST_F(EdgeTest, PostToErroredQpFlushesAtOnce) {
  auto [cqp, sqp] = bed.ConnectedPair();
  auto [dead, dead_peer] = bed.ConnectedPair();
  (void)sqp;
  (void)dead_peer;
  Buffer src = bed.Alloc(bed.client, 8);
  Buffer dst = bed.Alloc(bed.server, 8);
  src.SetU64(0, 0x5eed);
  verbs::SendWr write = MakeWrite(src.addr(), 8, src.lkey(), dst.addr(),
                                  dst.rkey());
  write.wr_id = 41;
  verbs::RecvWr recv;
  recv.wr_id = 42;

  bed.client.TransitionToError(cqp);
  bed.client.Kill(dead);
  bed.sim.RunUntil(bed.sim.now() + sim::Millis(1));
  const rnic::DeviceCounters& ctr = bed.client.counters();
  ASSERT_EQ(ctr.wrs_flushed, 0u);  // nothing was queued
  for (rnic::QueuePair* qp : {cqp, dead}) {
    PostSendNow(qp, write);
    verbs::PostRecv(qp, recv);
  }
  const sim::Nanos deadline = bed.sim.now() + sim::Micros(10);
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe, deadline));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kWrFlushError);
  EXPECT_EQ(cqe.opcode, rnic::Opcode::kWrite);
  EXPECT_EQ(cqe.wr_id, 41u);
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->recv_cq, &cqe, deadline));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kWrFlushError);
  EXPECT_EQ(cqe.opcode, rnic::Opcode::kRecv);
  EXPECT_EQ(cqe.wr_id, 42u);

  bed.sim.RunUntil(bed.sim.now() + sim::Millis(5));
  for (rnic::QueuePair* qp : {cqp, dead}) {
    EXPECT_EQ(bed.client.PollCq(qp->send_cq, 1, &cqe), 0);
    EXPECT_EQ(bed.client.PollCq(qp->recv_cq, 1, &cqe), 0);
  }
  EXPECT_EQ(ctr.wrs_flushed, 2u);
  EXPECT_EQ(dst.U64(0), 0u);
  EXPECT_EQ(ctr.executed_by_opcode[int(rnic::Opcode::kWrite)], 0u);
}

TEST_F(EdgeTest, HasLiveQpsTracksKills) {
  auto [cqp, sqp] = bed.ConnectedPair();
  (void)cqp;
  EXPECT_TRUE(bed.server.HasLiveQps());
  sqp->owner_pid = 3;
  bed.server.KillProcessResources(3);
  EXPECT_FALSE(bed.server.HasLiveQps());
}

TEST_F(EdgeTest, UtilisationAccountingIsSane) {
  auto [cqp, sqp] = bed.ConnectedPair();
  Buffer src = bed.Alloc(bed.client, 64 * 1024);
  Buffer dst = bed.Alloc(bed.server, 64 * 1024);
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    PostSend(cqp, MakeWrite(src.addr(), 64 * 1024, src.lkey(), dst.addr(),
                            dst.rkey(), i + 1 == n));
  }
  verbs::RingDoorbell(cqp);
  bed.sim.Run();
  const sim::Nanos window = bed.sim.now();
  // 20 x 64 KiB over the link: utilisation must be meaningful and <= 1.
  const double link = bed.client.LinkUtilisation(0, window);
  EXPECT_GT(link, 0.3);
  EXPECT_LE(link, 1.0);
  EXPECT_STREQ(bed.client.BusiestResource(window), "IB bw");
}

TEST_F(EdgeTest, CountersTallyExecutedWork) {
  rnic::QueuePair* qp = bed.Loopback(bed.client);
  Buffer b = bed.Alloc(bed.client, 64);
  PostSend(qp, MakeNoop());
  PostSend(qp, MakeWrite(b.addr(), 8, b.lkey(), b.addr() + 8, b.rkey()));
  PostSend(qp, verbs::MakeFetchAdd(b.addr() + 16, b.rkey(), 1));
  verbs::RingDoorbell(qp);
  bed.sim.Run();
  const auto& c = bed.client.counters();
  EXPECT_EQ(c.executed_by_opcode[int(rnic::Opcode::kNoop)], 1u);
  EXPECT_EQ(c.executed_by_opcode[int(rnic::Opcode::kWrite)], 1u);
  EXPECT_EQ(c.executed_by_opcode[int(rnic::Opcode::kFetchAdd)], 1u);
  EXPECT_EQ(c.TotalExecuted(), 3u);
  EXPECT_EQ(c.doorbells, 1u);
}

TEST_F(EdgeTest, PostSendOverflowThrows) {
  rnic::QpConfig c;
  c.sq_depth = 4;
  c.send_cq = bed.client.CreateCq();
  c.recv_cq = bed.client.CreateCq();
  rnic::QueuePair* qp = bed.client.CreateQp(c);
  rnic::ConnectSelf(qp);
  for (int i = 0; i < 4; ++i) PostSend(qp, MakeNoop());
  EXPECT_THROW(PostSend(qp, MakeNoop()), std::runtime_error);
}

TEST_F(EdgeTest, JitterPreservesMeanRoughly) {
  rnic::Calibration cal;
  cal.jitter_frac = 0.2;
  sim::Simulator sim;
  rnic::RnicDevice client(sim, rnic::NicConfig::ConnectX5(), cal, "c");
  rnic::RnicDevice server(sim, rnic::NicConfig::ConnectX5(), cal, "s");
  rnic::QpConfig cc;
  cc.sq_depth = 4096;
  cc.send_cq = client.CreateCq();
  cc.recv_cq = client.CreateCq();
  rnic::QueuePair* cqp = client.CreateQp(cc);
  rnic::QpConfig sc;
  sc.send_cq = server.CreateCq();
  sc.recv_cq = server.CreateCq();
  rnic::QueuePair* sqp = server.CreateQp(sc);
  rnic::Connect(cqp, sqp, cal.net_one_way);
  auto buf = std::make_unique<std::byte[]>(64);
  auto cmr = client.pd().Register(buf.get(), 64, rnic::kAccessAll);
  auto sbuf = std::make_unique<std::byte[]>(64);
  auto smr = server.pd().Register(sbuf.get(), 64, rnic::kAccessAll);
  sim::LatencyRecorder rec;
  Cqe cqe;
  for (int i = 0; i < 400; ++i) {
    const sim::Nanos t0 = sim.now();
    PostSendNow(cqp, MakeWrite(cmr.addr, 64, cmr.lkey, smr.addr, smr.rkey));
    ASSERT_TRUE(AwaitCqe(sim, client, cqp->send_cq, &cqe));
    rec.Add(sim.now() - t0);
  }
  EXPECT_NEAR(rec.MeanUs(), 1.6, 0.1);            // mean preserved
  EXPECT_GT(rec.MaxNs() - rec.MinNs(), 20);       // but samples vary
}

}  // namespace
}  // namespace redn::test
