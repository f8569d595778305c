// Decoded-WQE cache (see docs/PERF.md): a fetch keeps the image last
// decoded from a ring slot while the live slot bytes still equal it, and
// reloads it when they differ. The cache must never change WHAT executes —
// a managed ring slot rewritten between laps executes its modified form no
// matter which path rewrote it (RDMA WRITE delivery, atomic RMW, RECV
// scatter, or a raw host-side DMA patch). Counted per fetch: a slot
// rewritten since its last fetch is one miss at its next fetch, and an
// untouched recycled slot is a hit. A re-executed WQE's gathers and
// scatters are checked against the region as it is now: a re-registered,
// shrunk region faults the next access past its new bound.
#include <gtest/gtest.h>

#include <cstring>

#include "testbed.h"

namespace redn {
namespace {

using test::Buffer;
using test::TestBed;
using rnic::Cqe;
using rnic::Opcode;
using rnic::WqeField;
using verbs::AwaitCqe;
using verbs::AwaitCqes;
using verbs::MakeNoop;
using verbs::MakeRead;
using verbs::MakeWait;
using verbs::MakeWrite;
using verbs::PostSend;
using verbs::PostSendNow;

class WqeCacheTest : public ::testing::Test {
 protected:
  TestBed bed;

  std::uint64_t Hits() const { return bed.client.counters().wqe_cache_hits; }
  std::uint64_t Misses() const {
    return bed.client.counters().wqe_cache_misses;
  }
};

TEST_F(WqeCacheTest, UnmodifiedRecycledSlotsAreVerifiedHits) {
  // A managed ring recycled for a second lap with no self-modification:
  // lap 1 decodes the posted WRITE, and every lap-2 fetch finds its slot
  // unchanged and keeps the image.
  rnic::QueuePair* qp = bed.Loopback(bed.client, /*managed=*/true,
                                     /*depth=*/4);
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  PostSend(qp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), dst.rkey(),
                         /*signaled=*/true));
  for (int i = 0; i < 3; ++i) PostSend(qp, MakeNoop(/*signaled=*/false));

  bed.client.HostEnable(qp, 4);  // lap 1
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  bed.sim.Run();  // drain the trailing unsignaled NOOP fetches
  // The unsignaled NOOPs encode to all-zero bytes, which equal the images a
  // fresh queue starts with: only the WRITE decodes.
  EXPECT_EQ(Misses(), 1u);
  const std::uint64_t hits_lap1 = Hits();

  bed.client.HostEnable(qp, 8);  // lap 2 of the 4-deep ring
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  bed.sim.Run();
  EXPECT_EQ(bed.client.counters().managed_fetches, 8u)
      << "the cache must not elide the simulated fetches themselves";
  EXPECT_EQ(Hits(), hits_lap1 + 4) << "untouched recycled slots must hit";
  EXPECT_EQ(Misses(), 1u) << "an untouched slot must not reload";
}

TEST_F(WqeCacheTest, RdmaWriteIntoRingSlotExecutesModifiedFormNextLap) {
  // Lap-N verb rewrites slot 0's remote address via an RDMA WRITE landing
  // in the ring MR (the AcceptWrite/dma::Write delivery path): lap N+1 must
  // execute the modified form, reloaded by exactly one miss at its fetch.
  rnic::QueuePair* qp = bed.Loopback(bed.client, /*managed=*/true,
                                     /*depth=*/4);
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  Buffer patch = bed.Alloc(bed.client, 8);
  src.SetU64(0, 0xAB);
  patch.SetU64(0, dst.addr() + 8);  // the new kRemoteAddr payload

  PostSend(qp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), dst.rkey(),
                         /*signaled=*/true));
  // Slot 1 rewrites slot 0's kRemoteAddr field through the ring's rkey.
  PostSend(qp, MakeWrite(patch.addr(), 8, patch.lkey(),
                         qp->sq.SlotAddr(0, WqeField::kRemoteAddr),
                         qp->sq_mr.rkey, /*signaled=*/true));
  PostSend(qp, MakeWait(qp->send_cq, 2));  // barrier: both writes landed
  PostSend(qp, MakeNoop(/*signaled=*/false));

  bed.client.HostEnable(qp, 4);  // lap 1
  Cqe cqe;
  ASSERT_TRUE(AwaitCqes(bed.sim, bed.client, qp->send_cq, 2, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  bed.sim.Run();
  EXPECT_EQ(dst.U64(0), 0xABu) << "first lap targeted dst+0";
  const std::uint64_t hits_lap1 = Hits();
  const std::uint64_t misses_lap1 = Misses();

  bed.client.HostEnable(qp, 5);  // index 4 wraps onto slot 0: second lap
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(dst.U64(1), 0xABu)
      << "second lap executed the stale decode, not the rewritten WQE";
  EXPECT_EQ(Misses(), misses_lap1 + 1)
      << "the rewritten slot must reload once at its next fetch";
  EXPECT_EQ(Hits(), hits_lap1);
}

TEST_F(WqeCacheTest, AtomicCtrlRewriteFlipsNoopIntoWrite) {
  // The paper's conditional: a CAS on the ctrl word compares {NOOP, id} and
  // swaps in {WRITE, id}, enabling a pre-staged WRITE. The atomic lands in
  // the ring MR through the RMW path, so the next lap's fetch must reload
  // slot 0 and execute the WRITE, while the untouched slot 1 hits.
  rnic::QueuePair* chain = bed.Loopback(bed.client, /*managed=*/true,
                                        /*depth=*/2);
  rnic::QueuePair* ctrl = bed.Loopback(bed.client);
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  src.SetU64(0, 0x77);

  // Slot 0: a WRITE's fields carried under a NOOP opcode (disabled).
  verbs::SendWr staged = MakeWrite(src.addr(), 8, src.lkey(), dst.addr(),
                                   dst.rkey(), /*signaled=*/true);
  staged.opcode = Opcode::kNoop;
  staged.wr_id = 7;
  PostSend(chain, staged);
  PostSend(chain, MakeNoop(/*signaled=*/false));

  bed.client.HostEnable(chain, 2);  // lap 1: the NOOP executes, dst untouched
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, chain->send_cq, &cqe));
  EXPECT_EQ(cqe.opcode, Opcode::kNoop);
  EXPECT_EQ(dst.U64(0), 0u);

  PostSendNow(ctrl, verbs::MakeCas(chain->sq.SlotAddr(0, WqeField::kCtrl),
                                   chain->sq_mr.rkey,
                                   rnic::PackCtrl(Opcode::kNoop, 7),
                                   rnic::PackCtrl(Opcode::kWrite, 7)));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, ctrl->send_cq, &cqe));
  ASSERT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  bed.sim.Run();
  const std::uint64_t hits_before = Hits();
  const std::uint64_t misses_before = Misses();

  bed.client.HostEnable(chain, 4);  // lap 2: slot 0 now decodes as a WRITE
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, chain->send_cq, &cqe));
  EXPECT_EQ(cqe.opcode, Opcode::kWrite);
  EXPECT_EQ(cqe.wr_id, 7u);
  EXPECT_EQ(dst.U64(0), 0x77u) << "the enabled WRITE did not execute";
  bed.sim.Run();
  EXPECT_EQ(Misses(), misses_before + 1)
      << "the CAS-rewritten slot must reload once on lap 2";
  EXPECT_EQ(Hits(), hits_before + 1) << "the untouched slot must hit";
}

TEST_F(WqeCacheTest, RecvScatterIntoRingSlotExecutesNextLap) {
  // RDMA-delivered rewrite via the scatter path: a RECV whose SGE points at
  // ring slot 0 lands a whole new WQE there (ScatterList -> dma::Write).
  // The next lap must execute the delivered program.
  rnic::QueuePair* chain = bed.Loopback(bed.client, /*managed=*/true,
                                        /*depth=*/2);
  rnic::QueuePair* rpc = bed.Loopback(bed.client);
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  Buffer staged = bed.Alloc(bed.client, 64);
  src.SetU64(0, 0x99);

  PostSend(chain, MakeNoop(/*signaled=*/true));
  PostSend(chain, MakeNoop(/*signaled=*/false));
  bed.client.HostEnable(chain, 2);
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, chain->send_cq, &cqe));

  // Build the replacement WQE image in a staging buffer and SEND it into a
  // RECV that scatters onto slot 0 of the chain ring.
  rnic::WqeImage img;
  img.ctrl = rnic::PackCtrl(Opcode::kWrite, 9);
  img.flags = rnic::kFlagSignaled;
  img.local_addr = src.addr();
  img.length = 8;
  img.lkey = src.lkey();
  img.remote_addr = dst.addr();
  img.rkey = dst.rkey();
  rnic::WqeView(staged.bytes(), bed.client.pd()).Store(img);

  verbs::RecvWr recv;
  recv.local_addr = chain->sq.SlotAddr(0, WqeField::kCtrl);
  recv.length = rnic::kWqeSize;
  recv.lkey = chain->sq_mr.lkey;
  verbs::PostRecv(rpc, recv);
  PostSendNow(rpc, verbs::MakeSend(staged.addr(), rnic::kWqeSize,
                                   staged.lkey()));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, rpc->recv_cq, &cqe));
  ASSERT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  bed.sim.Run();
  const std::uint64_t misses_before = Misses();

  bed.client.HostEnable(chain, 4);  // lap 2 executes the delivered WRITE
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, chain->send_cq, &cqe));
  EXPECT_EQ(cqe.opcode, Opcode::kWrite);
  EXPECT_EQ(cqe.wr_id, 9u);
  EXPECT_EQ(dst.U64(0), 0x99u);
  bed.sim.Run();
  EXPECT_EQ(Misses(), misses_before + 1)
      << "only the scattered-onto slot must reload";
}

TEST_F(WqeCacheTest, RawHostDmaPatchReloadsAtNextFetch) {
  // The §4 "expose WQ buffer" trick: host code patches a posted WQE with a
  // raw DMA write. The fetch's 64-byte compare must catch the divergence
  // and re-decode the slot.
  rnic::QueuePair* qp = bed.Loopback(bed.client, /*managed=*/true,
                                     /*depth=*/2);
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  PostSend(qp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), dst.rkey(),
                         /*signaled=*/true));
  PostSend(qp, MakeNoop(/*signaled=*/false));
  bed.client.HostEnable(qp, 2);
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.byte_len, 8u);

  rnic::dma::WriteU32(qp->sq.SlotAddr(0, WqeField::kLength), 16);
  const std::uint64_t misses_before = Misses();
  bed.client.HostEnable(qp, 4);  // lap 2 re-executes the patched slot 0
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.byte_len, 16u)
      << "lap 2 executed the cached decode, not the host-patched WQE";
  EXPECT_EQ(Misses(), misses_before + 1)
      << "the patched slot must force exactly one re-decode";
}

TEST_F(WqeCacheTest, PostIntoEnableAheadSnapshotStaysStaleOnPlainQueue) {
  // A non-managed queue enabled past its posted count snapshots unposted
  // slots (enable-ahead). Doorbell ordering says that committed snapshot
  // executes as-is: a PostSend landing in the already-snapshotted slot
  // updates ring bytes only — the same staleness a raw host patch gets.
  rnic::QueuePair* qp = bed.Loopback(bed.client);
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  src.SetU64(0, 0x5A);

  PostSend(qp, MakeNoop(/*signaled=*/true));  // slot 0
  bed.client.HostEnable(qp, 2);  // snapshots slot 1 before it is posted
  // After the enable's snapshot (doorbell MMIO delay) but before slot 1
  // issues: post a signaled WRITE into the pre-snapshotted slot.
  bed.sim.After(rnic::Calibration{}.doorbell_mmio + 50, [&] {
    PostSend(qp, MakeWrite(src.addr(), 8, src.lkey(), dst.addr(), dst.rkey(),
                           /*signaled=*/true));
    verbs::RingDoorbell(qp);  // no-op: posted <= exec_limit
  });
  bed.sim.Run();

  Cqe cqe;
  ASSERT_EQ(bed.client.PollCq(qp->send_cq, 1, &cqe), 1);
  EXPECT_EQ(cqe.opcode, Opcode::kNoop);
  EXPECT_EQ(bed.client.PollCq(qp->send_cq, 1, &cqe), 0)
      << "the enable-ahead slot must execute its stale (empty) snapshot";
  EXPECT_EQ(dst.U64(0), 0u)
      << "a post leaked into a committed snapshot";
}

TEST_F(WqeCacheTest, ReregisterShrinkFaultsTheNextGather) {
  // ibv_rereg_mr keeps the lkey while shrinking the extent. The same WQE
  // gathered from the old bounds once; re-posted, it must fault instead of
  // gathering out of the shrunk region.
  rnic::QueuePair* qp = bed.Loopback(bed.client);
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  PostSendNow(qp, MakeWrite(src.addr(), 32, src.lkey(), dst.addr(),
                            dst.rkey(), /*signaled=*/true));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  ASSERT_EQ(cqe.status, rnic::WcStatus::kSuccess);  // within the old bounds

  ASSERT_TRUE(bed.client.pd().Reregister(src.lkey(), src.bytes(), 8,
                                         rnic::kAccessAll));
  PostSendNow(qp, MakeWrite(src.addr(), 32, src.lkey(), dst.addr(),
                            dst.rkey(), /*signaled=*/true));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kLocalAccessError)
      << "a gather past the shrunk extent passed the protection check";
}

TEST_F(WqeCacheTest, ReregisterShrinkFaultsTheNextReadScatter) {
  // The scatter-side twin: a READ lands its response through the local
  // SGE, which passed its check once before a Reregister shrank the
  // target. The next READ must complete with a local access error and
  // write nothing past the new bound.
  rnic::QueuePair* qp = bed.Loopback(bed.client);
  Buffer src = bed.Alloc(bed.client, 64);
  Buffer dst = bed.Alloc(bed.client, 64);
  src.Fill(0xC3, 64);
  PostSendNow(qp, MakeRead(dst.addr(), 32, dst.lkey(), src.addr(),
                           src.rkey(), /*signaled=*/true));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  ASSERT_EQ(cqe.status, rnic::WcStatus::kSuccess);  // within the old bounds
  ASSERT_EQ(dst.U64(3), 0xC3C3C3C3C3C3C3C3u);

  dst.Fill(0, 64);
  ASSERT_TRUE(bed.client.pd().Reregister(dst.lkey(), dst.bytes(), 8,
                                         rnic::kAccessAll));
  PostSendNow(qp, MakeRead(dst.addr(), 32, dst.lkey(), src.addr(),
                           src.rkey(), /*signaled=*/true));
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, qp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kLocalAccessError)
      << "a scatter past the shrunk extent passed the protection check";
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(dst.U64(i), 0u) << "the READ wrote past the new bound at word "
                              << i;
  }
}

}  // namespace
}  // namespace redn
