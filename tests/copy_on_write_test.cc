// Copy-on-write of deferred copies. A WRITE, WRITE_IMM, SEND, SEND_IMM or
// READ between QPs on one event domain carries its protection-checked
// source extents and copies once, at delivery. Each test stores into a
// source while its copy is in flight — through the store hook, as every
// writer in src/ does — and checks that the delivery still carries the
// bytes of the issue instant.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "kv/table.h"
#include "offloads/hash_harness.h"
#include "sim/fabric.h"
#include "sim/transport.h"
#include "testbed.h"

namespace redn::test {
namespace {

using verbs::AwaitCqe;
using verbs::Cqe;

constexpr std::uint32_t kLen = 8192;
// A long wire keeps a compat copy in flight for tens of microseconds.
constexpr sim::Nanos kSlowWire = sim::Micros(20);

// Runs `sim` one event at a time until a deferred copy pins the first
// word at `addr`, registered memory of `pd`.
bool RunUntilPinned(sim::Simulator& sim, const rnic::ProtectionDomain& pd,
                    std::uint64_t addr) {
  while (!pd.Pinned(addr, 8)) {
    if (!sim.Step()) return false;
  }
  return true;
}

// A client/server pair on the compat path over a slow wire.
std::pair<QueuePair*, QueuePair*> SlowPair(TestBed& bed) {
  QpConfig c;
  c.send_cq = bed.client.CreateCq();
  c.recv_cq = bed.client.CreateCq();
  QpConfig s;
  s.send_cq = bed.server.CreateCq();
  s.recv_cq = bed.server.CreateCq();
  QueuePair* cqp = bed.client.CreateQp(c);
  QueuePair* sqp = bed.server.CreateQp(s);
  rnic::Connect(cqp, sqp, kSlowWire);
  return {cqp, sqp};
}

void FillWords(Buffer& b, std::uint64_t first) {
  for (std::size_t i = 0; i < kLen / 8; ++i) b.SetU64(i, first + i);
}

bool HoldsWords(const Buffer& b, std::uint64_t first) {
  for (std::size_t i = 0; i < kLen / 8; ++i) {
    if (b.U64(i) != first + i) return false;
  }
  return true;
}

// KvService's put apply (kv::WriteVersionedValue) lands on a value whose
// get response — the offload's WRITE_IMM from the value heap — is in
// flight over the packetized transport. The get returns the version and
// bytes the value held when the response issued.
TEST(CopyOnWrite, PutDuringAGetResponseOverTheTransportKeepsTheIssueVersion) {
  TestBed bed;
  sim::Fabric fabric;
  sim::Transport tr(bed.sim, fabric, sim::TransportConfig{});
  bed.client.AttachPort(0, fabric, {25.0, 125});
  bed.server.AttachPort(0, fabric, {25.0, 125});
  offloads::HashGetHarness h(
      bed.client, bed.server,
      {.buckets = 1, .fabric = &fabric, .transport = &tr},
      /*table_cfg=*/{}, /*heap_bytes=*/1 << 20, /*max_value=*/kLen);
  constexpr std::uint64_t kKey = 42;
  const std::uint64_t value = h.heap().ReserveForOverwrite(kLen);
  kv::WriteVersionedValue(bed.server.pd(), value, kLen, kKey, 0);
  ASSERT_EQ(h.table().Insert(kKey, value, kLen), kv::Placement::kBucket);
  h.Arm(1);

  ASSERT_TRUE(h.SendTrigger(kKey));
  ASSERT_TRUE(RunUntilPinned(bed.sim, bed.server.pd(), value));
  kv::WriteVersionedValue(bed.server.pd(), value, kLen, kKey, 1);
  EXPECT_FALSE(bed.server.pd().Pinned(value, kLen));  // materialized

  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, h.client_recv_cq(), &cqe));
  h.NoteOpenLoopResponse(cqe.qp_id);
  EXPECT_EQ(cqe.byte_len, kLen);
  const std::uint64_t resp = h.resp_buffer_addr();
  EXPECT_EQ(kv::ValueVersion(resp), 0u);
  EXPECT_TRUE(kv::VersionedValueIntact(resp, kLen, kKey));
  EXPECT_EQ(kv::ValueVersion(value), 1u);
  bed.sim.Run();
}

// A FETCH_ADD's read-modify-write (the NIC-side store hook) lands in the
// source of a compat WRITE between the WRITE's issue and its delivery.
TEST(CopyOnWrite, AtomicIntoAPinnedWriteSourceKeepsTheIssueBytes) {
  TestBed bed;
  auto [cqp, sqp] = SlowPair(bed);
  QueuePair* local = bed.Loopback(bed.client);
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  FillWords(src, 1);

  verbs::PostSendNow(cqp, verbs::MakeWrite(src.addr(), kLen, src.lkey(),
                                           dst.addr(), dst.rkey()));
  ASSERT_TRUE(RunUntilPinned(bed.sim, bed.client.pd(), src.addr()));
  verbs::PostSendNow(local, verbs::MakeFetchAdd(src.addr(), src.rkey(), 1000));
  Cqe cqe;
  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, local->send_cq, &cqe));
  EXPECT_EQ(src.U64(0), 1001u);
  EXPECT_EQ(dst.U64(0), 0u) << "the WRITE delivered before the RMW ran";

  ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
  EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(cqe.byte_len, kLen);
  EXPECT_TRUE(HoldsWords(dst, 1));
  bed.sim.Run();
}

// A host store (kv::SetValueVersion) lands in a READ's responder range
// after the request arrived and before the response lands: the READ
// returns what the range held at arrival. Over the compat path and over
// the transport, whose response rides a ReadCtx.
TEST(CopyOnWrite, HostStoreIntoAReadRangeBeforeLandingKeepsTheArrivalBytes) {
  for (const bool over_transport : {false, true}) {
    SCOPED_TRACE(over_transport ? "transport" : "compat");
    TestBed bed;
    sim::Fabric fabric;
    sim::Transport tr(bed.sim, fabric, sim::TransportConfig{});
    QueuePair* cqp;
    if (over_transport) {
      bed.client.AttachPort(0, fabric, {25.0, 125});
      bed.server.AttachPort(0, fabric, {25.0, 125});
      auto [c, s] = bed.ConnectedPair();
      rnic::ConnectOverTransport(c, s, tr);
      cqp = c;
    } else {
      cqp = SlowPair(bed).first;
    }
    Buffer local = bed.Alloc(bed.client, kLen);
    Buffer remote = bed.Alloc(bed.server, kLen);
    FillWords(remote, 7);

    verbs::PostSendNow(cqp, verbs::MakeRead(local.addr(), kLen, local.lkey(),
                                            remote.addr(), remote.rkey()));
    ASSERT_TRUE(RunUntilPinned(bed.sim, bed.server.pd(), remote.addr()));
    kv::SetValueVersion(bed.server.pd(), remote.addr(), 999);
    EXPECT_EQ(local.U64(0), 0u) << "the READ landed before the store";

    Cqe cqe;
    ASSERT_TRUE(AwaitCqe(bed.sim, bed.client, cqp->send_cq, &cqe));
    EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
    EXPECT_EQ(cqe.byte_len, kLen);
    EXPECT_TRUE(HoldsWords(local, 7));
    EXPECT_EQ(remote.U64(0), 999u);
    bed.sim.Run();
  }
}

#ifndef NDEBUG
// A compat WRITE whose source a plain memset overwrites in flight, with no
// BeforeStore: the store every writer in src/ must not make.
void StoreIntoASourceWithoutTheHook() {
  TestBed bed;
  QueuePair* cqp = SlowPair(bed).first;
  Buffer src = bed.Alloc(bed.client, kLen);
  Buffer dst = bed.Alloc(bed.server, kLen);
  verbs::PostSendNow(cqp, verbs::MakeWrite(src.addr(), kLen, src.lkey(),
                                           dst.addr(), dst.rkey()));
  if (RunUntilPinned(bed.sim, bed.client.pd(), src.addr())) {
    std::memset(src.bytes(), 0x5a, 8);
  }
  bed.sim.Run();
}
#endif

// Debug builds check every deferred copy at delivery: a store into a
// pinned source that skips ProtectionDomain::BeforeStore aborts the run
// instead of silently changing the delivered bytes.
TEST(CopyOnWriteDeathTest, AStoreThatSkipsTheHookAbortsAtDelivery) {
#ifdef NDEBUG
  GTEST_SKIP() << "the delivery check runs in Debug builds";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(StoreIntoASourceWithoutTheHook(),
               "skipped ProtectionDomain::BeforeStore");
#endif
}

}  // namespace
}  // namespace redn::test
