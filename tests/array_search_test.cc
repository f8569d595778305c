// Tests for the Fig 5/6 array-search offload: the paper's canonical
// unrolled `while` with and without `break`.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "offloads/array_search.h"
#include "testbed.h"

namespace redn::test {
namespace {

using offloads::ArraySearchOffload;
using offloads::SearchArray;

struct SearchRig {
  TestBed& bed;
  SearchArray array;
  rnic::QueuePair* srv;
  rnic::QueuePair* cli;
  Buffer resp;
  Buffer msg;

  SearchRig(TestBed& b, std::vector<std::uint64_t> values)
      : bed(b), array(b.server, std::move(values)) {
    rnic::QpConfig s;
    s.sq_depth = 1 << 12;
    s.rq_depth = 256;
    s.managed = true;
    s.send_cq = b.server.CreateCq();
    s.recv_cq = b.server.CreateCq();
    srv = b.server.CreateQp(s);
    rnic::QpConfig c;
    c.send_cq = b.client.CreateCq();
    c.recv_cq = b.client.CreateCq();
    cli = b.client.CreateQp(c);
    rnic::Connect(cli, srv, rnic::Calibration{}.net_one_way);
    resp = bed.Alloc(b.client, 8);
    msg = bed.Alloc(b.client, 16 * 8);
  }

  // Returns the index the NIC found, or -1 on miss.
  std::int64_t Search(std::uint64_t x, bool use_break) {
    resp.SetU64(0, ~std::uint64_t{0});
    ArraySearchOffload off(bed.server, array, srv, {.use_break = use_break},
                           resp.addr(), resp.rkey());
    verbs::RecvWr rwr;
    verbs::PostRecv(cli, rwr);
    off.BuildTrigger(x, msg.bytes());
    verbs::PostSendNow(cli, verbs::MakeSend(msg.addr(), off.TriggerBytes(),
                                            msg.lkey(), /*signaled=*/false));
    verbs::Cqe cqe;
    std::int64_t found = -1;
    if (verbs::AwaitCqe(bed.sim, bed.client, cli->recv_cq, &cqe,
                        bed.sim.now() + sim::Micros(300))) {
      found = static_cast<std::int64_t>(resp.U64(0));
    }
    bed.sim.Run();
    return found;
  }
};

class ArraySearchTest : public ::testing::Test {
 protected:
  TestBed bed;
};

TEST_F(ArraySearchTest, FindsEveryElement) {
  SearchRig rig(bed, {10, 20, 30, 40, 50, 60, 70, 80});
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rig.Search(10 * (i + 1), false), i);
  }
}

TEST_F(ArraySearchTest, FindsEveryElementWithBreak) {
  SearchRig rig(bed, {10, 20, 30, 40});
  for (int i = 0; i < 4; ++i) {
    TestBed fresh;  // break stalls gates; isolate per request
    SearchRig r2(fresh, {10, 20, 30, 40});
    EXPECT_EQ(r2.Search(10 * (i + 1), true), i);
  }
}

TEST_F(ArraySearchTest, MissReturnsNothing) {
  SearchRig rig(bed, {1, 2, 3});
  EXPECT_EQ(rig.Search(99, false), -1);
}

TEST_F(ArraySearchTest, IdentityArrayMatchesPaperSimplification) {
  // The paper's Fig 5 assumes A[i] = i: search(x) returns x itself.
  SearchRig rig(bed, {0x100, 0x100 + 1, 0x100 + 2, 0x100 + 3});
  // keys offset to avoid the reserved 0; semantics identical
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.Search(0x100 + i, false), i);
  }
}

TEST_F(ArraySearchTest, BreakExecutesFewerWrsOnEarlyHit) {
  TestBed b1;
  SearchRig r1(b1, {11, 22, 33, 44, 55, 66, 77, 88});
  b1.sim.Run();
  const auto before1 = b1.server.counters().TotalExecuted();
  ASSERT_EQ(r1.Search(11, false), 0);
  const auto full = b1.server.counters().TotalExecuted() - before1;

  TestBed b2;
  SearchRig r2(b2, {11, 22, 33, 44, 55, 66, 77, 88});
  b2.sim.Run();
  const auto before2 = b2.server.counters().TotalExecuted();
  ASSERT_EQ(r2.Search(11, true), 0);
  const auto stopped = b2.server.counters().TotalExecuted() - before2;
  EXPECT_LT(stopped, full / 2);
}

TEST_F(ArraySearchTest, DuplicateValuesReturnSomeMatchingIndex) {
  SearchRig rig(bed, {7, 7, 9});
  const std::int64_t idx = rig.Search(7, false);
  EXPECT_TRUE(idx == 0 || idx == 1);
}

TEST_F(ArraySearchTest, SingleElementArray) {
  SearchRig rig(bed, {42});
  EXPECT_EQ(rig.Search(42, false), 0);
  EXPECT_EQ(rig.Search(41, false), -1);
}

TEST_F(ArraySearchTest, WrBudgetScalesLinearly) {
  TestBed b;
  SearchRig small(b, {1, 2});
  SearchRig large(b, {1, 2, 3, 4, 5, 6, 7, 8});
  ArraySearchOffload o2(b.server, small.array, small.srv, {}, small.resp.addr(),
                        small.resp.rkey());
  ArraySearchOffload o8(b.server, large.array, large.srv, {}, large.resp.addr(),
                        large.resp.rkey());
  EXPECT_NEAR(o8.wrs_posted(), 4 * o2.wrs_posted() - 3 * 1, 8);
  b.sim.Run();
}

// The asserts these replace compiled out in Release, where an array of 16
// or more elements overran UnrolledLoop's 16-entry injection table.
TEST(ArraySearchConfig, RejectsSizesOutsideOneToFifteen) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{16}}) {
    TestBed bed;
    SearchRig rig(bed, std::vector<std::uint64_t>(n, 7));
    try {
      ArraySearchOffload off(bed.server, rig.array, rig.srv, {},
                             rig.resp.addr(), rig.resp.rkey());
      ADD_FAILURE() << "an array of " << n << " elements was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("[1, 15]"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace redn::test
