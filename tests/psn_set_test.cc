// sim::PsnSet: the transport's per-flow PSN bitmap. Unit cases for the
// shapes the transport produces (inserts below the origin on an RNR
// rewind, erases across word edges as the cumulative ACK advances, spans
// and runs of several words), plus a differential run against std::set.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "sim/psn_set.h"

namespace redn::test {
namespace {

using sim::PsnSet;

TEST(PsnSet, InsertReportsWhetherThePsnWasNew) {
  PsnSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.Insert(70));
  EXPECT_FALSE(s.Insert(70));
  EXPECT_TRUE(s.Contains(70));
  EXPECT_FALSE(s.Contains(69));
  EXPECT_FALSE(s.Contains(71));
  EXPECT_FALSE(s.empty());
}

TEST(PsnSet, InsertBelowTheOriginGrowsDownward) {
  PsnSet s;
  s.Insert(200);  // origin 192
  EXPECT_TRUE(s.Insert(5));
  EXPECT_TRUE(s.Insert(64));
  EXPECT_TRUE(s.Contains(5));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_TRUE(s.Contains(200));
  EXPECT_FALSE(s.Contains(0));
  EXPECT_EQ(s.NextAtOrAfter(0), 5u);
  EXPECT_EQ(s.NextAtOrAfter(6), 64u);
  EXPECT_EQ(s.NextAtOrAfter(65), 200u);
  EXPECT_EQ(s.Max(), 200u);
}

TEST(PsnSet, EraseBelowAcrossAWordEdge) {
  PsnSet s;
  for (std::uint64_t p : {60, 63, 64, 100, 130}) s.Insert(p);
  s.EraseBelow(64);
  EXPECT_FALSE(s.Contains(60));
  EXPECT_FALSE(s.Contains(63));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_EQ(s.NextAtOrAfter(0), 64u);
  s.EraseBelow(129);
  EXPECT_EQ(s.NextAtOrAfter(0), 130u);
  EXPECT_EQ(s.Max(), 130u);
  s.EraseBelow(100);  // below the smallest member: no-op
  EXPECT_TRUE(s.Contains(130));
  s.EraseBelow(131);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.NextAtOrAfter(0), PsnSet::kNone);
}

TEST(PsnSet, NextAndMaxOnEmptyAndOnSeveralWords) {
  PsnSet s;
  EXPECT_EQ(s.NextAtOrAfter(0), PsnSet::kNone);
  EXPECT_EQ(s.NextAtOrAfter(1000), PsnSet::kNone);
  for (std::uint64_t p : {3, 63, 64, 127, 128, 300}) s.Insert(p);
  EXPECT_EQ(s.NextAtOrAfter(0), 3u);
  EXPECT_EQ(s.NextAtOrAfter(4), 63u);
  EXPECT_EQ(s.NextAtOrAfter(64), 64u);
  EXPECT_EQ(s.NextAtOrAfter(65), 127u);
  EXPECT_EQ(s.NextAtOrAfter(129), 300u);
  EXPECT_EQ(s.NextAtOrAfter(301), PsnSet::kNone);
  EXPECT_EQ(s.Max(), 300u);
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Contains(3));
  s.Insert(1'000'000);  // a cleared set re-anchors anywhere
  EXPECT_EQ(s.NextAtOrAfter(0), 1'000'000u);
  EXPECT_EQ(s.Max(), 1'000'000u);
}

TEST(PsnSet, RangesAndRunsAcrossWordEdges) {
  PsnSet s;
  s.InsertRange(60, 130);  // three words, partial at both ends
  EXPECT_FALSE(s.Contains(59));
  EXPECT_TRUE(s.Contains(60));
  EXPECT_TRUE(s.Contains(63));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_TRUE(s.Contains(130));
  EXPECT_FALSE(s.Contains(131));
  EXPECT_EQ(s.NextAbsentAtOrAfter(60), 131u);
  EXPECT_EQ(s.NextAbsentAtOrAfter(10), 10u);
  s.InsertRange(5, 5);  // below the origin
  EXPECT_EQ(s.NextAtOrAfter(0), 5u);
  EXPECT_EQ(s.NextAbsentAtOrAfter(5), 6u);
  s.InsertRange(131, 191);  // fills a word to its last bit
  EXPECT_EQ(s.NextAbsentAtOrAfter(64), 192u);
  EXPECT_EQ(s.Max(), 191u);
  EXPECT_EQ(s.NextAbsentAtOrAfter(500), 500u);
  PsnSet empty;
  EXPECT_EQ(empty.NextAbsentAtOrAfter(7), 7u);
}

TEST(PsnSet, MatchesStdSetUnderASlidingWorkload) {
  // The transport's pattern: inserts near a rising top, occasional ones
  // far below it, and erase-below as the bottom advances.
  PsnSet s;
  std::set<std::uint64_t> ref;
  std::uint64_t x = 12345;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  std::uint64_t bottom = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t r = next();
    switch (r % 8) {
      case 0:
        bottom += r % 40;
        s.EraseBelow(bottom);
        ref.erase(ref.begin(), ref.lower_bound(bottom));
        break;
      case 1: {
        const std::uint64_t p = bottom > 100 ? bottom - r % 100 : bottom;
        ASSERT_EQ(s.Insert(p), ref.insert(p).second);
        break;
      }
      case 2: {
        const std::uint64_t first = (bottom > 70 ? bottom - 70 : 0) + r % 300;
        const std::uint64_t last = first + (r >> 12) % 150;
        s.InsertRange(first, last);
        for (std::uint64_t p = first; p <= last; ++p) ref.insert(p);
        break;
      }
      default: {
        const std::uint64_t p = bottom + r % 300;
        ASSERT_EQ(s.Insert(p), ref.insert(p).second);
      }
    }
    const std::uint64_t q = (bottom >= 50 ? bottom - 50 : 0) + next() % 400;
    ASSERT_EQ(s.Contains(q), ref.count(q) != 0);
    const auto it = ref.lower_bound(q);
    ASSERT_EQ(s.NextAtOrAfter(q), it == ref.end() ? PsnSet::kNone : *it);
    std::uint64_t absent = q;
    while (ref.count(absent) != 0) ++absent;
    ASSERT_EQ(s.NextAbsentAtOrAfter(q), absent);
    ASSERT_EQ(s.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(s.Max(), *ref.rbegin());
    }
  }
}

}  // namespace
}  // namespace redn::test
