#include "offloads/recycled_loop.h"

#include "verbs/verbs.h"

namespace redn::offloads {

using core::WrRef;
using rnic::Opcode;
using rnic::WqeField;

namespace {
// Ring layout (one round). The ring queue's capacity is exactly kRing so
// the wraparound re-executes slot 0 — WQ recycling.
//   0: ENABLE(body, e)          e += 1 per round
//   1: WAIT(body_cq, t)         t += 1 per round
//   2: ADD e-field  += 1
//   3: ADD t-field  += 1
//   4: ADD w-field  += 4        (four signaled ADDs per round)
//   5: ADD l-field  += 8        (ring size)
//   6: WAIT(ring_cq, w)         all four ADDs of this round done
//   7: ENABLE(ring, l)          wrap: next round
constexpr std::uint64_t kRing = 8;
}  // namespace

RecycledAddLoop::RecycledAddLoop(rnic::RnicDevice& dev, int body_wrs)
    : dev_(dev), prog_(dev), body_wrs_(body_wrs) {
  body_ = prog_.NewChainQueue(/*depth=*/static_cast<std::uint32_t>(body_wrs));
  ring_ = prog_.NewPlainQueue(/*depth=*/kRing);
  counter_ = std::make_unique<std::uint64_t[]>(1);
  counter_[0] = 0;
  counter_mr_ = dev_.pd().Register(counter_.get(), 8, rnic::kAccessAll);
  counter_addr_ = counter_mr_.addr;
}

void RecycledAddLoop::Start() {
  if (started_) return;
  started_ = true;

  // Body: the loop payload, recycled forever in its ring. The counter ADD
  // is always last; extra body WRs stand in for the per-iteration condition
  // CAS and conditional WR of a full `while`.
  for (int i = 1; i < body_wrs_; ++i) {
    if (i == 1) {
      prog_.Post(body_, verbs::MakeCas(counter_addr_, counter_mr_.rkey,
                                       ~std::uint64_t{0}, 0));
    } else {
      prog_.Post(body_, verbs::MakeNoop());
    }
  }
  prog_.Post(body_, verbs::MakeFetchAdd(counter_addr_, counter_mr_.rkey, 1));

  // Forward references to the ring slots whose thresholds the ADDs bump.
  const std::uint64_t base = ring_->sq.posted;
  const WrRef en_body{ring_, base + 0};
  const WrRef wait_body{ring_, base + 1};
  const WrRef wait_adds{ring_, base + 6};
  const WrRef en_self{ring_, base + 7};
  const std::uint32_t ring_rkey = ring_->sq_mr.rkey;

  auto add = [&](const WrRef& target, std::uint64_t delta) {
    prog_.Post(ring_,
               verbs::MakeFetchAdd(target.FieldAddr(WqeField::kCompareAdd),
                                   ring_rkey, delta));
  };

  const std::uint64_t stride = static_cast<std::uint64_t>(body_wrs_);
  prog_.Post(ring_, verbs::MakeEnable(body_, stride));
  prog_.Post(ring_, verbs::MakeWait(body_->send_cq, stride));
  add(en_body, stride);
  add(wait_body, stride);
  add(wait_adds, 4);
  add(en_self, kRing);
  prog_.Post(ring_, verbs::MakeWait(ring_->send_cq, 4));
  prog_.Post(ring_, verbs::MakeEnable(ring_, 2 * kRing));

  dev_.RingDoorbell(ring_);
}

void RecycledAddLoop::Kill() {
  dev_.Kill(ring_);
  dev_.Kill(body_);
}

}  // namespace redn::offloads
