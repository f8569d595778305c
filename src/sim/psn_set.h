// A set of packet sequence numbers, stored as a bitmap over a sliding
// origin.
//
// The transport keeps three per-flow PSN sets (the sender's SACK-learned
// received PSNs and SACK-resent PSNs, the receiver's held out-of-order
// PSNs). Each covers a short live span: members join near the top and are
// erased from below as the cumulative ACK advances. 64-bit words counted
// from an origin aligned to 64 hold that span with no per-member node.
//
// The span is not bounded by the send window, so this is not a ring: an
// RNR NAK rewinds the sender's base to the blocked message's first PSN,
// below PSNs it already marked received, and on the same rewind the
// receiver can re-hold PSNs below its set's current origin. The set
// therefore grows at both ends. EraseBelow and Clear keep the word
// vector's capacity, so a flow stops allocating once it has seen its
// widest span.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace redn::sim {

class PsnSet {
 public:
  // NextAtOrAfter's "no member" answer.
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  bool empty() const { return words_.empty(); }

  // Adds `psn`; returns true if it was not a member yet.
  bool Insert(std::uint64_t psn) {
    const std::uint64_t low = psn & ~kBitMask;
    if (words_.empty()) {
      origin_ = low;
    } else if (low < origin_) {
      words_.insert(words_.begin(), (origin_ - low) / 64, 0);
      origin_ = low;
    }
    const std::size_t w = (psn - origin_) / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (psn & kBitMask);
    if ((words_[w] & bit) != 0) return false;
    words_[w] |= bit;
    return true;
  }

  // Adds every PSN in [first, last]; first <= last.
  void InsertRange(std::uint64_t first, std::uint64_t last) {
    Insert(first);
    Insert(last);  // the words now cover both ends
    const std::size_t wf = (first - origin_) / 64;
    const std::size_t wl = (last - origin_) / 64;
    for (std::size_t w = wf; w <= wl; ++w) {
      std::uint64_t bits = ~std::uint64_t{0};
      if (w == wf) bits &= ~std::uint64_t{0} << (first & kBitMask);
      if (w == wl) bits &= ~std::uint64_t{0} >> (kBitMask - (last & kBitMask));
      words_[w] |= bits;
    }
  }

  bool Contains(std::uint64_t psn) const {
    if (psn < origin_) return false;
    const std::uint64_t w = (psn - origin_) / 64;
    return w < words_.size() && ((words_[w] >> (psn & kBitMask)) & 1) != 0;
  }

  // Removes every member below `psn`.
  void EraseBelow(std::uint64_t psn) {
    if (words_.empty() || psn <= origin_) return;
    const std::uint64_t whole = (psn - origin_) / 64;
    if (whole >= words_.size()) {
      words_.clear();
      return;
    }
    words_.erase(words_.begin(),
                 words_.begin() + static_cast<std::ptrdiff_t>(whole));
    origin_ += whole * 64;
    words_.front() &= ~std::uint64_t{0} << (psn & kBitMask);
    // A non-empty set's last word is non-zero: an empty set has no words,
    // and Max reads the last one.
    while (!words_.empty() && words_.back() == 0) words_.pop_back();
  }

  // Smallest member >= `psn`, or kNone.
  std::uint64_t NextAtOrAfter(std::uint64_t psn) const {
    if (words_.empty()) return kNone;
    if (psn < origin_) psn = origin_;
    std::uint64_t w = (psn - origin_) / 64;
    if (w >= words_.size()) return kNone;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (psn & kBitMask));
    while (bits == 0) {
      if (++w == words_.size()) return kNone;
      bits = words_[w];
    }
    return origin_ + w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
  }

  // Smallest non-member >= `psn`: one past the run of members at `psn`.
  std::uint64_t NextAbsentAtOrAfter(std::uint64_t psn) const {
    if (psn < origin_) return psn;
    std::uint64_t w = (psn - origin_) / 64;
    if (w >= words_.size()) return psn;
    std::uint64_t bits = ~words_[w] & (~std::uint64_t{0} << (psn & kBitMask));
    while (bits == 0) {
      if (++w == words_.size()) return origin_ + w * 64;
      bits = ~words_[w];
    }
    return origin_ + w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
  }

  // Largest member. The set must not be empty.
  std::uint64_t Max() const {
    assert(!empty() && "Max of an empty PsnSet");
    return origin_ + (words_.size() - 1) * 64 + 63 -
           static_cast<std::uint64_t>(std::countl_zero(words_.back()));
  }

  void Clear() { words_.clear(); }

 private:
  static constexpr std::uint64_t kBitMask = 63;

  std::uint64_t origin_ = 0;  // PSN of bit 0 of words_[0]; a multiple of 64
  std::vector<std::uint64_t> words_;
};

}  // namespace redn::sim
