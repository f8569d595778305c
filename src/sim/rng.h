// Deterministic random number generation (xoshiro256**) for workloads.
//
// std::mt19937_64 would work, but a small local generator keeps state
// copyable/seedable across actors and is noticeably faster for the
// million-operation workloads the benches run.
#pragma once

#include <cstdint>

namespace redn::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t Next();

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  std::uint64_t NextInRange(std::uint64_t lo, std::uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Exponential with the given mean (used by scheduling-delay models).
  double NextExponential(double mean);

  // Bernoulli trial.
  bool NextBool(double p_true);

 private:
  std::uint64_t s_[4];
};

}  // namespace redn::sim
