#include "workload/fault_plan.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace redn::workload {
namespace {

// A window's exclusive end; up_at == 0 means "never heals".
sim::Nanos WindowEnd(const FaultEntry& e) {
  return e.up_at == 0 ? std::numeric_limits<sim::Nanos>::max() : e.up_at;
}

[[noreturn]] void Reject(std::size_t idx, const std::string& why) {
  throw std::invalid_argument("FaultPlan entry #" + std::to_string(idx) +
                              ": " + why);
}

}  // namespace

void ValidateFaultPlan(const FaultPlan& plan) {
  const auto& es = plan.entries;
  for (std::size_t i = 0; i < es.size(); ++i) {
    const FaultEntry& e = es[i];
    if (e.server < 0) {
      Reject(i, "names no target shard (server " + std::to_string(e.server) +
                    "); set server to the shard the fault hits");
    }
    if (e.down_at < 0) {
      Reject(i, "down_at must be >= 0 (got " + std::to_string(e.down_at) +
                    ")");
    }
    if (e.up_at != 0 && e.up_at <= e.down_at) {
      Reject(i, "up_at (" + std::to_string(e.up_at) +
                    ") must follow down_at (" + std::to_string(e.down_at) +
                    "); use up_at = 0 for a window that never heals");
    }
    switch (e.kind) {
      case FaultKind::kRnrStall:
        if (e.rnr_count <= 0) {
          Reject(i, "rnr_stall needs rnr_count > 0");
        }
        break;
      case FaultKind::kFlaky:
        if (!(e.flaky_loss > 0.0 && e.flaky_loss <= 1.0)) {
          Reject(i, "flaky_loss must be in (0, 1], got " +
                        std::to_string(e.flaky_loss));
        }
        if (e.flaky_burst <= 0 || e.flaky_gap <= 0) {
          Reject(i, "flaky_burst and flaky_gap must be positive");
        }
        break;
      case FaultKind::kSlow:
        if (e.slow_ns <= 0) {
          Reject(i, "slow needs slow_ns > 0");
        }
        break;
      case FaultKind::kBlackhole:
      case FaultKind::kCrash:
        break;
    }
    // Overlap: two windows on the same shard would fight over one link /
    // process (the second down_at fires inside the first window, and the
    // heals race). That would fail deep inside the run; reject up front.
    for (std::size_t j = 0; j < i; ++j) {
      const FaultEntry& p = es[j];
      if (p.server != e.server) continue;
      if (e.down_at < WindowEnd(p) && p.down_at < WindowEnd(e)) {
        Reject(i, std::string("window [") + std::to_string(e.down_at) + ", " +
                      (e.up_at == 0 ? std::string("inf")
                                    : std::to_string(e.up_at)) +
                      ") overlaps entry #" + std::to_string(j) + "'s [" +
                      std::to_string(p.down_at) + ", " +
                      (p.up_at == 0 ? std::string("inf")
                                    : std::to_string(p.up_at)) +
                      ") on the same shard; stagger the windows or merge "
                      "the entries");
      }
    }
  }
}

}  // namespace redn::workload
