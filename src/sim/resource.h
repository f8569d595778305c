// Contended hardware resources for the timing model.
//
// Two shapes cover everything the RNIC model needs:
//  - FifoResource: a serial server (a processing unit, the WQE fetch engine,
//    the PCIe atomic unit, a CPU core). Work items occupy it back-to-back.
//  - BandwidthResource: a pipe with a byte rate (IB link, PCIe, memory bus).
//    Transfers occupy it for size/rate.
//
// Both are *reservation* models: callers ask "if I submit work of this size
// now, when does it finish?" and the resource advances its horizon. This is
// exact for FIFO service and keeps the event count low (one event per
// completion, none for queue churn).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace redn::sim {

// A serial FIFO server. `Reserve(now, service)` returns the completion time
// of a work item of duration `service` submitted at `now`.
class FifoResource {
 public:
  FifoResource() = default;

  // Reserves the resource; returns completion time. Inline: this runs once
  // or more per executed verb and is a handful of adds.
  Nanos Reserve(Nanos now, Nanos service) {
    const Nanos start = free_at_ > now ? free_at_ : now;
    free_at_ = start + service;
    busy_time_ += service;
    ++jobs_;
    return free_at_;
  }

  // Start time the next reservation would get.
  Nanos NextFree(Nanos now) const { return free_at_ > now ? free_at_ : now; }

  // Total busy time accumulated (for utilisation reporting).
  Nanos busy_time() const { return busy_time_; }
  std::uint64_t jobs() const { return jobs_; }

 private:
  Nanos free_at_ = 0;
  Nanos busy_time_ = 0;
  std::uint64_t jobs_ = 0;
};

// A shared pipe with a fixed byte rate. `Reserve(now, bytes)` returns the
// time at which the last byte has passed through.
class BandwidthResource {
 public:
  // `gbits_per_sec` is the effective data rate of the pipe.
  explicit BandwidthResource(double gbits_per_sec)
      : ns_per_byte_(8.0 / gbits_per_sec) {}

  Nanos Reserve(Nanos now, std::uint64_t bytes) {
    const Nanos service = SerializationDelay(bytes);
    const Nanos start = free_at_ > now ? free_at_ : now;
    free_at_ = start + service;
    busy_time_ += service;
    return free_at_;
  }

  // Pure serialization delay of `bytes` through this pipe, ignoring queueing.
  // Used for store-and-forward latency terms.
  Nanos SerializationDelay(std::uint64_t bytes) const {
    return static_cast<Nanos>(ns_per_byte_ * static_cast<double>(bytes));
  }

  Nanos busy_time() const { return busy_time_; }
  // Busy time accumulated inside [0, t]: a reservation extending past `t`
  // is truncated at the boundary. The overhang beyond `t` belongs to the
  // final contiguous busy run ending at free_at_ (reservations start no
  // later than they are made), so subtracting it is exact for any `t` at
  // or after the last reservation instant — the utilisation-window case.
  // For earlier `t` the subtraction over-counts the overhang; clamping at
  // zero keeps the result a valid lower bound either way.
  Nanos busy_time_before(Nanos t) const {
    const Nanos over = free_at_ - t;
    if (over <= 0) return busy_time_;
    return over < busy_time_ ? busy_time_ - over : 0;
  }

 private:
  double ns_per_byte_;
  Nanos free_at_ = 0;
  Nanos busy_time_ = 0;
};

}  // namespace redn::sim
