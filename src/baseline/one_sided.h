// One-sided key-value gets (the FaRM-KV / Pilaf pattern, §5.2).
//
// The client walks the remote hash table itself with RDMA READs and the
// server CPU never participates:
//   1. READ the hopscotch neighbourhood of H1(key) — 6 buckets.
//   2. Scan it locally; if the key is absent, READ the H2 bucket too.
//   3. READ the value through the pointer found in the bucket.
// Two dependent round trips minimum; client-side post/poll/parse overhead
// per READ is calibrated in BaselineCalibration.
#pragma once

#include <cstdint>
#include <memory>

#include "baseline/calibration.h"
#include "kv/table.h"
#include "rnic/device.h"
#include "verbs/verbs.h"

namespace redn::baseline {

class OneSidedKvClient {
 public:
  // `server_qp` must be a server-side QP already created; the constructor
  // connects to it. The client needs the table geometry (bucket addresses
  // are computed from the key, exactly as FaRM clients do).
  OneSidedKvClient(rnic::RnicDevice& cdev, rnic::RnicDevice& sdev,
                   const kv::RdmaHashTable& table, kv::ValueHeap& heap,
                   BaselineCalibration cal = {},
                   std::size_t max_value = 64 << 10);

  struct Result {
    bool found = false;
    sim::Nanos latency = 0;
    std::uint32_t len = 0;
    int reads_issued = 0;
  };

  // Blocking get (steps the simulator).
  Result Get(std::uint64_t key, sim::Nanos timeout = sim::Millis(5));

 private:
  // One READ + the calibrated client-side overhead; returns false on error.
  bool BlockingRead(std::uint64_t raddr, std::uint32_t rkey, std::uint32_t len,
                    std::uint64_t laddr, sim::Nanos timeout);

  static constexpr std::size_t kScratch = 4096;  // neighbourhood + buckets

  rnic::RnicDevice& cdev_;
  const kv::RdmaHashTable& table_;
  std::uint32_t heap_rkey_ = 0;  // values live in the heap region
  BaselineCalibration cal_;
  rnic::QueuePair* qp_ = nullptr;
  std::unique_ptr<std::byte[]> buf_;
  rnic::MemoryRegion mr_;
};

}  // namespace redn::baseline
