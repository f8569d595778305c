// A Memcached-like key-value server over the simulated RNIC (§5.4-5.6).
//
// Mirrors the paper's modified Memcached: a cuckoo/2-choice hash table and
// the value heap are RDMA-registered so the RNIC can serve gets directly;
// sets and the baseline gets go through the two-sided RPC front (the
// "~700 LoC RDMA integration" of §5.4). Bucket value pointers are stored in
// the WQE-attribute format (the paper's big-endian tweak) by construction,
// since kv::RdmaHashTable's layout *is* the offload ABI.
//
// Failure model (§5.6): RDMA resources are owned either by the application
// process or by an empty-hull parent process (the fork trick of [38]).
// CrashProcess() kills the app: the OS reclaims its resources — which
// terminates any RDMA program whose QPs it owned — and restarts Memcached,
// which needs 1 s to restart plus a 125 us-per-item pass to rebuild its
// table (Fig 16's two phases). With hull ownership, pre-posted chains keep
// serving throughout.
#pragma once

#include <cstdint>
#include <memory>

#include "baseline/two_sided.h"
#include "kv/table.h"
#include "rnic/device.h"

namespace redn::kv {

class MemcachedServer {
 public:
  static constexpr int kHullPid = 1;
  static constexpr int kAppPid = 7;

  struct Config {
    baseline::TwoSidedKvServer::Mode rpc_mode =
        baseline::TwoSidedKvServer::Mode::kVma;
    // Own RDMA resources via an empty-hull parent (survives app crashes).
    bool hull_parent = false;
  };

  MemcachedServer(rnic::RnicDevice& dev, Config cfg);

  // Host-side store API.
  void Set(std::uint64_t key, const void* value, std::uint32_t len);
  void SetPattern(std::uint64_t key, std::uint32_t len);

  RdmaHashTable& table() { return table_; }
  ValueHeap& heap() { return heap_; }
  rnic::RnicDevice& dev() { return dev_; }
  baseline::TwoSidedKvServer& rpc() { return rpc_; }

  // --- failure injection (§5.6) --------------------------------------------
  // Kills the Memcached process now. The RPC front goes dark until restart
  // completes; resources owned by kAppPid are reclaimed by the OS.
  void CrashProcess();
  bool process_alive() const { return process_alive_; }
  std::uint64_t items() const { return table_.size(); }

 private:
  rnic::RnicDevice& dev_;
  Config cfg_;
  RdmaHashTable table_;
  ValueHeap heap_;
  baseline::TwoSidedKvServer rpc_;
  bool process_alive_ = true;
};

}  // namespace redn::kv
