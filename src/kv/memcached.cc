#include "kv/memcached.h"

#include <vector>

namespace redn::kv {
namespace {
// The store's hash buckets and value-heap bytes, and the vanilla restart
// cost: process bootstrap, then a metadata/hash rebuild pass per item.
constexpr std::size_t kBuckets = 1 << 16;
constexpr std::size_t kHeapBytes = 512 << 20;
constexpr sim::Nanos kRestartTime = sim::Seconds(1.0);
constexpr sim::Nanos kRebuildPerItem = sim::Micros(125);
}  // namespace

MemcachedServer::MemcachedServer(rnic::RnicDevice& dev, Config cfg)
    : dev_(dev),
      cfg_(cfg),
      table_(dev, {.buckets = kBuckets}),
      heap_(dev, kHeapBytes),
      rpc_(dev, table_, heap_, cfg.rpc_mode) {}

void MemcachedServer::Set(std::uint64_t key, const void* value,
                          std::uint32_t len) {
  if (auto e = table_.Lookup(key); e && e->len == len) {
    dev_.pd().BeforeStore(e->ptr, len);
    rnic::dma::Write(e->ptr, value, len);  // update in place
    return;
  }
  const std::uint64_t ptr = heap_.Store(value, len);
  table_.Insert(key, ptr, len);
}

void MemcachedServer::SetPattern(std::uint64_t key, std::uint32_t len) {
  std::vector<std::byte> v(len);
  FillRamp(v.data(), len, static_cast<std::uint8_t>(key));
  Set(key, v.data(), len);
}

void MemcachedServer::CrashProcess() {
  process_alive_ = false;
  rpc_.set_alive(false);
  if (!cfg_.hull_parent) {
    // The OS reclaims the dead process's memory: queues, doorbell records —
    // any RDMA program rooted in them is terminated mid-flight.
    dev_.KillProcessResources(kAppPid);
  }
  // systemd-style immediate restart, then a pass over all data items to
  // regenerate the hash table (Fig 16's ~1 s + ~1.25 s phases).
  const sim::Nanos rebuild =
      static_cast<sim::Nanos>(table_.size()) * kRebuildPerItem;
  dev_.sim().After(kRestartTime + rebuild, [this] {
    process_alive_ = true;
    rpc_.set_alive(true);
  });
}

}  // namespace redn::kv
