#include "workload/experiments.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "baseline/two_sided.h"
#include "kv/memcached.h"
#include "kv/table.h"
#include "offloads/hash_harness.h"
#include "rnic/device.h"
#include "sim/rng.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/transport.h"
#include "verbs/verbs.h"
#include "workload/topology.h"

namespace redn::workload {
namespace {

using baseline::TwoSidedKvClient;
using baseline::TwoSidedKvServer;

// RunFabricScale's packetized transport's rto when timeout_exp is 0.
constexpr sim::Nanos kFabricRto = 60'000;
// RunFabricScale's domain for the server NIC and the transport; client i
// runs on domain i % shards.
constexpr int kServerShard = 0;

// RunFailover's throughput-timeline bucket, value size, open-loop get
// rate and keyspace (Fig 16's 1000 gets/s over 10'000 keys).
constexpr sim::Nanos kFailoverBucket = sim::Seconds(0.25);
constexpr std::uint32_t kFailoverValueLen = 64;
constexpr double kFailoverRate = 1000;
constexpr int kFailoverKeys = 10'000;

// Starts `writers` closed-loop set clients against `server`. Each writer
// owns a distinct 10K-key range and walks it sequentially (the paper's
// §5.5 setup). Returns the writers (caller keeps them alive).
struct Writer {
  std::unique_ptr<TwoSidedKvClient> client;
  // The self-rescheduling ack callback. Owned here, NOT by the lambda: a
  // closure capturing the shared_ptr that stores it is a reference cycle
  // that never frees (found by the ASan CI job).
  std::shared_ptr<std::function<void(sim::Nanos)>> loop;
};

std::vector<Writer> StartWriters(rnic::RnicDevice& cdev,
                                 TwoSidedKvServer& server, int writers) {
  server.set_writers(writers);
  std::vector<Writer> out;
  for (int w = 0; w < writers; ++w) {
    auto client = std::make_unique<TwoSidedKvClient>(cdev, server, 4096);
    TwoSidedKvClient* c = client.get();
    const std::uint64_t base = 1'000'000ULL * (w + 1);
    auto next = std::make_shared<std::uint64_t>(0);
    // Closed loop: the ack callback immediately issues the next set. The
    // raw pointer is safe: the Writer in `out` outlives the simulation.
    auto loop = std::make_shared<std::function<void(sim::Nanos)>>();
    *loop = [c, base, next, lp = loop.get()](sim::Nanos) {
      const std::uint64_t key = base + (*next)++ % 10'000;
      c->SendSet(key, 64, *lp);
    };
    (*loop)(0);
    out.push_back(Writer{std::move(client), std::move(loop)});
  }
  return out;
}

}  // namespace

// One body at every shard count: shards = 1 is the degenerate case of the
// sharded run (a one-domain ShardedSimulator, every SendTo a plain At).
// Every piece of mutable driver state (rng, recorder, timestamps) is
// per-client, because each client's completion hook fires on its own
// shard's thread; results merge in client order after the run, which keeps
// same-config reruns bit-stable. With cfg.packetized, client<->server QPs
// ride transport flows whose sender half lives on the sending NIC's shard
// and receiver half on the receiving NIC's (docs/NET.md).
FabricScaleResult RunFabricScale(const FabricScaleConfig& cfg) {
  if (cfg.shards < 1) {
    throw std::invalid_argument("FabricScaleConfig: shards must be >= 1");
  }
  if (cfg.clients < 1) {
    throw std::invalid_argument("FabricScaleConfig: clients must be >= 1, got " +
                                std::to_string(cfg.clients));
  }
  if (cfg.keys < 1) {
    throw std::invalid_argument("FabricScaleConfig: keys must be >= 1, got " +
                                std::to_string(cfg.keys));
  }
  // Fail fast: the reliability engine only exists on the packetized
  // transport — silently ignoring these knobs on the lossless message path
  // has burned people before.
  if (!cfg.packetized && (cfg.selective_repeat || cfg.timeout_exp != 0)) {
    throw std::invalid_argument(
        "FabricScaleConfig: selective_repeat and timeout_exp require "
        "packetized = true");
  }

  sim::ShardedSimulator ssim(cfg.shards);
  sim::Fabric fabric;
  std::unique_ptr<sim::Transport> transport;
  if (cfg.packetized) {
    sim::TransportConfig tc;
    tc.rto = cfg.timeout_exp == 0 ? kFabricRto
                                  : sim::Nanos{4096} << cfg.timeout_exp;
    tc.loss = cfg.loss;
    tc.seed = cfg.transport_seed;
    tc.mode = cfg.selective_repeat ? sim::TransportMode::kSelectiveRepeat
                                   : sim::TransportMode::kGoBackN;
    transport = std::make_unique<sim::Transport>(ssim.shard(kServerShard),
                                                 fabric, tc);
  }
  rnic::RnicDevice sdev(ssim.shard(kServerShard), rnic::NicConfig::ConnectX5(),
                        {}, "server");
  sdev.AttachPort(0, fabric, kPortLink);

  // One store on the server NIC serves every client's harness; clients on
  // other domains only read its fixed geometry (bucket addresses). Depth-1
  // closed loops starve forever on a miss, so draw only keys the 2-bucket
  // NIC probe can actually see: a doubly-colliding key falls back to the
  // hopscotch neighbourhood, which the offload never reads. The first key
  // lands in its H1 bucket of an empty table, so none is empty.
  kv::RdmaHashTable table(sdev, {.buckets = 1 << 12});
  const std::size_t heap_bytes =
      static_cast<std::size_t>(cfg.keys + 1) * cfg.value_len + (64 << 10);
  kv::ValueHeap heap(sdev, heap_bytes);
  std::vector<std::uint64_t> visible;
  visible.reserve(static_cast<std::size_t>(cfg.keys));
  for (int k = 1; k <= cfg.keys; ++k) {
    const auto key = static_cast<std::uint64_t>(k);
    const std::uint64_t ptr = heap.ReserveForOverwrite(cfg.value_len);
    kv::FillRamp(reinterpret_cast<void*>(ptr), cfg.value_len,
                 static_cast<std::uint8_t>(key));
    if (table.Insert(key, ptr, cfg.value_len) == kv::Placement::kBucket) {
      visible.push_back(key);
    }
  }

  struct Client {
    std::unique_ptr<rnic::RnicDevice> dev;
    std::unique_ptr<offloads::HashGetHarness> harness;
    sim::Rng rng{1};
    sim::LatencyRecorder rec;
    int shard = 0;
    int remaining = 0;
    sim::Nanos t_sent = 0;
    sim::Nanos first_sent = -1;
    sim::Nanos last_resp = 0;
    std::uint64_t error_cqes = 0;
  };
  std::vector<Client> clients(static_cast<std::size_t>(cfg.clients));
  for (int i = 0; i < cfg.clients; ++i) {
    Client& c = clients[static_cast<std::size_t>(i)];
    c.shard = i % cfg.shards;
    c.rng = sim::Rng(cfg.seed +
                     0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1));
    c.dev = std::make_unique<rnic::RnicDevice>(
        ssim.shard(c.shard), rnic::NicConfig::ConnectX5(), rnic::Calibration{},
        "client" + std::to_string(i));
    c.dev->AttachPort(0, fabric, kPortLink);
    c.harness = std::make_unique<offloads::HashGetHarness>(
        *c.dev, sdev,
        // Two probed buckets: keys displaced to H2 stay visible, so the
        // depth-1 closed loop can never starve on a hash collision. The
        // loop is served from a window the server's domain refills.
        offloads::HashGetOffload::Config{
            .buckets = 2,
            .max_requests = offloads::HashGetHarness::kClosedLoopWindow,
            .fabric = &fabric,
            .transport = transport.get()},
        table, heap, /*max_value=*/cfg.value_len + 64);
    c.harness->ArmAhead(cfg.gets_per_client + 4);
    c.remaining = cfg.gets_per_client;
  }

  // Runs on client i's shard only: touches nothing but that client's state.
  auto issue = [&clients, &ssim, &visible](int i) {
    Client& c = clients[static_cast<std::size_t>(i)];
    const sim::Nanos now = ssim.shard(c.shard).now();
    c.t_sent = now;
    if (c.first_sent < 0) c.first_sent = now;
    c.harness->SendTrigger(visible[c.rng.NextBelow(visible.size())]);
  };
  for (int i = 0; i < cfg.clients; ++i) {
    Client& c = clients[static_cast<std::size_t>(i)];
    c.harness->client_recv_cq()->SetHostNotify([&clients, &ssim, &issue, i] {
      Client& cl = clients[static_cast<std::size_t>(i)];
      rnic::Cqe cqe;
      while (cl.dev->PollCq(cl.harness->client_recv_cq(), 1, &cqe) == 1) {
        if (cqe.status != rnic::WcStatus::kSuccess) {
          ++cl.error_cqes;  // a flushed RECV, not a get
          continue;
        }
        cl.harness->NoteOpenLoopResponse(cqe.qp_id);
        const sim::Nanos now = ssim.shard(cl.shard).now();
        cl.rec.Add(now - cl.t_sent);
        cl.last_resp = std::max(cl.last_resp, now);
        if (--cl.remaining > 0) issue(i);
      }
    });
    // Staggered starts so clients do not issue in artificial lockstep.
    ssim.shard(c.shard).At(static_cast<sim::Nanos>(i) * 200,
                           [&issue, i] { issue(i); });
  }

  ssim.RunUntil(sim::Seconds(30));  // drains when the last response lands

  FabricScaleResult out;
  out.shards = cfg.shards;
  out.mailbox_sends = ssim.cross_shard_sends();
  out.sync_rounds = ssim.rounds();
  sim::LatencyRecorder rec;
  sim::Nanos first_sent = -1;
  sim::Nanos last_resp = 0;
  for (const Client& c : clients) {
    for (const sim::Nanos s : c.rec.samples()) rec.Add(s);
    if (c.first_sent >= 0 && (first_sent < 0 || c.first_sent < first_sent)) {
      first_sent = c.first_sent;
    }
    last_resp = std::max(last_resp, c.last_resp);
    out.error_cqes += c.error_cqes;
  }
  out.gets = rec.count();
  const sim::Nanos span = last_resp > first_sent ? last_resp - first_sent : 1;
  out.duration_us = sim::ToMicros(span);
  out.gets_per_sec = static_cast<double>(out.gets) / sim::ToSeconds(span);
  const sim::LatencySummary sum = rec.Summarize();
  out.avg_us = sum.avg_us;
  out.p50_us = sum.p50_us;
  out.p99_us = sum.p99_us;
  out.p999_us = sum.p999_us;
  const int sep = sdev.fabric_endpoint(0);
  out.server_tx_util = fabric.TxUtilisation(sep, last_resp);
  out.server_rx_util = fabric.RxUtilisation(sep, last_resp);
  out.events = ssim.events_processed();
  out.heap_fallbacks = ssim.heap_fallbacks();
  if (transport != nullptr) {
    // counters() sums every flow's two halves; safe here — the run is over,
    // no shard thread is live.
    const sim::TransportCounters tc = transport->counters();
    out.data_packets = tc.data_packets;
    out.retransmits = tc.retransmits;
    out.timeouts = tc.timeouts;
    out.packets_lost = tc.PacketsLost();
    out.acks = tc.acks_sent;
    out.goodput_gbps = 8.0 * static_cast<double>(tc.payload_bytes_delivered) /
                       static_cast<double>(span);
    out.rto_fires = tc.rto_fires;
    out.spurious_retransmits = tc.spurious_retransmits;
    out.sack_retransmits = tc.sack_retransmits;
    out.qp_errors = sdev.counters().qp_errors;
    out.qp_rearms = sdev.counters().qp_rearms;
    for (const Client& c : clients) {
      out.qp_errors += c.dev->counters().qp_errors;
      out.qp_rearms += c.dev->counters().qp_rearms;
    }
  }
  return out;
}

ContentionResult RunTwoSidedContention(int writers, int n_gets,
                                       std::uint64_t seed) {
  sim::Simulator sim;
  rnic::RnicDevice cdev(sim, rnic::NicConfig::ConnectX5(), {}, "client");
  rnic::RnicDevice sdev(sim, rnic::NicConfig::ConnectX5(), {}, "server");
  kv::RdmaHashTable table(sdev, {.buckets = 1 << 16});
  kv::ValueHeap heap(sdev, 256 << 20);
  TwoSidedKvServer server(sdev, table, heap, TwoSidedKvServer::Mode::kPolling);

  // Reader's keys.
  sim::Rng rng(seed);
  std::vector<std::byte> v(64, std::byte{0x5a});
  for (std::uint64_t k = 1; k <= 10'000; ++k) {
    table.Insert(k, heap.Store(v.data(), 64), 64);
  }

  auto writers_alive = StartWriters(cdev, server, writers);
  TwoSidedKvClient reader(cdev, server, 4096);

  sim::LatencyRecorder rec;
  for (int i = 0; i < n_gets; ++i) {
    const std::uint64_t key = 1 + rng.NextBelow(10'000);
    auto r = reader.Get(key, sim::Millis(50));
    if (r.ok) rec.Add(r.latency);
  }
  return ContentionResult{rec.MeanUs(), rec.PercentileUs(50), rec.PercentileUs(99),
                          rec.PercentileUs(99.9), rec.count()};
}

ContentionResult RunRedNContention(int writers, int n_gets,
                                   std::uint64_t seed) {
  sim::Simulator sim;
  rnic::RnicDevice cdev(sim, rnic::NicConfig::ConnectX5(), {}, "client");
  rnic::RnicDevice sdev(sim, rnic::NicConfig::ConnectX5(), {}, "server");

  // Writers hammer the CPU through a two-sided server sharing the device.
  kv::RdmaHashTable wtable(sdev, {.buckets = 1 << 16});
  kv::ValueHeap wheap(sdev, 256 << 20);
  TwoSidedKvServer wserver(sdev, wtable, wheap,
                           TwoSidedKvServer::Mode::kPolling);
  auto writers_alive = StartWriters(cdev, wserver, writers);

  // The reader's gets are NIC-served; the contended CPU is not involved.
  offloads::HashGetHarness harness(cdev, sdev,
                                   {.buckets = 1, .max_requests = n_gets + 16});
  sim::Rng rng(seed);
  for (std::uint64_t k = 1; k <= 1'000; ++k) harness.PutPattern(k, 64);
  harness.Arm(n_gets + 8);

  sim::LatencyRecorder rec;
  for (int i = 0; i < n_gets; ++i) {
    const std::uint64_t key = 1 + rng.NextBelow(1'000);
    auto r = harness.Get(key, sim::Millis(5));
    if (r.found) rec.Add(r.latency);
  }
  return ContentionResult{rec.MeanUs(), rec.PercentileUs(50), rec.PercentileUs(99),
                          rec.PercentileUs(99.9), rec.count()};
}

FailoverResult RunFailover(const FailoverConfig& cfg) {
  sim::Simulator sim;
  rnic::RnicDevice cdev(sim, rnic::NicConfig::ConnectX5(), {}, "client");
  rnic::RnicDevice sdev(sim, rnic::NicConfig::ConnectX5(), {}, "server");

  sim::ThroughputTimeline timeline(kFailoverBucket, cfg.horizon);
  std::uint64_t sent = 0;
  auto served = std::make_shared<std::uint64_t>(0);
  const std::uint64_t total_ops = static_cast<std::uint64_t>(
      kFailoverRate * sim::ToSeconds(cfg.horizon));
  const sim::Nanos gap = static_cast<sim::Nanos>(1e9 / kFailoverRate);

  std::unique_ptr<kv::MemcachedServer> mc;
  std::unique_ptr<offloads::HashGetHarness> harness;
  std::unique_ptr<TwoSidedKvClient> client;

  if (cfg.redn) {
    harness = std::make_unique<offloads::HashGetHarness>(
        cdev, sdev,
        offloads::HashGetOffload::Config{
            .buckets = 2,  // keys displaced to their H2 bucket stay visible
            .max_requests = static_cast<int>(total_ops) + 32},
        kv::RdmaHashTable::Config{.buckets = 1 << 16});
    for (int k = 1; k <= kFailoverKeys; ++k) {
      harness->PutPattern(static_cast<std::uint64_t>(k), kFailoverValueLen);
    }
    harness->SetServerOwner(cfg.hull_parent ? kv::MemcachedServer::kHullPid
                                            : kv::MemcachedServer::kAppPid);
    harness->Arm(static_cast<int>(total_ops) + 16);
    // Count responses as they land.
    harness->client_recv_cq()->SetHostNotify([&sim, &cdev, h = harness.get(),
                                              served, &timeline] {
      rnic::Cqe cqe;
      while (cdev.PollCq(h->client_recv_cq(), 1, &cqe) == 1) {
        h->NoteOpenLoopResponse(cqe.qp_id);
        ++*served;
        timeline.Record(sim.now());
      }
    });
  } else {
    kv::MemcachedServer::Config mcfg;
    mcfg.rpc_mode = TwoSidedKvServer::Mode::kPolling;
    mcfg.hull_parent = cfg.hull_parent;
    mc = std::make_unique<kv::MemcachedServer>(sdev, mcfg);
    for (int k = 1; k <= kFailoverKeys; ++k) {
      mc->SetPattern(static_cast<std::uint64_t>(k), kFailoverValueLen);
    }
    client = std::make_unique<TwoSidedKvClient>(cdev, mc->rpc(), 4096);
  }

  // Open-loop get stream.
  sim::Rng rng(99);
  std::function<void()> tick = [&] {
    if (sim.now() >= cfg.horizon) return;
    const std::uint64_t key = 1 + rng.NextBelow(kFailoverKeys);
    if (cfg.redn) {
      harness->SendTrigger(key);
    } else {
      client->SendGet(key, [&sim, served, &timeline](sim::Nanos) {
        ++*served;
        timeline.Record(sim.now());
      });
    }
    ++sent;
    sim.After(gap, tick);
  };
  sim.After(gap, tick);

  // The crash.
  sim.At(cfg.crash_at, [&] {
    if (cfg.redn) {
      // The Memcached process dies; the OS reclaims resources owned by the
      // app pid. With the hull parent, the armed chains are untouched.
      if (!cfg.hull_parent) {
        sdev.KillProcessResources(kv::MemcachedServer::kAppPid);
      }
    } else {
      mc->CrashProcess();
    }
  });

  sim.RunUntil(cfg.horizon + sim::Seconds(1));

  FailoverResult out;
  out.sent = sent;
  out.served = *served;
  // Normalize against the pre-crash plateau.
  double plateau = 1.0;
  const std::size_t crash_bucket =
      static_cast<std::size_t>(cfg.crash_at / kFailoverBucket);
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t b = 1; b + 1 < crash_bucket && b < timeline.buckets(); ++b) {
    sum += static_cast<double>(timeline.count(b));
    ++n;
  }
  plateau = n > 0 ? sum / static_cast<double>(n) : 1.0;
  if (plateau <= 0) plateau = 1.0;
  for (std::size_t b = 0; b < timeline.buckets(); ++b) {
    const double norm =
        std::min(1.25, static_cast<double>(timeline.count(b)) / plateau);
    out.normalized.push_back(norm);
    if (b > 0 && norm < 0.05) out.outage_seconds += sim::ToSeconds(kFailoverBucket);
  }
  return out;
}

}  // namespace redn::workload
