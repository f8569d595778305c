// End-to-end benchmark: runs ONE workload per process.
//
//   redn_bench --workload W --seed N [--seconds S] [--scale F]
//              [--min-reps R] [--spans FILE] [--probes]
//
// One warm-up rep, then measured reps until S seconds have passed and at
// least R reps ran. Every rep builds a fresh topology with the same seed, so
// every rep is also a same-seed rerun: any simulated field that differs
// from the warm-up fails the run. The last stdout line is one JSON object
// with the per-rep host timings, the simulated fields, and any failed
// checks; bench/e2e/run.py turns it into metrics. Exit status is 1 when a
// check failed.
//
// Workloads (see bench/e2e/README.md for why each exists):
//   chain_rings  §3.4 self-recycling WAIT/ADD/WRITE/ENABLE rings on one RNIC
//   kv_get       Fig 14 offloaded gets on the sharded KV service
//   lossy_fabric NIC-served 64 KiB gets over a 2%-loss packetized fabric
//   kv_mixed     kv_get + 30% puts through a shard crash and a slow shard
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kv/table.h"
#include "offloads/hash_harness.h"
#include "rnic/device.h"
#include "sim/fabric.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/transport.h"
#include "verbs/verbs.h"
#include "workload/experiments.h"
#include "workload/kv_service.h"

namespace redn_e2e {

using namespace redn;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  double scale = 1;  // multiplies every workload's op count (and fault times)
  int min_reps = 5;
  std::string spans;  // Chrome trace-event JSON output path; empty = none
  bool probes = false;
};

// Ordered (name, value) list: simulated fields and probe timings.
using Fields = std::vector<std::pair<std::string, double>>;

// --- benchmark-side spans ----------------------------------------------------
// Spans around the calls into the library, kept in memory and written as
// Chrome trace-event JSON when the process ends.
class Spans {
 public:
  int Begin(const std::string& name, int parent) {
    spans_.push_back({name, parent, Now(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<std::size_t>(id)].end_us = Now(); }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.start_us
          << ", \"dur\": " << s.end_us - s.start_us << ", \"args\": {\"id\": "
          << i << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
  };
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// Runs `fn` inside a span and returns its wall time in seconds.
template <class F>
double Timed(Spans& spans, const std::string& name, int parent, F&& fn) {
  const int id = spans.Begin(name, parent);
  const auto t0 = Clock::now();
  fn();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  spans.End(id);
  return s;
}

struct RepResult {
  double setup_s = 0;  // wall time of the set-up-only call
  double wall_s = 0;   // wall time of the whole workload call
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Fields sim;  // simulated outputs: must repeat exactly for a given seed
  std::vector<const char*> problems;  // failed checks
};

double D(std::uint64_t v) { return static_cast<double>(v); }
// -1 when there is nothing to divide: run.py's "not reported" value.
double Ratio(double num, double den) { return den > 0 ? num / den : -1.0; }

int Scaled(int n, double scale) {
  return std::max(1, static_cast<int>(std::lround(n * scale)));
}

void Require(RepResult& r, bool ok, const char* what) {
  if (!ok) r.problems.push_back(what);
}

// --- chain_rings -------------------------------------------------------------
// bench_scale_fanout's ring workload at 8 tenants x 4 rings on one RNIC over
// compat ConnectSelf. Each tenant's background writer ticks its send CQ;
// every background CQE wakes the tenant's rings for one round of
//   0 WAIT(bg_cq, r)  1 WRITE  2-4 ADD (thresholds += 1, 4, 8)  5 NOOP
//   6 WAIT(own cq)    7 ENABLE(self)
// The writers are open-loop Poisson sources (seeded per tenant) posted from
// the host rather than bench_scale_fanout's batches behind the QP rate
// limiter: a paced WRITE reserves its PU up to a gap ahead, which would
// stall the rings pinned to that PU for milliseconds. At 5K CQE/s per
// tenant the NIC runs at roughly 60% of the rate where rounds back up.
// A host poller drains the CQs every millisecond; a round's latency is its
// last CQE's NIC completion minus the NIC completion of the background CQE
// that woke it.
constexpr std::uint32_t kRing = 8;
constexpr int kRingCqes = 4;  // signaled verbs per round: WRITE + 3 ADDs

struct BgWriter {
  sim::Simulator* sim = nullptr;
  rnic::QueuePair* qp = nullptr;
  rnic::MemoryRegion heap;
  sim::Rng rng;
  double mean_gap_ns = 0;
  sim::Nanos end = 0;

  void Post() {
    verbs::PostSend(qp, verbs::MakeWrite(heap.addr, 64, heap.lkey,
                                         heap.addr + 512, heap.rkey));
    verbs::RingDoorbell(qp);
    const auto gap = static_cast<sim::Nanos>(rng.NextExponential(mean_gap_ns));
    if (sim->now() + gap < end) sim->After(gap, [this] { Post(); });
  }
};

void BuildRing(rnic::RnicDevice& dev, rnic::QueuePair* ring,
               rnic::CompletionQueue* bg_cq, const rnic::MemoryRegion& heap) {
  const std::uint32_t code_rkey = ring->sq_mr.rkey;
  auto slot = [&](std::uint64_t idx) {
    return ring->sq.SlotAddr(idx, rnic::WqeField::kCompareAdd);
  };
  verbs::PostSend(ring, verbs::MakeWait(bg_cq, 1));
  verbs::PostSend(ring, verbs::MakeWrite(heap.addr, 64, heap.lkey,
                                         heap.addr + 1024, heap.rkey));
  verbs::PostSend(ring, verbs::MakeFetchAdd(slot(0), code_rkey, 1));
  verbs::PostSend(ring, verbs::MakeFetchAdd(slot(6), code_rkey, kRingCqes));
  verbs::PostSend(ring, verbs::MakeFetchAdd(slot(7), code_rkey, kRing));
  verbs::PostSend(ring, verbs::MakeNoop(/*signaled=*/false));
  verbs::PostSend(ring, verbs::MakeWait(ring->send_cq, 0));
  verbs::PostSend(ring, verbs::MakeEnable(ring, kRing));
  dev.HostEnable(ring, kRing);
}

RepResult ChainRings(const Options& o, Spans& spans, int rep_span) {
  constexpr int kTenants = 8;
  constexpr int kRingsPerTenant = 4;
  constexpr double kBgRate = 5'000.0;  // mean background CQEs/s per tenant
  constexpr std::size_t kHeapBytes = 4096;
  constexpr sim::Nanos kPollPeriod = sim::Millis(1);
  const sim::Nanos duration = static_cast<sim::Nanos>(4e9 * o.scale);

  struct Ring {
    rnic::QueuePair* qp = nullptr;
    std::uint64_t cqes = 0;
  };
  struct Tenant {
    std::unique_ptr<std::byte[]> heap;
    BgWriter bg;
    std::vector<sim::Nanos> bg_done;  // NIC completion of each bg CQE
    std::vector<Ring> rings;
  };

  RepResult r;
  sim::LatencyRecorder rounds;
  std::uint64_t unmatched = 0;
  std::vector<Tenant> tenants(kTenants);
  std::function<void()> poll;
  std::unique_ptr<sim::Simulator> simp;
  std::unique_ptr<rnic::RnicDevice> devp;

  r.setup_s = Timed(spans, "setup", rep_span, [&] {
    simp = std::make_unique<sim::Simulator>();
    devp = std::make_unique<rnic::RnicDevice>(
        *simp, rnic::NicConfig::ConnectX5(), rnic::Calibration{}, "rings");
    for (int i = 0; i < kTenants; ++i) {
      Tenant& t = tenants[static_cast<std::size_t>(i)];
      t.heap = std::make_unique<std::byte[]>(kHeapBytes);
      std::memset(t.heap.get(), 0, kHeapBytes);
      const rnic::MemoryRegion heap =
          devp->pd().Register(t.heap.get(), kHeapBytes, rnic::kAccessAll);
      rnic::QpConfig bgc;
      bgc.send_cq = devp->CreateCq();
      bgc.recv_cq = devp->CreateCq();
      rnic::QueuePair* bg_qp = devp->CreateQp(bgc);
      rnic::ConnectSelf(bg_qp);
      t.bg = BgWriter{simp.get(), bg_qp, heap,
                      sim::Rng(o.seed * 1000 + static_cast<std::uint64_t>(i)),
                      1e9 / kBgRate, duration};
      for (int c = 0; c < kRingsPerTenant; ++c) {
        rnic::QpConfig rc;
        rc.sq_depth = kRing;
        rc.managed = true;
        rc.send_cq = devp->CreateCq();
        rc.recv_cq = devp->CreateCq();
        rnic::QueuePair* ring = devp->CreateQp(rc);
        rnic::ConnectSelf(ring);
        BuildRing(*devp, ring, bg_qp->send_cq, heap);
        t.rings.push_back({ring, 0});
      }
      const auto first =
          static_cast<sim::Nanos>(t.bg.rng.NextExponential(t.bg.mean_gap_ns));
      simp->At(first, [&t] { t.bg.Post(); });
    }
    poll = [&] {
      rnic::Cqe cqes[64];
      for (Tenant& t : tenants) {
        int n;
        while ((n = devp->PollCq(t.bg.qp->send_cq, 64, cqes)) > 0) {
          for (int i = 0; i < n; ++i) t.bg_done.push_back(cqes[i].completed_at);
        }
        for (Ring& ring : t.rings) {
          while ((n = devp->PollCq(ring.qp->send_cq, 64, cqes)) > 0) {
            for (int i = 0; i < n; ++i) {
              if (++ring.cqes % kRingCqes != 0) continue;
              const std::uint64_t round = ring.cqes / kRingCqes;
              if (round > t.bg_done.size()) {
                ++unmatched;
                continue;
              }
              rounds.Add(cqes[i].completed_at - t.bg_done[round - 1]);
            }
          }
        }
      }
      if (simp->now() + kPollPeriod <= duration) {
        simp->After(kPollPeriod, [&poll] { poll(); });
      }
    };
    simp->At(kPollPeriod, [&poll] { poll(); });
  });

  r.wall_s = r.setup_s + Timed(spans, "run", rep_span,
                               [&] { simp->RunUntil(duration); });

  const rnic::DeviceCounters& dc = devp->counters();
  const sim::LatencySummary lat = rounds.Summarize();
  std::uint64_t min_rounds = ~std::uint64_t{0};
  std::uint64_t stalled = 0;
  for (const Tenant& t : tenants) {
    for (const Ring& ring : t.rings) {
      const std::uint64_t n = ring.qp->send_cq->hw_count() / kRingCqes;
      min_rounds = std::min(min_rounds, n);
      if (n < 2) ++stalled;
    }
  }
  r.ops = dc.TotalExecuted();
  r.attempted = r.ops + stalled;
  r.failed = stalled;
  Require(r, stalled == 0, "chain_rings: a ring ran fewer than 2 rounds");
  Require(r, unmatched == 0,
          "chain_rings: a round completed before its wake-up");
  Require(r, rounds.count() > 0, "chain_rings: no round latencies recorded");

  const std::uint64_t events = simp->events_processed();
  const std::uint64_t slab = simp->slab_hits() + simp->heap_fallbacks();
  const auto& pool = devp->payload_pool();
  r.sim = {
      {"ops", D(r.ops)},
      {"sim_ops_per_s", D(r.ops) / sim::ToSeconds(duration)},
      {"sim_lat_p50", lat.p50_us},
      {"sim_lat_p99", lat.p99_us},
      {"sim_lat_p999", lat.p999_us},
      {"latency_samples", D(rounds.count())},
      {"rounds_min_per_ring", D(min_rounds)},
      {"sim.events", D(events)},
      {"sim.events_per_op", Ratio(D(events), D(r.ops))},
      {"sim.slab_hit_rate", Ratio(D(simp->slab_hits()), D(slab))},
      {"sim.heap_fallbacks", D(simp->heap_fallbacks())},
      {"rnic.verbs", D(r.ops)},
      {"rnic.wqe_cache_hit_rate", dc.WqeCacheHitRate()},
      {"rnic.payload_reuse_rate", Ratio(D(pool.reuses()), D(pool.acquires()))},
      {"rnic.qp_errors", D(dc.qp_errors)},
      {"rnic.qp_rearms", D(dc.qp_rearms)},
      {"rnic.error_cqes", D(dc.error_completions)},
  };
  return r;
}

// --- kv_get / kv_mixed -------------------------------------------------------
workload::KvServiceConfig KvConfig(const Options& o, bool mixed) {
  workload::KvServiceConfig cfg;
  cfg.shards = 4;
  cfg.tenants = 4;
  cfg.keys = 100'000;
  cfg.value_len = 256;
  cfg.zipf_theta = 0.99;
  cfg.gets_per_tenant = Scaled(8000, o.scale);
  cfg.seed = o.seed;
  cfg.transport_seed = o.seed;
  if (mixed) {
    // Fault times scale with the op count so --scale keeps both windows
    // inside the run. The crash is permanent: a crash that re-joins (or a
    // healing blackhole/flaky window) runs the anti-entropy resync, whose
    // audit reports lost acked writes on about one seed in four at this
    // size, and a benchmark run must not fail.
    auto at = [&](double ms) {
      return static_cast<sim::Nanos>(ms * 1e6 * o.scale);
    };
    cfg.put_fraction = 0.3;
    workload::FaultEntry crash;
    crash.server = 1;
    crash.kind = workload::FaultKind::kCrash;
    crash.down_at = at(16);
    cfg.faults.entries.push_back(crash);
    workload::FaultEntry slow;
    slow.server = 2;
    slow.kind = workload::FaultKind::kSlow;
    slow.down_at = at(32);
    slow.up_at = at(36);
    slow.slow_ns = 30'000;
    cfg.faults.entries.push_back(slow);
  }
  return cfg;
}

RepResult Kv(const Options& o, Spans& spans, int rep_span, bool mixed) {
  const workload::KvServiceConfig cfg = KvConfig(o, mixed);
  RepResult r;
  // Set-up cost: the same call with nothing simulated past t = 1 ns.
  workload::KvServiceConfig setup_cfg = cfg;
  setup_cfg.horizon = 1;
  r.setup_s = Timed(spans, "setup", rep_span,
                    [&] { workload::RunKvService(setup_cfg); });
  workload::KvServiceResult k;
  r.wall_s = Timed(spans, "run", rep_span,
                   [&] { k = workload::RunKvService(cfg); });

  const std::uint64_t demand =
      static_cast<std::uint64_t>(cfg.tenants) * cfg.gets_per_tenant;
  r.ops = k.gets + k.puts;
  r.attempted = demand;
  r.failed = k.unanswered + k.lost_acked_writes + k.ryw_violations +
             k.value_divergence;
  Require(r, r.ops + k.unanswered == demand, "kv: ops do not add up to demand");
  Require(r, r.failed == 0, "kv: unanswered ops or a failed write audit");
  if (mixed) {
    Require(r, k.puts > 0 && k.acked_puts_full > 0, "kv_mixed: no put acked");
    Require(r, k.faults_applied == 2, "kv_mixed: a fault window never opened");
    Require(r, k.degraded_acks > 0 && k.reroutes > 0,
            "kv_mixed: the crash never forced a failover");
  }

  const double d = static_cast<double>(r.ops);
  r.sim = {
      {"ops", d},
      {"sim_ops_per_s", d / (k.duration_us / 1e6)},
      {"sim_lat_p50", k.p50_us},
      {"sim_lat_p99", k.p99_us},
      {"sim_lat_p999", k.p999_us},
      {"latency_samples", D(k.gets)},
      {"puts", D(k.puts)},
      {"unanswered", D(k.unanswered)},
      {"lost_acked_writes", D(k.lost_acked_writes)},
      {"ryw_violations", D(k.ryw_violations)},
      {"value_divergence", D(k.value_divergence)},
      {"sim.events", D(k.events)},
      {"sim.events_per_op", Ratio(D(k.events), d)},
      {"rnic.qp_errors", D(k.qp_errors)},
      {"rnic.qp_rearms", D(k.qp_rearms)},
      {"rnic.error_cqes", D(k.error_cqes)},
      {"transport.data_packets", D(k.data_packets)},
      {"transport.packets_per_op", Ratio(D(k.data_packets), d)},
      {"transport.retransmits", D(k.retransmits)},
      {"transport.sack_retransmits", D(k.sack_retransmits)},
      {"transport.rto_fires", D(k.rto_fires)},
      {"transport.useful_frac",
       Ratio(D(k.data_packets),
             D(k.data_packets + k.retransmits))},
      {"offloads.detour_responses", D(k.detour_responses)},
      {"offloads.reroutes", D(k.reroutes)},
      {"offloads.probes_sent", D(k.probes_sent)},
      {"offloads.stale_responses", D(k.stale_responses)},
      {"kv.keys_visible", D(k.keys_visible)},
      {"kv.chain_forwards", D(k.chain_forwards)},
      {"kv.degraded_acks", D(k.degraded_acks)},
      {"kv.put_retries", D(k.put_retries)},
  };
  if (k.puts > 0) r.sim.emplace_back("kv.put_lat_p99", k.put_p99_us);
  return r;
}

// --- lossy_fabric ------------------------------------------------------------
RepResult LossyFabric(const Options& o, Spans& spans, int rep_span) {
  workload::FabricScaleConfig cfg;
  cfg.clients = 4;
  cfg.value_len = 64 << 10;
  cfg.gets_per_client = Scaled(10'000, o.scale);
  // 64 keys per client instead of 512: the 64 KiB values are then 4 MB of
  // store per client, so the transport path, not loading and freeing the
  // stores, dominates the host time.
  cfg.keys = 64;
  cfg.packetized = true;
  cfg.selective_repeat = true;
  cfg.loss = 0.02;
  cfg.timeout_exp = 6;
  cfg.seed = o.seed;
  cfg.transport_seed = o.seed;

  RepResult r;
  // Set-up cost: RunFabricScale has no horizon, so the same topology with
  // zero gets requested (each client's opening get still runs).
  workload::FabricScaleConfig setup_cfg = cfg;
  setup_cfg.gets_per_client = 0;
  r.setup_s = Timed(spans, "setup", rep_span,
                    [&] { workload::RunFabricScale(setup_cfg); });
  workload::FabricScaleResult f;
  r.wall_s = Timed(spans, "run", rep_span,
                   [&] { f = workload::RunFabricScale(cfg); });

  const std::uint64_t demand =
      static_cast<std::uint64_t>(cfg.clients) * cfg.gets_per_client;
  r.ops = f.gets;
  r.attempted = demand;
  r.failed = demand > f.gets ? demand - f.gets : 0;
  Require(r, f.gets == demand, "lossy_fabric: gets went unanswered");
  Require(r, f.retransmits > 0 && f.packets_lost > 0,
          "lossy_fabric: the loss injector never fired");

  const double d = static_cast<double>(r.ops);
  r.sim = {
      {"ops", d},
      {"sim_ops_per_s", f.gets_per_sec},
      {"sim_lat_p50", f.p50_us},
      {"sim_lat_p99", f.p99_us},
      {"sim_lat_p999", f.p999_us},
      {"latency_samples", d},
      {"sim.events", D(f.events)},
      {"sim.events_per_op", Ratio(D(f.events), d)},
      {"rnic.qp_errors", D(f.qp_errors)},
      {"rnic.qp_rearms", D(f.qp_rearms)},
      {"rnic.error_cqes", D(f.error_cqes)},
      {"transport.data_packets", D(f.data_packets)},
      {"transport.packets_per_op", Ratio(D(f.data_packets), d)},
      {"transport.retransmits", D(f.retransmits)},
      {"transport.sack_retransmits", D(f.sack_retransmits)},
      {"transport.rto_fires", D(f.rto_fires)},
      {"transport.spurious_retransmits", D(f.spurious_retransmits)},
      {"transport.packets_lost", D(f.packets_lost)},
      {"transport.useful_frac",
       Ratio(D(f.data_packets),
             D(f.data_packets + f.retransmits))},
      {"transport.goodput_gbps", f.goodput_gbps},
      {"fabric.server_tx_util", f.server_tx_util},
  };
  return r;
}

// --- set-up probes -----------------------------------------------------------
// Times the public calls kv_get's set-up is made of, at kv_get's shapes:
// 4 shard stores holding 100K keys twice (primary + successor), and one
// HashGetHarness per (tenant, shard) armed for the tenant's gets.
Fields SetupProbes(const Options& o, Spans& spans, int parent) {
  constexpr int kShards = 4;
  constexpr int kTenants = 4;
  constexpr int kKeys = 100'000;
  constexpr std::uint32_t kValueLen = 256;
  const int gets = Scaled(8000, o.scale);
  const int probe = spans.Begin("probes", parent);

  sim::Simulator sim;
  sim::Fabric fabric(0);
  sim::TransportConfig tc;
  tc.mode = sim::TransportMode::kSelectiveRepeat;
  sim::Transport transport(sim, fabric, tc);
  std::vector<std::unique_ptr<rnic::RnicDevice>> devs;
  for (int i = 0; i < kShards + kTenants; ++i) {
    devs.push_back(std::make_unique<rnic::RnicDevice>(
        sim, rnic::NicConfig::ConnectX5(), rnic::Calibration{},
        "probe" + std::to_string(i)));
    devs.back()->AttachPort(0, fabric, {25.0, 125});
  }
  std::vector<std::unique_ptr<kv::RdmaHashTable>> tables;
  std::vector<std::unique_ptr<kv::ValueHeap>> heaps;
  constexpr std::size_t kPerShard = 2 * kKeys / kShards;
  for (int s = 0; s < kShards; ++s) {
    tables.push_back(std::make_unique<kv::RdmaHashTable>(
        *devs[static_cast<std::size_t>(s)],
        kv::RdmaHashTable::Config{.buckets = std::size_t{1} << 18}));
    heaps.push_back(std::make_unique<kv::ValueHeap>(
        *devs[static_cast<std::size_t>(s)],
        kPerShard * kValueLen + (64 << 10)));
  }
  std::vector<std::byte> v(kValueLen);
  const double load_s = Timed(spans, "kv.load", probe, [&] {
    for (int k = 1; k <= kKeys; ++k) {
      const auto key = static_cast<std::uint64_t>(k);
      for (std::uint32_t i = 0; i < kValueLen; ++i) {
        v[i] = static_cast<std::byte>((key + i) & 0xff);
      }
      for (const int s : {k % kShards, (k + 1) % kShards}) {
        const auto idx = static_cast<std::size_t>(s);
        tables[idx]->Insert(key, heaps[idx]->Store(v.data(), kValueLen),
                            kValueLen);
      }
    }
  });

  std::vector<double> ctor_s, arm_s;
  std::vector<std::unique_ptr<offloads::HashGetHarness>> harnesses;
  for (int t = 0; t < kTenants; ++t) {
    for (int s = 0; s < kShards; ++s) {
      const auto si = static_cast<std::size_t>(s);
      ctor_s.push_back(Timed(spans, "offloads.harness_ctor", probe, [&] {
        harnesses.push_back(std::make_unique<offloads::HashGetHarness>(
            *devs[static_cast<std::size_t>(kShards + t)], *devs[si],
            offloads::HashGetOffload::Config{.buckets = 2,
                                             .max_requests = gets + 32,
                                             .fabric = &fabric,
                                             .transport = &transport},
            *tables[si], *heaps[si], kValueLen + 64));
      }));
      arm_s.push_back(Timed(spans, "offloads.arm", probe,
                            [&] { harnesses.back()->Arm(gets + 8); }));
    }
  }
  spans.End(probe);
  auto median = [](std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
  };
  return {
      {"offloads.harness_ctor_ms", 1e3 * median(ctor_s)},
      {"offloads.arm_us_per_op", 1e6 * median(arm_s) / (gets + 8)},
      {"kv.load_ms", 1e3 * load_s},
  };
}

// --- main loop ---------------------------------------------------------------
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return -1;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// `open` + fmt(x) for each x, comma-separated, + `close`.
template <class T, class F>
std::string Join(const std::vector<T>& xs, const char* open, const char* close,
                 F&& fmt) {
  std::string s = open;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    s += i ? ", " : "";
    s += fmt(xs[i]);
  }
  return s + close;
}

std::string Quoted(const std::string& s) { return "\"" + s + "\""; }

int Run(const Options& o) {
  std::function<RepResult(Spans&, int)> rep;
  if (o.workload == "chain_rings") {
    rep = [&](Spans& s, int p) { return ChainRings(o, s, p); };
  } else if (o.workload == "kv_get" || o.workload == "kv_mixed") {
    const bool mixed = o.workload == "kv_mixed";
    rep = [&, mixed](Spans& s, int p) { return Kv(o, s, p, mixed); };
  } else if (o.workload == "lossy_fabric") {
    rep = [&](Spans& s, int p) { return LossyFabric(o, s, p); };
  } else {
    std::fprintf(stderr, "unknown --workload '%s' (chain_rings, kv_get, "
                 "lossy_fabric, kv_mixed)\n", o.workload.c_str());
    return 2;
  }

  Spans spans;
  const int top = spans.Begin(o.workload, -1);
  const int warm_span = spans.Begin("warmup", top);
  const RepResult warm = rep(spans, warm_span);
  spans.End(warm_span);

  std::vector<const char*> problems = warm.problems;
  std::vector<double> setup_s, wall_s;
  std::uint64_t attempted = 0, failed = 0;
  const auto t0 = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  while (static_cast<int>(wall_s.size()) < o.min_reps ||
         elapsed() < o.seconds) {
    const int id = spans.Begin("rep", top);
    const RepResult r = rep(spans, id);
    spans.End(id);
    setup_s.push_back(r.setup_s);
    wall_s.push_back(r.wall_s);
    attempted += r.attempted;
    failed += r.failed;
    problems.insert(problems.end(), r.problems.begin(), r.problems.end());
    if (r.sim != warm.sim) {
      problems.push_back("simulated fields differ between same-seed reps");
    }
  }
  std::sort(problems.begin(), problems.end());
  problems.erase(std::unique(problems.begin(), problems.end()), problems.end());
  Fields probes;
  if (o.probes) probes = SetupProbes(o, spans, top);
  spans.End(top);
  if (!o.spans.empty()) spans.Write(o.spans);

  auto field = [](const std::pair<std::string, double>& f) {
    return Quoted(f.first) + ": " + Num(f.second);
  };
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"scale\": %s, \"reps\": %zu, "
      "\"ops\": %llu, \"attempted\": %llu, \"failed\": %llu, "
      "\"peak_rss_mb\": %s, \"setup_s\": %s, \"wall_s\": %s, \"sim\": %s, "
      "\"probes\": %s, \"problems\": %s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      Num(o.scale).c_str(), wall_s.size(),
      static_cast<unsigned long long>(warm.ops),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), Num(PeakRssMb()).c_str(),
      Join(setup_s, "[", "]", Num).c_str(), Join(wall_s, "[", "]", Num).c_str(),
      Join(warm.sim, "{", "}", field).c_str(),
      Join(probes, "{", "}", field).c_str(),
      Join(problems, "[", "]", [](const char* p) { return Quoted(p); })
          .c_str());
  return problems.empty() ? 0 : 1;
}

}  // namespace redn_e2e

int main(int argc, char** argv) try {
  redn_e2e::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = val();
    } else if (a == "--seed") {
      o.seed = std::stoull(val());
    } else if (a == "--seconds") {
      o.seconds = std::stod(val());
    } else if (a == "--scale") {
      o.scale = std::stod(val());
    } else if (a == "--min-reps") {
      o.min_reps = std::stoi(val());
    } else if (a == "--spans") {
      o.spans = val();
    } else if (a == "--probes") {
      o.probes = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.scale <= 0 || o.min_reps < 1) {
    throw std::invalid_argument("--scale must be > 0 and --min-reps >= 1");
  }
  return redn_e2e::Run(o);
} catch (const std::exception& e) {
  std::fprintf(stderr, "redn_bench: %s\n", e.what());
  return 2;
}
