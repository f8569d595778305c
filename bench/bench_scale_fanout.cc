// Multi-tenant completion-path scale bench (wall-clock guardrail).
//
// N tenants share one simulated RNIC. Each tenant runs:
//  - a rate-limited background writer (non-managed loopback QP, the §3.5
//    isolation knob) streaming signaled 64B WRITEs into the tenant's heap,
//    so its send CQ ticks at a steady rate; and
//  - M managed chain queues, each an 8-slot self-recycling RedN ring that
//    WAITs on the tenant's background CQ, does one signaled WRITE of "work",
//    self-increments its WAIT/ENABLE thresholds (the §3.4 ADD-on-threshold
//    trick) and re-ENABLEs itself forever.
//
// Every background CQE therefore wakes all M chains of its tenant at the
// same instant — the fan-out stresses exactly the paths this repo's
// completion overhaul touched: one-event CQE delivery, the waiter heap,
// batched same-instant WAIT resumes, and the protection check on every
// SGE (each tenant alternates between its code rings and its heap).
//
// Reported: wall-clock events/s (the CI floor), simulated verbs/s, event
// slab hit rate, and payload-pool reuse rate. Simulated results stay
// deterministic; only the wall-clock rates vary run to run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "report.h"
#include "rnic/device.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "verbs/verbs.h"

using namespace redn;

namespace {

struct Params {
  int tenants = 4;
  int chains_per_tenant = 4;
  double bg_rate = 10'000.0;    // background CQEs per second per tenant
  sim::Nanos duration = sim::Millis(1200);
  int bg_batch = 16;            // WRITEs posted per driver wake-up
  // --shards S: sharded-engine mode — one RNIC per tenant, tenants placed
  // round-robin on S event domains. All traffic is loopback, so there are
  // zero cross-shard edges: the run measures pure engine parallelism, and
  // the simulated results must be identical at every shard count.
  int shards = 0;               // 0 = legacy single-device path
};

// Background writer driver: posts a batch of signaled WRITEs and
// reschedules itself one batch-period later, until the measurement window
// closes. The QP's rate limiter spaces actual issue at bg_rate.
struct TenantBg {
  sim::Simulator* sim = nullptr;
  rnic::QueuePair* qp = nullptr;
  std::uint64_t heap_addr = 0;
  std::uint32_t heap_lkey = 0;
  std::uint32_t heap_rkey = 0;
  sim::Nanos period = 0;  // batch / bg_rate
  sim::Nanos end = 0;
  int batch = 0;

  void PostBatch() {
    for (int i = 0; i < batch; ++i) {
      verbs::PostSend(qp, verbs::MakeWrite(heap_addr, 64, heap_lkey,
                                           heap_addr + 512, heap_rkey,
                                           /*signaled=*/true));
    }
    verbs::RingDoorbell(qp);
    if (sim->now() + period < end) {
      sim->After(period, [this] { PostBatch(); });
    }
  }
};

// Chain ring layout (absolute slot indices in an 8-deep managed queue):
//   0: WAIT(bg_cq, t)         t += 1 per round
//   1: WRITE heap->heap 64B   signaled (the round's "work")
//   2: ADD slot0.threshold += 1
//   3: ADD slot6.threshold += 4    (four signaled data verbs per round)
//   4: ADD slot7.limit     += 8    (ring size)
//   5: NOOP (unsignaled padding)
//   6: WAIT(own cq, w)        barrier: this round's data verbs completed
//   7: ENABLE(self, l)        wrap into the next round
//
// Initial thresholds are doorbell-order aware: a managed queue fetches each
// WQE at execution time, so round r's ADDs (slots 2-4) land in memory
// before slots 6-7 of the same round are fetched. Slot 6 therefore starts
// at 0 (fetched as 4r in round r — the round's 4 signaled data verbs) and
// slot 7 at kRing (fetched as 8r+8, enabling round r+1). Slot 0 is fetched
// before its own round's ADD, so it starts at 1 (fetched as r).
//
// Decoded-WQE cache interaction: every lap re-fetches all 8 slots, and the
// ADDs rewrite exactly three of them (0, 6, 7). A fetch reloads a slot
// whose bytes changed since its last decode, so in steady state those 3
// fetches miss and the other 5 hit — the reported wqe_cache_hit_rate sits
// near 5/8 (0.64 measured) and scripts/ci.sh enforces a 0.6 floor on it.
constexpr std::uint32_t kRing = 8;

void BuildChain(rnic::RnicDevice& dev, rnic::QueuePair* chain,
                rnic::CompletionQueue* bg_cq, std::uint64_t heap_addr,
                std::uint32_t heap_lkey, std::uint32_t heap_rkey) {
  using rnic::WqeField;
  const std::uint32_t code_rkey = chain->sq_mr.rkey;
  auto slot_field = [&](std::uint64_t idx, WqeField f) {
    return chain->sq.SlotAddr(idx, f);
  };

  verbs::PostSend(chain, verbs::MakeWait(bg_cq, 1));
  verbs::PostSend(chain, verbs::MakeWrite(heap_addr, 64, heap_lkey,
                                          heap_addr + 1024, heap_rkey,
                                          /*signaled=*/true));
  verbs::PostSend(chain, verbs::MakeFetchAdd(
                             slot_field(0, WqeField::kCompareAdd), code_rkey, 1));
  verbs::PostSend(chain, verbs::MakeFetchAdd(
                             slot_field(6, WqeField::kCompareAdd), code_rkey, 4));
  verbs::PostSend(chain, verbs::MakeFetchAdd(
                             slot_field(7, WqeField::kCompareAdd), code_rkey,
                             kRing));
  verbs::PostSend(chain, verbs::MakeNoop(/*signaled=*/false));
  verbs::PostSend(chain, verbs::MakeWait(chain->send_cq, 0));
  verbs::PostSend(chain, verbs::MakeEnable(chain, kRing));
  dev.HostEnable(chain, kRing);  // kick round 1
}

// One full sharded run: the same tenant workload, each tenant on its own
// device, devices round-robin across `shards` domains. Returns everything
// the caller needs to check flatness (simulated fields) and speedup (wall).
struct ShardRun {
  double wall_secs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t verbs = 0;
  std::uint64_t events = 0;
  std::uint64_t sync_rounds = 0;
  std::uint64_t mailbox_sends = 0;
  std::vector<std::uint64_t> events_per_shard;
};

ShardRun RunShardedFanout(const Params& p, int shards) {
  sim::ShardedSimulator ssim(shards);

  struct Tenant {
    std::unique_ptr<rnic::RnicDevice> dev;
    std::unique_ptr<std::byte[]> heap;
    TenantBg bg;
    std::vector<rnic::QueuePair*> chains;
  };
  std::vector<Tenant> tenants(static_cast<std::size_t>(p.tenants));
  constexpr std::size_t kHeapBytes = 4096;

  for (int i = 0; i < p.tenants; ++i) {
    Tenant& t = tenants[static_cast<std::size_t>(i)];
    sim::EventDomain& dom = ssim.shard(i % shards);
    t.dev = std::make_unique<rnic::RnicDevice>(
        dom, rnic::NicConfig::ConnectX5(), rnic::Calibration{},
        "tenant" + std::to_string(i));
    t.heap = std::make_unique<std::byte[]>(kHeapBytes);
    std::memset(t.heap.get(), 0, kHeapBytes);
    const rnic::MemoryRegion heap_mr =
        t.dev->pd().Register(t.heap.get(), kHeapBytes, rnic::kAccessAll);

    rnic::QpConfig bgc;
    bgc.sq_depth = 256;
    bgc.send_cq = t.dev->CreateCq();
    bgc.recv_cq = t.dev->CreateCq();
    bgc.rate_ops_per_sec = p.bg_rate;
    rnic::QueuePair* bg_qp = t.dev->CreateQp(bgc);
    rnic::ConnectSelf(bg_qp);

    t.bg = TenantBg{&dom,
                    bg_qp,
                    heap_mr.addr,
                    heap_mr.lkey,
                    heap_mr.rkey,
                    static_cast<sim::Nanos>(1e9 * p.bg_batch / p.bg_rate),
                    p.duration,
                    p.bg_batch};

    for (int c = 0; c < p.chains_per_tenant; ++c) {
      rnic::QpConfig cc;
      cc.sq_depth = kRing;
      cc.managed = true;
      cc.send_cq = t.dev->CreateCq();
      cc.recv_cq = t.dev->CreateCq();
      rnic::QueuePair* chain = t.dev->CreateQp(cc);
      rnic::ConnectSelf(chain);
      BuildChain(*t.dev, chain, bg_qp->send_cq, heap_mr.addr, heap_mr.lkey,
                 heap_mr.rkey);
      t.chains.push_back(chain);
    }
  }
  for (Tenant& t : tenants) t.bg.PostBatch();

  const auto t0 = std::chrono::steady_clock::now();
  ssim.RunUntil(p.duration);

  ShardRun out;
  out.wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const Tenant& t : tenants) {
    out.verbs += t.dev->counters().TotalExecuted();
    for (const rnic::QueuePair* chain : t.chains) {
      out.rounds += chain->send_cq->hw_count() / 4;
    }
  }
  out.events = ssim.events_processed();
  out.sync_rounds = ssim.rounds();
  out.mailbox_sends = ssim.cross_shard_sends();
  for (int s = 0; s < shards; ++s) {
    out.events_per_shard.push_back(ssim.shard(s).events_processed());
  }
  return out;
}

// Sharded-mode driver: the same workload at 1 shard and at S shards, flat
// simulated results enforced, wall-clock speedup reported.
int MainSharded(const Params& p) {
  bench::Title("Multi-tenant fan-out scale bench (sharded engine)",
               "per-tenant RNICs on parallel event domains; docs/PARSIM.md");
  std::printf("  %d tenants x %d chain queues on %d shards, %.0f ms "
              "simulated\n",
              p.tenants, p.chains_per_tenant, p.shards,
              sim::ToMicros(p.duration) / 1e3);

  const ShardRun base = RunShardedFanout(p, 1);
  const ShardRun wide = RunShardedFanout(p, p.shards);
  const double speedup = wide.wall_secs > 0 ? base.wall_secs / wide.wall_secs
                                            : 0.0;

  bench::Section("results");
  std::printf("  %-30s %9.3f s at 1 shard, %.3f s at %d shards\n",
              "wall clock", base.wall_secs, wide.wall_secs, p.shards);
  std::printf("  %-30s %12.2fx\n", "wall_speedup_vs_1shard", speedup);
  std::printf("  %-30s %llu rounds, %llu verbs, %llu events\n", "volume",
              static_cast<unsigned long long>(wide.rounds),
              static_cast<unsigned long long>(wide.verbs),
              static_cast<unsigned long long>(wide.events));
  std::printf("  %-30s", "events per shard");
  for (const std::uint64_t e : wide.events_per_shard) {
    std::printf(" %llu", static_cast<unsigned long long>(e));
  }
  std::printf("\n  %-30s %llu sync rounds, %llu mailbox sends\n",
              "coordinator",
              static_cast<unsigned long long>(wide.sync_rounds),
              static_cast<unsigned long long>(wide.mailbox_sends));

  bench::JsonWriter("scale_fanout_sharded")
      .Field("shards", static_cast<std::uint64_t>(p.shards))
      .Field("wall_speedup_vs_1shard", speedup)
      .Field("rounds", wide.rounds)
      .Field("verbs", wide.verbs)
      .Field("events", wide.events)
      .Field("sync_rounds", wide.sync_rounds)
      .Field("mailbox_sends", wide.mailbox_sends)
      .Emit();

  // Self-checks: the simulated outcome must be flat across shard counts
  // (no cross-shard edges -> identical per-domain schedules), the chains
  // must have cycled, and loopback-only placement must send no mail.
  bool ok = true;
  if (base.rounds != wide.rounds || base.verbs != wide.verbs ||
      base.events != wide.events) {
    std::fprintf(stderr,
                 "FAIL: simulated results moved with shard count "
                 "(rounds %llu/%llu, verbs %llu/%llu, events %llu/%llu)\n",
                 static_cast<unsigned long long>(base.rounds),
                 static_cast<unsigned long long>(wide.rounds),
                 static_cast<unsigned long long>(base.verbs),
                 static_cast<unsigned long long>(wide.verbs),
                 static_cast<unsigned long long>(base.events),
                 static_cast<unsigned long long>(wide.events));
    ok = false;
  }
  const std::uint64_t min_rounds =
      static_cast<std::uint64_t>(p.tenants) * p.chains_per_tenant * 2;
  if (wide.rounds < min_rounds) {
    std::fprintf(stderr, "FAIL: chains stalled (%llu rounds < %llu)\n",
                 static_cast<unsigned long long>(wide.rounds),
                 static_cast<unsigned long long>(min_rounds));
    ok = false;
  }
  if (wide.mailbox_sends != 0) {
    std::fprintf(stderr, "FAIL: loopback workload sent cross-shard mail\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i < argc; ++i) {
    auto val = [&]() -> double { return i + 1 < argc ? std::atof(argv[++i]) : 0; };
    if (std::strcmp(argv[i], "--quick") == 0) {
      p.duration = sim::Millis(300);
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      p.tenants = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--chains") == 0) {
      p.chains_per_tenant = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      p.bg_rate = val();
    } else if (std::strcmp(argv[i], "--ms") == 0) {
      p.duration = sim::Millis(val());
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      p.shards = static_cast<int>(val());
    }
  }
  if (p.shards >= 1) return MainSharded(p);

  bench::Title("Multi-tenant WAIT/ENABLE fan-out scale bench",
               "completion-path scaling; §3.4 recycling + §3.5 isolation");
  std::printf("  %d tenants x %d chain queues, background rate %.0f CQE/s, "
              "%.0f ms simulated\n",
              p.tenants, p.chains_per_tenant, p.bg_rate,
              sim::ToMicros(p.duration) / 1e3);

  sim::Simulator sim;
  rnic::RnicDevice dev(sim, rnic::NicConfig::ConnectX5(), {}, "srv");

  struct Tenant {
    std::unique_ptr<std::byte[]> heap;
    TenantBg bg;
    std::vector<rnic::QueuePair*> chains;
  };
  std::vector<Tenant> tenants(p.tenants);
  constexpr std::size_t kHeapBytes = 4096;

  for (Tenant& t : tenants) {
    t.heap = std::make_unique<std::byte[]>(kHeapBytes);
    std::memset(t.heap.get(), 0, kHeapBytes);
    const rnic::MemoryRegion heap_mr =
        dev.pd().Register(t.heap.get(), kHeapBytes, rnic::kAccessAll);

    rnic::QpConfig bgc;
    bgc.sq_depth = 256;
    bgc.send_cq = dev.CreateCq();
    bgc.recv_cq = dev.CreateCq();
    bgc.rate_ops_per_sec = p.bg_rate;
    rnic::QueuePair* bg_qp = dev.CreateQp(bgc);
    rnic::ConnectSelf(bg_qp);

    t.bg = TenantBg{&sim,
                    bg_qp,
                    heap_mr.addr,
                    heap_mr.lkey,
                    heap_mr.rkey,
                    static_cast<sim::Nanos>(1e9 * p.bg_batch / p.bg_rate),
                    p.duration,
                    p.bg_batch};

    for (int c = 0; c < p.chains_per_tenant; ++c) {
      rnic::QpConfig cc;
      cc.sq_depth = kRing;
      cc.managed = true;
      cc.send_cq = dev.CreateCq();
      cc.recv_cq = dev.CreateCq();
      rnic::QueuePair* chain = dev.CreateQp(cc);
      rnic::ConnectSelf(chain);
      BuildChain(dev, chain, bg_qp->send_cq, heap_mr.addr, heap_mr.lkey,
                 heap_mr.rkey);
      t.chains.push_back(chain);
    }
  }
  for (Tenant& t : tenants) t.bg.PostBatch();

  const auto t0 = std::chrono::steady_clock::now();
  sim.RunUntil(p.duration);
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double sim_secs = sim::ToSeconds(p.duration);
  const std::uint64_t verbs = dev.counters().TotalExecuted();
  std::uint64_t rounds = 0;
  for (const Tenant& t : tenants) {
    for (const rnic::QueuePair* chain : t.chains) {
      rounds += chain->send_cq->hw_count() / 4;
    }
  }
  const double events_per_sec =
      static_cast<double>(sim.events_processed()) / wall_secs;
  const double verbs_per_sec = static_cast<double>(verbs) / sim_secs;
  const std::uint64_t slab_total = sim.slab_hits() + sim.heap_fallbacks();
  const double slab_rate =
      slab_total == 0
          ? 1.0
          : static_cast<double>(sim.slab_hits()) / static_cast<double>(slab_total);
  const auto& pool = dev.payload_pool();
  const double reuse_rate =
      pool.acquires() == 0
          ? 1.0
          : static_cast<double>(pool.reuses()) /
                static_cast<double>(pool.acquires());

  bench::Section("results");
  std::printf("  %-30s %12.0f events/s wall\n", "event rate", events_per_sec);
  std::printf("  %-30s %12.0f verbs/s simulated\n", "verb rate", verbs_per_sec);
  std::printf("  %-30s %12llu chain rounds, %llu verbs, %llu events\n",
              "volume", static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(verbs),
              static_cast<unsigned long long>(sim.events_processed()));
  std::printf("  %-30s slab-hit %5.2f%%  payload-reuse %5.2f%%\n", "allocation",
              100.0 * slab_rate, 100.0 * reuse_rate);
  const double wqe_hit_rate = dev.counters().WqeCacheHitRate();
  std::printf("  %-30s hit %5.2f%%  (%llu hits, %llu misses)\n",
              "decoded-wqe cache", 100.0 * wqe_hit_rate,
              static_cast<unsigned long long>(dev.counters().wqe_cache_hits),
              static_cast<unsigned long long>(dev.counters().wqe_cache_misses));

  bench::JsonWriter("scale_fanout")
      .Field("events_per_sec", events_per_sec)
      .Field("verbs_per_sec", verbs_per_sec)
      .Field("rounds", rounds)
      .Field("events", sim.events_processed())
      .Field("slab_hit_rate", slab_rate)
      .Field("heap_fallbacks", sim.heap_fallbacks())
      .Field("payload_reuse_rate", reuse_rate)
      .Field("wqe_cache_hit_rate", wqe_hit_rate)
      .Emit();

  // Self-check: every chain must actually have cycled (the recycling ADDs
  // kept the thresholds moving) and allocation-free steady state must hold.
  const std::uint64_t min_rounds =
      static_cast<std::uint64_t>(p.tenants) * p.chains_per_tenant * 2;
  if (rounds < min_rounds) {
    std::fprintf(stderr, "FAIL: chains stalled (%llu rounds < %llu)\n",
                 static_cast<unsigned long long>(rounds),
                 static_cast<unsigned long long>(min_rounds));
    return 1;
  }
  return 0;
}
