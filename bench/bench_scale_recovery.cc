// Sharded KV recovery bench: chain-ordered writes through crash, re-join,
// and anti-entropy re-sync.
//
// Topology: the bench_scale_failover testbed (M shard NICs + N tenant NICs,
// consistent-hash primary + chain successor, Zipfian closed loops over the
// packetized transport), now with a YCSB-style put mix. A put travels
// tenant -> primary -> successor: the primary applies, RDMA-WRITEs the
// whole versioned value to the successor, and acks only after that
// propagation completes — every ack names the replicas that durably hold
// the write.
//
// Mid-run a scripted FaultPlan crashes one shard and heals it: the revived
// shard re-joins with an empty store and an anti-entropy ResyncSession
// streams its key range back from its chain peers via RDMA READs with
// version-tag reconciliation, while writes forwarded to it dual-apply. A
// later `slow` window on another shard adds gray-failure latency with no
// loss. The headline numbers: the degraded window (down -> serving again,
// including the transfer), write tails across the fault, and the
// end-of-run audits — zero acknowledged writes lost, zero read-your-writes
// violations, zero replica divergence.
//
// All reported numbers are pure simulated time. The bench re-runs the
// configuration and fails if any simulated field differs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "report.h"
#include "workload/kv_service.h"

using namespace redn;

int main(int argc, char** argv) {
  int shards = 4;
  int tenants = 4;
  int ops = 400;
  int keys = 100'000;
  double put_fraction = 0.3;
  std::uint64_t seed = 1;
  int sim_shards = 1;  // --sim-shards: event domains (--shards = KV shards)
  for (int i = 1; i < argc; ++i) {
    auto val = [&]() -> double { return i + 1 < argc ? std::atof(argv[++i]) : 0; };
    if (std::strcmp(argv[i], "--quick") == 0) {
      ops = 200;
      keys = 20'000;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      tenants = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      ops = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--keys") == 0) {
      keys = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--put") == 0) {
      put_fraction = val();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<std::uint64_t>(val());
    } else if (std::strcmp(argv[i], "--sim-shards") == 0) {
      sim_shards = static_cast<int>(val());
    }
  }

  constexpr sim::Nanos kCrashAt = 60'000;
  const sim::Nanos rejoin_at = sim::Millis(1);
  const sim::Nanos slow_from = rejoin_at + 500'000;
  const sim::Nanos slow_to = slow_from + 500'000;

  bench::Title("Sharded KV crash + re-join + anti-entropy re-sync",
               "chain-ordered writes surviving the full fault lifecycle");
  std::printf("  %d shards, %d tenants, %d ops/tenant (%.0f%% puts), "
              "%d-key space, zipf 0.99, seed %llu\n", shards, tenants, ops,
              100.0 * put_fraction, keys,
              static_cast<unsigned long long>(seed));
  std::printf("  FaultPlan: crash shard 1 at t=60us, re-join at t=1ms "
              "(wipe + resync); slow +30us on shard 2 [1.5ms, 2ms)\n");

  auto run = [&]() {
    workload::KvServiceConfig cfg;
    cfg.shards = shards;
    cfg.tenants = tenants;
    cfg.gets_per_tenant = ops;
    cfg.keys = keys;
    cfg.seed = seed;
    cfg.put_fraction = put_fraction;
    workload::FaultEntry crash;
    crash.server = 1;
    crash.kind = workload::FaultKind::kCrash;
    crash.down_at = kCrashAt;
    crash.up_at = rejoin_at;
    cfg.faults.entries.push_back(crash);
    workload::FaultEntry slow;
    slow.server = 2;
    slow.kind = workload::FaultKind::kSlow;
    slow.down_at = slow_from;
    slow.up_at = slow_to;
    slow.slow_ns = 30'000;
    cfg.faults.entries.push_back(slow);
    return workload::RunKvService(cfg);
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = run();
  const auto again = run();
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  bench::Section("mixed workload through the fault");
  std::printf("  %8s %8s %6s %9s %9s %12s %9s %9s\n", "ops", "gets", "puts",
              "p99 us", "p999 us", "put p99 us", "degraded", "retries");
  std::printf("  %8llu %8llu %6llu %9.2f %9.2f %12.2f %9llu %9llu\n",
              static_cast<unsigned long long>(r.gets + r.puts),
              static_cast<unsigned long long>(r.gets),
              static_cast<unsigned long long>(r.puts), r.p99_us, r.p999_us,
              r.put_p99_us,
              static_cast<unsigned long long>(r.degraded_acks),
              static_cast<unsigned long long>(r.put_retries));

  bench::Section("re-join + anti-entropy");
  std::printf("  rejoins %llu, sessions %llu: %llu keys scanned, %llu "
              "adopted, %llu kept local (dual-apply), %llu bytes read\n",
              static_cast<unsigned long long>(r.rejoins),
              static_cast<unsigned long long>(r.resyncs_started),
              static_cast<unsigned long long>(r.resync_keys_scanned),
              static_cast<unsigned long long>(r.resync_keys_applied),
              static_cast<unsigned long long>(r.resync_keys_kept),
              static_cast<unsigned long long>(r.resync_bytes));
  std::printf("  degraded window %.1f us (crash -> serving again; raw "
              "outage was %.1f us)\n", r.degraded_window_us,
              sim::ToMicros(rejoin_at - kCrashAt));

  bench::Section("end-of-run audits");
  std::printf("  lost acked writes %llu, read-your-writes violations %llu, "
              "replica divergence %llu\n",
              static_cast<unsigned long long>(r.lost_acked_writes),
              static_cast<unsigned long long>(r.ryw_violations),
              static_cast<unsigned long long>(r.value_divergence));

  const bool stable =
      again.gets == r.gets && again.puts == r.puts &&
      again.acked_puts_full == r.acked_puts_full &&
      again.degraded_acks == r.degraded_acks &&
      again.chain_forwards == r.chain_forwards &&
      again.resync_keys_applied == r.resync_keys_applied &&
      again.resync_keys_kept == r.resync_keys_kept &&
      again.degraded_window_us == r.degraded_window_us &&
      again.p99_us == r.p99_us && again.p999_us == r.p999_us &&
      again.put_p999_us == r.put_p999_us &&
      again.data_packets == r.data_packets &&
      again.retransmits == r.retransmits && again.events == r.events;

  // --- sharded engine (--sim-shards N): the same fault lifecycle with the
  // tenant NICs spread across event domains (the KV shard NICs and the
  // transport stay on domain 0), wall-clock A/B against the single-domain
  // run. Gated on the flag so the default run stays byte-identical.
  double wall_speedup = 0;
  bool sharded_ok = true;
  std::uint64_t sharded_stable = 0;
  if (sim_shards > 1) {
    bench::Section("sharded engine: wall-clock, 1 domain vs N");
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < static_cast<unsigned>(sim_shards)) {
      std::printf("  SKIP note: only %u cores for %d sim shards — speedup "
                  "numbers will understate the engine\n", cores, sim_shards);
    }
    auto spread_run = [&](int n) {
      workload::KvServiceConfig cfg;
      cfg.shards = shards;
      cfg.tenants = tenants;
      cfg.gets_per_tenant = ops;
      cfg.keys = keys;
      cfg.seed = seed;
      cfg.put_fraction = put_fraction;
      workload::FaultEntry crash;
      crash.server = 1;
      crash.kind = workload::FaultKind::kCrash;
      crash.down_at = kCrashAt;
      crash.up_at = rejoin_at;
      cfg.faults.entries.push_back(crash);
      workload::FaultEntry slow;
      slow.server = 2;
      slow.kind = workload::FaultKind::kSlow;
      slow.down_at = slow_from;
      slow.up_at = slow_to;
      slow.slow_ns = 30'000;
      cfg.faults.entries.push_back(slow);
      cfg.sim_shards = n;
      if (n > 1) {
        // Tenants off the service shard: their flows cross the mailbox.
        cfg.placement.resize(static_cast<std::size_t>(tenants));
        for (int t = 0; t < tenants; ++t) {
          cfg.placement[static_cast<std::size_t>(t)] = 1 + t % (n - 1);
        }
      }
      return workload::RunKvService(cfg);
    };
    auto timed = [&](int n, workload::KvServiceResult* out) {
      double best = 1e30;
      for (int rep = 0; rep < 2; ++rep) {
        const auto w0 = std::chrono::steady_clock::now();
        *out = spread_run(n);
        const double w = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - w0).count();
        if (w < best) best = w;
      }
      return best;
    };
    workload::KvServiceResult one, many, many2;
    const double wall_one = timed(1, &one);
    const double wall_many = timed(sim_shards, &many);
    timed(sim_shards, &many2);
    wall_speedup = wall_one / wall_many;
    sharded_stable =
        (many.gets == many2.gets && many.puts == many2.puts &&
         many.p99_us == many2.p99_us && many.put_p99_us == many2.put_p99_us &&
         many.data_packets == many2.data_packets &&
         many.degraded_window_us == many2.degraded_window_us &&
         many.events == many2.events)
            ? 1
            : 0;
    std::printf("  %d tenants x %d ops through crash+resync: %.3f s on 1 "
                "domain, %.3f s on %d — wall_speedup x%.2f\n", tenants, ops,
                wall_one, wall_many, sim_shards, wall_speedup);
    std::printf("  spread run: %llu gets + %llu puts, %llu unanswered, "
                "audits %llu/%llu/%llu, %s\n",
                static_cast<unsigned long long>(many.gets),
                static_cast<unsigned long long>(many.puts),
                static_cast<unsigned long long>(many.unanswered),
                static_cast<unsigned long long>(many.lost_acked_writes),
                static_cast<unsigned long long>(many.ryw_violations),
                static_cast<unsigned long long>(many.value_divergence),
                sharded_stable ? "rerun bit-stable" : "RERUN DIVERGED");
    const std::uint64_t sharded_expect = static_cast<std::uint64_t>(ops) *
                                         static_cast<std::uint64_t>(tenants);
    if (many.gets + many.puts != sharded_expect || many.unanswered != 0) {
      std::fprintf(stderr, "FAIL: spread run left ops unserved\n");
      sharded_ok = false;
    }
    if (many.lost_acked_writes != 0 || many.ryw_violations != 0 ||
        many.value_divergence != 0) {
      std::fprintf(stderr, "FAIL: spread run breached a write invariant\n");
      sharded_ok = false;
    }
    if (sharded_stable == 0) {
      std::fprintf(stderr, "FAIL: spread same-seed rerun diverged\n");
      sharded_ok = false;
    }
  }

  const double events_per_sec =
      static_cast<double>(r.events + again.events) / wall_secs;
  bench::JsonWriter json("scale_recovery");
  json.Field("shards", static_cast<std::uint64_t>(shards))
      .Field("tenants", static_cast<std::uint64_t>(tenants))
      .Field("gets", r.gets)
      .Field("puts", r.puts)
      .Field("unanswered", r.unanswered)
      .Field("acked_puts_full", r.acked_puts_full)
      .Field("degraded_acks", r.degraded_acks)
      .Field("chain_forwards", r.chain_forwards)
      .Field("put_retries", r.put_retries)
      .Field("p99_us", r.p99_us)
      .Field("p999_us", r.p999_us)
      .Field("put_p99_us", r.put_p99_us)
      .Field("put_p999_us", r.put_p999_us)
      .Field("rejoins", r.rejoins)
      .Field("resyncs", r.resyncs_started)
      .Field("resync_keys_applied", r.resync_keys_applied)
      .Field("resync_keys_kept", r.resync_keys_kept)
      .Field("resync_bytes", r.resync_bytes)
      .Field("resync_failures", r.resync_failures)
      .Field("degraded_window_us", r.degraded_window_us)
      .Field("lost_acked_writes", r.lost_acked_writes)
      .Field("ryw_violations", r.ryw_violations)
      .Field("value_divergence", r.value_divergence)
      .Field("deterministic", static_cast<std::uint64_t>(stable ? 1 : 0))
      .Field("events_per_sec", events_per_sec);
  if (sim_shards > 1) {
    json.Field("sim_shards", static_cast<std::uint64_t>(sim_shards))
        .Field("wall_speedup", wall_speedup)
        .Field("sharded_deterministic", sharded_stable);
  }
  json.Emit();

  // Self-checks: the fault lifecycle actually ran, every op completed,
  // and the invariants the subsystem exists for all held.
  bool ok = true;
  const std::uint64_t expect =
      static_cast<std::uint64_t>(ops) * static_cast<std::uint64_t>(tenants);
  if (r.gets + r.puts != expect || r.unanswered != 0) {
    std::fprintf(stderr, "FAIL: ops unserved (%llu/%llu, %llu unanswered)\n",
                 static_cast<unsigned long long>(r.gets + r.puts),
                 static_cast<unsigned long long>(expect),
                 static_cast<unsigned long long>(r.unanswered));
    ok = false;
  }
  if (r.puts == 0 || r.acked_puts_full == 0) {
    std::fprintf(stderr, "FAIL: the write path never acked a put\n");
    ok = false;
  }
  if (r.rejoins != 1 || r.resyncs_started == 0 ||
      r.resync_keys_scanned == 0) {
    std::fprintf(stderr, "FAIL: the crash never re-joined/re-synced "
                 "(rejoins %llu, sessions %llu)\n",
                 static_cast<unsigned long long>(r.rejoins),
                 static_cast<unsigned long long>(r.resyncs_started));
    ok = false;
  }
  if (r.resync_failures != 0) {
    std::fprintf(stderr, "FAIL: %llu resync sessions died mid-transfer\n",
                 static_cast<unsigned long long>(r.resync_failures));
    ok = false;
  }
  if (r.lost_acked_writes != 0 || r.ryw_violations != 0 ||
      r.value_divergence != 0) {
    std::fprintf(stderr, "FAIL: invariant breach (lost %llu, ryw %llu, "
                 "divergence %llu)\n",
                 static_cast<unsigned long long>(r.lost_acked_writes),
                 static_cast<unsigned long long>(r.ryw_violations),
                 static_cast<unsigned long long>(r.value_divergence));
    ok = false;
  }
  if (r.degraded_window_us < sim::ToMicros(rejoin_at - kCrashAt)) {
    std::fprintf(stderr, "FAIL: degraded window %.1f us shorter than the "
                 "outage itself\n", r.degraded_window_us);
    ok = false;
  }
  if (!stable) {
    std::fprintf(stderr, "FAIL: same-seed rerun diverged\n");
    ok = false;
  }
  if (!sharded_ok) ok = false;
  return ok ? 0 : 1;
}
