// Shared-fabric scale-out bench: N clients x RedN NIC-served gets through
// one congested server port.
//
// Every client NIC attaches to a switch fabric with its own link; the
// server's single link carries every trigger in (RX) and every offloaded
// WRITE_IMM response out (TX). As N grows, aggregate throughput stops
// scaling at the server link's line rate and per-get latency inflates with
// queueing — the contention behaviour the per-QP constant-latency model
// cannot express (private wires never queue).
//
// All per-N results are pure simulated time and must be bit-stable across
// runs and seeds of the same value: the bench re-runs the widest
// configuration and fails if any simulated field differs. Only the
// wall-clock events/s line (the CI floor) varies run to run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "report.h"
#include "workload/experiments.h"

using namespace redn;

int main(int argc, char** argv) {
  int gets = 200;
  int max_clients = 8;
  std::uint32_t value_len = 16384;
  int shards = 0;  // >= 2 appends the sharded-engine section
  for (int i = 1; i < argc; ++i) {
    auto val = [&]() -> double { return i + 1 < argc ? std::atof(argv[++i]) : 0; };
    if (std::strcmp(argv[i], "--quick") == 0) {
      gets = 100;
    } else if (std::strcmp(argv[i], "--gets") == 0) {
      gets = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      max_clients = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--value") == 0) {
      value_len = static_cast<std::uint32_t>(val());
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<int>(val());
    }
  }

  bench::Title("Shared-fabric N-client scale-out",
               "scale-out of §5.2 NIC-served gets; shared-link contention");
  std::printf("  %u B values, %d gets/client, server link 25 Gbps shared by "
              "all clients\n", value_len, gets);

  auto run = [&](int clients) {
    workload::FabricScaleConfig cfg;
    cfg.clients = clients;
    cfg.gets_per_client = gets;
    cfg.value_len = value_len;
    return workload::RunFabricScale(cfg);
  };

  bench::Section("scaling (simulated, deterministic)");
  std::printf("  %8s %12s %12s %10s %10s %8s %8s\n", "clients", "gets",
              "kgets/s", "avg us", "p99 us", "tx util", "rx util");
  std::vector<workload::FabricScaleResult> results;
  std::uint64_t total_events = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int n = 1; n <= max_clients; n *= 2) {
    const auto r = run(n);
    results.push_back(r);
    total_events += r.events;
    std::printf("  %8d %12llu %12.1f %10.2f %10.2f %7.1f%% %7.1f%%\n", n,
                static_cast<unsigned long long>(r.gets), r.gets_per_sec / 1e3,
                r.avg_us, r.p99_us, 100.0 * r.server_tx_util,
                100.0 * r.server_rx_util);
  }
  // Seed-stability: the same config must reproduce every simulated field
  // exactly (the fabric layer must not introduce nondeterminism).
  const auto again = run(max_clients);
  total_events += again.events;
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& widest = results.back();
  const bool stable = again == widest;

  const auto& one = results.front();
  const double speedup = widest.gets_per_sec / one.gets_per_sec;
  bench::Section("contention");
  std::printf("  %d-client aggregate is %.2fx one client (ideal %.0fx); the "
              "shared server link is the ceiling\n", max_clients, speedup,
              static_cast<double>(max_clients));

  const double events_per_sec = static_cast<double>(total_events) / wall_secs;
  bench::JsonWriter("scale_netfabric")
      .Field("clients", static_cast<std::uint64_t>(max_clients))
      .Field("gets", widest.gets)
      .Field("gets_per_sec", widest.gets_per_sec)
      .Field("avg_us", widest.avg_us)
      .Field("p99_us", widest.p99_us)
      .Field("server_tx_util", widest.server_tx_util)
      .Field("scaling_vs_one", speedup)
      .Field("deterministic", static_cast<std::uint64_t>(stable ? 1 : 0))
      .Field("events_per_sec", events_per_sec)
      .Emit();

  // Self-checks: every get answered, a bit-stable rerun, and genuine
  // contention (the N-client run must saturate the shared link while a lone
  // client cannot).
  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::uint64_t expect =
        static_cast<std::uint64_t>(gets) * (1ull << i);
    if (results[i].gets != expect) {
      std::fprintf(stderr, "FAIL: lost responses (%llu != %llu)\n",
                   static_cast<unsigned long long>(results[i].gets),
                   static_cast<unsigned long long>(expect));
      ok = false;
    }
  }
  if (!stable) {
    std::fprintf(stderr, "FAIL: rerun diverged (nondeterministic fabric)\n");
    ok = false;
  }
  // --- sharded engine: real cross-shard mailbox traffic --------------------
  // Unlike the loopback fanout bench, every trigger and response here
  // crosses the client<->server shard boundary, so this section exercises
  // the conservative sync end to end: lookahead windows, mailbox merges,
  // and rerun determinism under real threads. Simulated results are not
  // compared against the single-domain run — same-instant RX reservations
  // can legally merge in a different order (docs/PARSIM.md) — but the
  // sharded run must reproduce itself bit for bit.
  if (shards >= 2) {
    workload::FabricScaleConfig scfg;
    scfg.clients = max_clients;
    scfg.gets_per_client = gets;
    scfg.value_len = value_len;
    scfg.shards = shards;

    const auto tb = std::chrono::steady_clock::now();
    const auto base = run(max_clients);  // one event domain
    const double wall_1shard =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - tb)
            .count();
    const auto ts = std::chrono::steady_clock::now();
    const auto s1 = workload::RunFabricScale(scfg);
    const double wall_sharded =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - ts)
            .count();
    const auto s2 = workload::RunFabricScale(scfg);
    const double wall_speedup =
        wall_sharded > 0 ? wall_1shard / wall_sharded : 0.0;

    bench::Section("sharded engine");
    std::printf("  %8s %12s %12s %10s %10s %10s\n", "shards", "gets",
                "kgets/s", "avg us", "mailbox", "rounds");
    std::printf("  %8d %12llu %12.1f %10.2f %10llu %10llu\n", shards,
                static_cast<unsigned long long>(s1.gets),
                s1.gets_per_sec / 1e3, s1.avg_us,
                static_cast<unsigned long long>(s1.mailbox_sends),
                static_cast<unsigned long long>(s1.sync_rounds));
    std::printf("  wall %.3f s single-domain vs %.3f s sharded -> %.2fx\n",
                wall_1shard, wall_sharded, wall_speedup);

    const bool sharded_stable = s1 == s2;

    bench::JsonWriter("scale_netfabric_sharded")
        .Field("shards", static_cast<std::uint64_t>(shards))
        .Field("gets", s1.gets)
        .Field("gets_per_sec", s1.gets_per_sec)
        .Field("avg_us", s1.avg_us)
        .Field("mailbox_sends", s1.mailbox_sends)
        .Field("sync_rounds", s1.sync_rounds)
        .Field("wall_speedup_vs_1shard", wall_speedup)
        .Field("deterministic",
               static_cast<std::uint64_t>(sharded_stable ? 1 : 0))
        .Emit();

    if (s1.gets != static_cast<std::uint64_t>(gets) * max_clients) {
      std::fprintf(stderr, "FAIL: sharded run lost responses (%llu)\n",
                   static_cast<unsigned long long>(s1.gets));
      ok = false;
    }
    if (!sharded_stable) {
      std::fprintf(stderr,
                   "FAIL: sharded rerun diverged (determinism broken)\n");
      ok = false;
    }
    if (s1.mailbox_sends == 0) {
      std::fprintf(stderr,
                   "FAIL: no cross-shard traffic — placement inert?\n");
      ok = false;
    }
    if (base.gets != s1.gets) {
      std::fprintf(stderr, "FAIL: sharded run served a different demand\n");
      ok = false;
    }
  }

  if (max_clients >= 8) {
    if (widest.server_tx_util < 0.5) {
      std::fprintf(stderr, "FAIL: server link not contended (tx util %.2f)\n",
                   widest.server_tx_util);
      ok = false;
    }
    if (speedup > 0.9 * max_clients) {
      std::fprintf(stderr,
                   "FAIL: near-ideal scaling (%.2fx) — link sharing inert?\n",
                   speedup);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
