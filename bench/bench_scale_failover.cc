// Sharded KV failover bench: offloaded chain-replication detour vs host
// re-issue, same seed, same FaultPlan.
//
// Topology: M shard NICs + N tenant NICs on one switch fabric, keys placed
// by consistent hashing onto a primary and its chain successor, tenants
// drawing Zipfian keys in depth-1 closed loops over the packetized
// reliability transport. Mid-run a scripted FaultPlan kills one shard.
//
// The A/B isolates the failover mechanism with everything else identical:
//   offload  — each (tenant, shard) pre-installs a client-NIC WAIT/ENABLE
//              chain (offloads::ClientFailoverChain). The failure CQE from
//              the dead primary releases a parked, pre-built get against
//              the backup with zero host instructions in the blip.
//   host     — no chain; a conservative application RPC timer (16x base
//              RTO) notices the stuck get and the CPU re-issues it.
// Both must answer every get; the difference is the tail. The blip metric
// is the longest gap between consecutive completions any tenant saw — the
// per-tenant outage_seconds analogue.
//
// All reported numbers are pure simulated time. The bench re-runs the
// offload configuration and fails if any simulated field differs (tenant
// key draws, transport arbitration, and the fault script all come from
// seeded state in event order, so a config must replay bit-identically).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "report.h"
#include "workload/kv_service.h"

using namespace redn;

int main(int argc, char** argv) {
  int shards = 4;
  int tenants = 4;
  int gets = 150;
  int keys = 100'000;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    auto val = [&]() -> double { return i + 1 < argc ? std::atof(argv[++i]) : 0; };
    if (std::strcmp(argv[i], "--quick") == 0) {
      gets = 60;
      keys = 20'000;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      tenants = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--gets") == 0) {
      gets = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--keys") == 0) {
      keys = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<std::uint64_t>(val());
    }
  }

  bench::Title("Sharded KV offloaded chain-replication failover",
               "fig16's hostless resiliency applied to the client NIC");
  std::printf("  %d shards, %d tenants, %d gets/tenant, %d-key space, "
              "zipf 0.99, seed %llu\n", shards, tenants, gets, keys,
              static_cast<unsigned long long>(seed));
  std::printf("  FaultPlan: crash shard 1 at t=60us (dead-peer NAKs, no "
              "heal)\n");

  auto run = [&](workload::FailoverPolicy policy) {
    workload::KvServiceConfig cfg;
    cfg.shards = shards;
    cfg.tenants = tenants;
    cfg.gets_per_tenant = gets;
    cfg.keys = keys;
    cfg.seed = seed;
    cfg.policy = policy;
    workload::FaultEntry crash;
    crash.server = 1;
    crash.kind = workload::FaultKind::kCrash;
    crash.down_at = 60'000;
    cfg.faults.entries.push_back(crash);
    return workload::RunKvService(cfg);
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto off = run(workload::FailoverPolicy::kOffloadChain);
  const auto host = run(workload::FailoverPolicy::kHostReissue);
  const auto again = run(workload::FailoverPolicy::kOffloadChain);
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  bench::Section("kill-a-shard A/B (same seed, same FaultPlan)");
  std::printf("  %8s %8s %6s %9s %9s %9s %9s %11s %9s\n", "policy", "gets",
              "unans", "p50 us", "p99 us", "p999 us", "blip us", "detours",
              "reissues");
  auto row = [&](const char* name, const workload::KvServiceResult& r) {
    std::printf("  %8s %8llu %6llu %9.2f %9.2f %9.2f %9.1f %11llu %9llu\n",
                name, static_cast<unsigned long long>(r.gets),
                static_cast<unsigned long long>(r.unanswered), r.p50_us,
                r.p99_us, r.p999_us, r.max_blip_us,
                static_cast<unsigned long long>(r.detour_responses),
                static_cast<unsigned long long>(r.host_reissues));
  };
  row("offload", off);
  row("host", host);

  bench::Section("per-tenant tails (offload policy)");
  std::printf("  %7s %8s %9s %9s %9s %9s %9s\n", "tenant", "gets", "p50 us",
              "p99 us", "p999 us", "blip us", "detours");
  for (std::size_t t = 0; t < off.tenants.size(); ++t) {
    const auto& ts = off.tenants[t];
    std::printf("  %7zu %8llu %9.2f %9.2f %9.2f %9.1f %9llu\n", t,
                static_cast<unsigned long long>(ts.gets), ts.p50_us,
                ts.p99_us, ts.p999_us, ts.max_blip_us,
                static_cast<unsigned long long>(ts.detour_responses));
  }

  const double blip_ratio =
      off.max_blip_us > 0 ? host.max_blip_us / off.max_blip_us : 0;
  bench::Section("failover delta");
  std::printf("  offload blip %.1f us vs host stall %.1f us (%.1fx): the\n"
              "  detour fires on the failure CQE; the host waits out its\n"
              "  multi-RTO timer first\n",
              off.max_blip_us, host.max_blip_us, blip_ratio);

  const bool stable = again == off;

  const double events_per_sec =
      static_cast<double>(off.events + host.events + again.events) / wall_secs;
  bench::JsonWriter("scale_failover")
      .Field("shards", static_cast<std::uint64_t>(shards))
      .Field("tenants", static_cast<std::uint64_t>(tenants))
      .Field("gets", off.gets)
      .Field("unanswered", off.unanswered)
      .Field("host_unanswered", host.unanswered)
      .Field("keys_visible", off.keys_visible)
      .Field("p50_us", off.p50_us)
      .Field("p99_us", off.p99_us)
      .Field("p999_us", off.p999_us)
      .Field("host_p999_us", host.p999_us)
      .Field("blip_us", off.max_blip_us)
      .Field("host_blip_us", host.max_blip_us)
      .Field("blip_ratio", blip_ratio)
      .Field("detour_responses", off.detour_responses)
      .Field("reroutes", off.reroutes)
      .Field("host_reissues", host.host_reissues)
      .Field("qp_errors", off.qp_errors)
      .Field("deterministic", static_cast<std::uint64_t>(stable ? 1 : 0))
      .Field("events_per_sec", events_per_sec)
      .Emit();

  // Self-checks: both policies answer every get, the offloaded detour
  // actually fired, and its blip beats the host stall outright.
  bool ok = true;
  const std::uint64_t expect =
      static_cast<std::uint64_t>(gets) * static_cast<std::uint64_t>(tenants);
  if (off.gets != expect || off.unanswered != 0) {
    std::fprintf(stderr, "FAIL: offload policy left gets unserved "
                 "(%llu/%llu)\n",
                 static_cast<unsigned long long>(off.gets),
                 static_cast<unsigned long long>(expect));
    ok = false;
  }
  if (host.gets != expect || host.unanswered != 0) {
    std::fprintf(stderr, "FAIL: host policy left gets unserved (%llu/%llu)\n",
                 static_cast<unsigned long long>(host.gets),
                 static_cast<unsigned long long>(expect));
    ok = false;
  }
  if (off.detour_responses == 0) {
    std::fprintf(stderr, "FAIL: the failover chain never fired\n");
    ok = false;
  }
  if (off.max_blip_us >= host.max_blip_us || off.p999_us >= host.p999_us) {
    std::fprintf(stderr, "FAIL: offloaded failover did not beat the host "
                 "baseline (blip %.1f vs %.1f us, p999 %.1f vs %.1f us)\n",
                 off.max_blip_us, host.max_blip_us, off.p999_us,
                 host.p999_us);
    ok = false;
  }
  if (!stable) {
    std::fprintf(stderr, "FAIL: same-seed rerun diverged\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
