// Lossy packetized-transport scale bench: N clients x RedN NIC-served gets
// through one congested server port, with per-link packet loss and
// loss recovery in both transport modes.
//
// Same topology as bench_scale_netfabric, but every client<->server QP
// rides sim::Transport: trigger SENDs and the offloaded WRITE_IMM responses
// segment into MTU packets, links eat packets with the configured
// probability, and the connection recovers via NAK rewinds and RTOs. The
// sweep raises the loss rate and watches goodput collapse and tail latency
// inflate — the wire-level failure behaviour the lossless fabric cannot
// express. Each loss rate runs twice with the same seed: once under
// go-back-N and once under selective repeat, so the A/B isolates the
// recovery strategy (SACK-targeted resends vs window rewinds) with an
// identical loss pattern at the first divergence point.
//
// All per-loss results are pure simulated time: the bench re-runs the
// lossiest configuration and fails if any simulated field differs (each
// transport flow draws its losses from its own seeded streams, so a given
// config must replay bit-identically). Only the wall-clock events/s line
// (the CI floor) varies run to run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "report.h"
#include "workload/experiments.h"

using namespace redn;

int main(int argc, char** argv) {
  int gets = 150;
  int clients = 4;
  std::uint32_t value_len = 65536;
  int sim_shards = 1;
  for (int i = 1; i < argc; ++i) {
    auto val = [&]() -> double { return i + 1 < argc ? std::atof(argv[++i]) : 0; };
    if (std::strcmp(argv[i], "--quick") == 0) {
      gets = 60;
    } else if (std::strcmp(argv[i], "--gets") == 0) {
      gets = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      clients = static_cast<int>(val());
    } else if (std::strcmp(argv[i], "--value") == 0) {
      value_len = static_cast<std::uint32_t>(val());
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      sim_shards = static_cast<int>(val());
    }
  }

  bench::Title("Lossy-transport N-client scale-out",
               "wire-level resilience in the spirit of fig16; GBN vs SR");
  std::printf("  %d clients, %u B values, %d gets/client, packetized "
              "transport (mtu 4096)\n", clients, value_len, gets);

  const double losses[] = {0.0, 0.002, 0.01, 0.05};
  auto run = [&](double loss, bool selective_repeat) {
    workload::FabricScaleConfig cfg;
    cfg.clients = clients;
    cfg.gets_per_client = gets;
    cfg.value_len = value_len;
    cfg.packetized = true;
    cfg.loss = loss;
    cfg.selective_repeat = selective_repeat;
    // IB-style timeout exponent: base RTO 4096ns << 6 = 262us, doubling on
    // consecutive fires. Large enough that queueing on the shared server
    // link (4 clients x 16-packet responses) never fires a spurious RTO at
    // zero loss; the doubling keeps the 5% rows from retransmit storms.
    cfg.timeout_exp = 6;
    return workload::RunFabricScale(cfg);
  };

  bench::Section("loss sweep, same seed per mode (simulated, deterministic)");
  std::printf("  %8s %4s %8s %12s %10s %12s %9s %9s %9s %9s\n", "loss",
              "mode", "gets", "kgets/s", "p99 us", "goodput Gb", "rexmits",
              "sack rtx", "rto", "spurious");
  std::vector<workload::FabricScaleResult> results;     // go-back-N rows
  std::vector<workload::FabricScaleResult> sr_results;  // selective repeat
  std::uint64_t total_events = 0;
  std::uint64_t heap_fallbacks = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (double loss : losses) {
    for (const bool sr : {false, true}) {
      const auto r = run(loss, sr);
      (sr ? sr_results : results).push_back(r);
      total_events += r.events;
      heap_fallbacks += r.heap_fallbacks;
      std::printf(
          "  %7.2f%% %4s %8llu %12.1f %10.2f %12.2f %9llu %9llu %9llu %9llu\n",
          100.0 * loss, sr ? "sr" : "gbn",
          static_cast<unsigned long long>(r.gets), r.gets_per_sec / 1e3,
          r.p99_us, r.goodput_gbps,
          static_cast<unsigned long long>(r.retransmits),
          static_cast<unsigned long long>(r.sack_retransmits),
          static_cast<unsigned long long>(r.rto_fires),
          static_cast<unsigned long long>(r.spurious_retransmits));
    }
  }
  // Seed-stability: the lossiest config must reproduce every simulated
  // field exactly — the loss injector is part of the deterministic replay.
  // Both modes are checked: the SR engine adds state (SACK ranges,
  // reassembly) that must replay just as exactly.
  const auto again = run(losses[3], false);
  const auto sr_again = run(losses[3], true);
  total_events += again.events + sr_again.events;
  heap_fallbacks += again.heap_fallbacks + sr_again.heap_fallbacks;
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& lossiest = results.back();
  const auto& sr_lossiest = sr_results.back();
  const bool stable = again == lossiest && sr_again == sr_lossiest;

  bench::Section("collapse and recovery-mode delta");
  std::printf("  gbn goodput %.2f -> %.2f Gb/s and p99 %.1f -> %.1f us from "
              "0%% to %.0f%% loss\n", results[0].goodput_gbps,
              lossiest.goodput_gbps, results[0].p99_us, lossiest.p99_us,
              100.0 * losses[3]);
  std::printf("  sr keeps %.2f Gb/s at %.0f%% loss (+%.1f%% over gbn, "
              "%llu targeted vs %llu rewound resends)\n",
              sr_lossiest.goodput_gbps, 100.0 * losses[3],
              100.0 * (sr_lossiest.goodput_gbps / lossiest.goodput_gbps - 1.0),
              static_cast<unsigned long long>(sr_lossiest.retransmits),
              static_cast<unsigned long long>(lossiest.retransmits));

  // --- sharded engine (--shards N): same lossy workload, one event domain
  // vs N, wall-clock A/B. Client NICs round-robin over shards, the server
  // stays on shard 0, and every cross-shard flow's DATA/ACK legs ride the
  // mailboxes between its sender and receiver halves. All
  // sharded output (and its JSON fields) is gated on the flag so the
  // default run stays byte-identical.
  double wall_speedup = 0;
  bool sharded_ok = true;
  std::uint64_t sharded_stable = 0;
  if (sim_shards > 1) {
    bench::Section("sharded engine: wall-clock, 1 domain vs N");
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < static_cast<unsigned>(sim_shards)) {
      std::printf("  SKIP note: only %u cores for %d shards — speedup "
                  "numbers will understate the engine\n", cores, sim_shards);
    }
    auto sharded_cfg = [&](int n) {
      workload::FabricScaleConfig cfg;
      cfg.clients = std::max(clients, 2 * sim_shards);
      cfg.gets_per_client = gets;
      cfg.value_len = value_len;
      cfg.packetized = true;
      cfg.loss = 0.01;
      cfg.timeout_exp = 6;
      cfg.shards = n;
      return cfg;
    };
    auto timed = [&](int n, workload::FabricScaleResult* out) {
      // Best of two: the first rep pays thread spin-up and cold caches.
      double best = 1e30;
      for (int rep = 0; rep < 2; ++rep) {
        const auto w0 = std::chrono::steady_clock::now();
        *out = workload::RunFabricScale(sharded_cfg(n));
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - w0).count());
      }
      return best;
    };
    workload::FabricScaleResult one, many, many2;
    const double wall_one = timed(1, &one);
    const double wall_many = timed(sim_shards, &many);
    timed(sim_shards, &many2);  // same-config rerun for the stability check
    wall_speedup = wall_one / wall_many;
    sharded_stable = many == many2 ? 1 : 0;
    std::printf("  %d clients x %d gets at 1%% loss: %.3f s on 1 shard, "
                "%.3f s on %d shards — wall_speedup x%.2f\n",
                sharded_cfg(1).clients, gets, wall_one, wall_many, sim_shards,
                wall_speedup);
    std::printf("  sharded run: %llu gets, %llu mailbox sends, %llu sync "
                "rounds, %s\n",
                static_cast<unsigned long long>(many.gets),
                static_cast<unsigned long long>(many.mailbox_sends),
                static_cast<unsigned long long>(many.sync_rounds),
                sharded_stable ? "rerun bit-stable" : "RERUN DIVERGED");
    const std::uint64_t sharded_expect =
        static_cast<std::uint64_t>(sharded_cfg(1).clients) *
        static_cast<std::uint64_t>(gets);
    if (many.gets != sharded_expect || one.gets != sharded_expect) {
      std::fprintf(stderr, "FAIL: sharded run lost responses (%llu/%llu)\n",
                   static_cast<unsigned long long>(many.gets),
                   static_cast<unsigned long long>(sharded_expect));
      sharded_ok = false;
    }
    if (sharded_stable == 0) {
      std::fprintf(stderr, "FAIL: sharded same-seed rerun diverged\n");
      sharded_ok = false;
    }
    if (many.mailbox_sends == 0) {
      std::fprintf(stderr, "FAIL: no cross-shard traffic at %d shards\n",
                   sim_shards);
      sharded_ok = false;
    }
  }

  const double events_per_sec = static_cast<double>(total_events) / wall_secs;
  // The JSON goodput field is the 1% row: high enough loss to exercise
  // recovery constantly, low enough that a healthy go-back-N keeps most of
  // the line rate (the CI floor). events_per_get_lossless is the 0% GBN
  // row's engine events per get: deterministic, and the CI ceiling that
  // keeps a co-located flow's legs from costing extra events.
  // heap_fallbacks sums every sweep run's events that overflowed the
  // engine's inline slot; CI holds it at zero.
  bench::JsonWriter json("scale_lossy");
  json.Field("clients", static_cast<std::uint64_t>(clients))
      .Field("gets", lossiest.gets)
      .Field("goodput_gbps", results[2].goodput_gbps)
      .Field("goodput_gbps_lossless", results[0].goodput_gbps)
      .Field("goodput_gbps_lossiest", lossiest.goodput_gbps)
      .Field("sr_goodput_gbps", sr_results[2].goodput_gbps)
      .Field("sr_goodput_gbps_lossiest", sr_lossiest.goodput_gbps)
      .Field("p99_us_lossiest", lossiest.p99_us)
      .Field("retransmits", lossiest.retransmits)
      .Field("sr_retransmits", sr_lossiest.retransmits)
      .Field("sr_sack_retransmits", sr_lossiest.sack_retransmits)
      .Field("rto_fires", lossiest.rto_fires)
      .Field("spurious_retransmits", lossiest.spurious_retransmits)
      .Field("packets_lost", lossiest.packets_lost)
      .Field("events_per_get_lossless",
             static_cast<double>(results[0].events) /
                 static_cast<double>(results[0].gets))
      .Field("heap_fallbacks", heap_fallbacks)
      .Field("deterministic", static_cast<std::uint64_t>(stable ? 1 : 0))
      .Field("events_per_sec", events_per_sec);
  if (sim_shards > 1) {
    json.Field("shards", static_cast<std::uint64_t>(sim_shards))
        .Field("wall_speedup", wall_speedup)
        .Field("sharded_deterministic", sharded_stable);
  }
  json.Emit();

  // Self-checks: reliable delivery (every get answered at every loss rate),
  // a bit-stable rerun, goodput monotonically non-increasing with loss, and
  // the loss machinery actually engaged.
  bool ok = true;
  const std::uint64_t expect =
      static_cast<std::uint64_t>(gets) * static_cast<std::uint64_t>(clients);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].gets != expect) {
      std::fprintf(stderr,
                   "FAIL: lost responses at loss %.3f (%llu != %llu) — "
                   "go-back-N failed to recover\n", losses[i],
                   static_cast<unsigned long long>(results[i].gets),
                   static_cast<unsigned long long>(expect));
      ok = false;
    }
  }
  if (!stable) {
    std::fprintf(stderr, "FAIL: rerun diverged (nondeterministic transport)\n");
    ok = false;
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].goodput_gbps > results[i - 1].goodput_gbps) {
      std::fprintf(stderr,
                   "FAIL: goodput rose with loss (%.3f Gb/s at %.3f vs "
                   "%.3f Gb/s at %.3f)\n", results[i].goodput_gbps, losses[i],
                   results[i - 1].goodput_gbps, losses[i - 1]);
      ok = false;
    }
  }
  if (results[0].retransmits != 0 || results[0].timeouts != 0) {
    std::fprintf(stderr, "FAIL: retransmissions without loss (%llu/%llu)\n",
                 static_cast<unsigned long long>(results[0].retransmits),
                 static_cast<unsigned long long>(results[0].timeouts));
    ok = false;
  }
  if (lossiest.retransmits == 0 || lossiest.packets_lost == 0) {
    std::fprintf(stderr, "FAIL: loss injector inert at %.0f%% loss\n",
                 100.0 * losses[3]);
    ok = false;
  }
  for (std::size_t i = 0; i < sr_results.size(); ++i) {
    if (sr_results[i].gets != expect) {
      std::fprintf(stderr,
                   "FAIL: lost responses at loss %.3f (%llu != %llu) — "
                   "selective repeat failed to recover\n", losses[i],
                   static_cast<unsigned long long>(sr_results[i].gets),
                   static_cast<unsigned long long>(expect));
      ok = false;
    }
  }
  if (sr_lossiest.sack_retransmits == 0) {
    std::fprintf(stderr,
                 "FAIL: SACK machinery inert at %.0f%% loss under sr\n",
                 100.0 * losses[3]);
    ok = false;
  }
  // The acceptance criterion: targeted resends must beat window rewinds
  // under the identical loss pattern at the highest loss rate.
  if (sr_lossiest.goodput_gbps <= lossiest.goodput_gbps) {
    std::fprintf(stderr,
                 "FAIL: sr goodput %.3f Gb/s <= gbn %.3f Gb/s at %.0f%% "
                 "loss\n", sr_lossiest.goodput_gbps, lossiest.goodput_gbps,
                 100.0 * losses[3]);
    ok = false;
  }
  if (!sharded_ok) ok = false;
  return ok ? 0 : 1;
}
