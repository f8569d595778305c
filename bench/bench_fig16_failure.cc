// Fig 16 (+ Table 6): failure resiliency. A Memcached process is killed at
// t = 5 s; vanilla (two-sided) service collapses for restart + hash-table
// rebuild, while RedN-served gets continue uninterrupted because the armed
// chains live in NIC-accessible memory owned by the empty-hull parent.
#include <cstdio>

#include "report.h"
#include "workload/experiments.h"

using namespace redn;

int main() {
  bench::Title("Throughput through a Memcached process crash at t=5s",
               "Fig 16 (and Table 6)");

  workload::FailoverConfig base;  // 1000 gets/s over 10'000 keys
  base.horizon = sim::Seconds(12);
  base.crash_at = sim::Seconds(5);

  auto vanilla_cfg = base;
  vanilla_cfg.redn = false;
  const auto vanilla = workload::RunFailover(vanilla_cfg);

  auto redn_cfg = base;
  redn_cfg.redn = true;
  redn_cfg.hull_parent = true;
  const auto redn = workload::RunFailover(redn_cfg);

  std::printf("  normalized served throughput per 0.25 s bucket\n");
  std::printf("  %6s  %-42s %-42s\n", "t[s]", "RedN", "vanilla Memcached");
  for (std::size_t b = 0; b < vanilla.normalized.size(); b += 2) {
    const double t = 0.25 * static_cast<double>(b);
    const double r = b < redn.normalized.size() ? redn.normalized[b] : 0;
    const double v = vanilla.normalized[b];
    std::printf("  %6.2f  |%s| |%s|\n", t, bench::Bar(r).c_str(),
                bench::Bar(v).c_str());
  }

  bench::Section("outage accounting");
  bench::Compare("vanilla outage (restart+rebuild)", vanilla.outage_seconds,
                 2.25, "s");
  bench::Compare("RedN outage", redn.outage_seconds, 0.0, "s");
  std::printf("  vanilla served %llu/%llu, RedN served %llu/%llu\n",
              static_cast<unsigned long long>(vanilla.served),
              static_cast<unsigned long long>(vanilla.sent),
              static_cast<unsigned long long>(redn.served),
              static_cast<unsigned long long>(redn.sent));

  // The no-hull ablation: §5.6's point that the fork/empty-hull trick is
  // what keeps RDMA resources alive past the process.
  auto nohull = redn_cfg;
  nohull.hull_parent = false;
  nohull.horizon = sim::Seconds(8);
  nohull.crash_at = sim::Seconds(3);
  const auto dead = workload::RunFailover(nohull);
  bench::Section("ablation: no empty-hull parent");
  std::printf("  without hull ownership the OS reclaim kills the chains: "
              "outage %.2f s, served %llu/%llu\n",
              dead.outage_seconds, static_cast<unsigned long long>(dead.served),
              static_cast<unsigned long long>(dead.sent));

  bench::Section("Table 6: component failure rates (literature values)");
  std::printf("  %-8s %8s %12s %12s\n", "comp", "AFR", "MTTF[h]", "rel.");
  std::printf("  %-8s %8s %12s %12s\n", "OS", "41.9%", "20,906", "99%");
  std::printf("  %-8s %8s %12s %12s\n", "DRAM", "39.5%", "22,177", "99%");
  std::printf("  %-8s %8s %12s %12s\n", "NIC", "1.00%", "876,000", "99.99%");
  std::printf("  %-8s %8s %12s %12s\n", "NVM", "<1.00%", "2,000,000",
              "99.99%");
  return 0;
}
