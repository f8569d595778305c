// Wall-clock microbenchmarks of the simulator itself. These guard the
// tool's usability: the macro experiments replay millions of events, so
// event dispatch and verb execution must stay cheap.
//
// Each benchmark prints a human-readable line plus a `JSON {...}` record
// (see bench/report.h) that scripts/ci.sh parses to enforce a minimum
// events/sec threshold. Scenarios:
//  - dispatch_chain: steady-state self-rescheduling actors, all deltas
//    within the calendar ring (the NIC-model hot path).
//  - dispatch_burst: a pre-posted batch spread over a wide window, so
//    events flow through the sorted overflow and migrate into the ring.
//  - remote_write: the full RNIC data path (doorbell, PU, PCIe/link,
//    payload shuttle, CQE), reported as wall-clock ns per verb.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "report.h"
#include "rnic/device.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "verbs/verbs.h"

using namespace redn;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SlabStats {
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;
  double HitRate() const {
    const std::uint64_t total = hits + fallbacks;
    return total == 0 ? 1.0 : static_cast<double>(hits) / total;
  }
};

SlabStats ReadSlabStats(const sim::Simulator& s) {
  SlabStats st;
  st.hits = s.slab_hits();            // SLAB-STATS
  st.fallbacks = s.heap_fallbacks();  // SLAB-STATS
  return st;
}

// K self-rescheduling actors, each hopping 50..900 ns forward until the
// target event count is reached. Mirrors the steady-state shape of the NIC
// model: many near-future events with small captures.
double RunDispatchChain(std::uint64_t target_events, SlabStats* slab) {
  sim::Simulator s;
  constexpr int kChains = 64;
  std::uint64_t remaining = target_events;
  sim::Rng rng(42);

  struct Chain {
    sim::Simulator* s;
    std::uint64_t* remaining;
    sim::Nanos delta;
    void operator()() {
      if (*remaining == 0) return;
      --*remaining;
      s->After(delta, *this);
    }
  };

  for (int c = 0; c < kChains; ++c) {
    s.After(static_cast<sim::Nanos>(rng.NextInRange(50, 900)),
            Chain{&s, &remaining, static_cast<sim::Nanos>(
                                      rng.NextInRange(50, 900))});
  }
  const auto t0 = std::chrono::steady_clock::now();
  s.Run();
  const double secs = SecondsSince(t0);
  *slab = ReadSlabStats(s);
  return static_cast<double>(s.events_processed()) / secs;
}

// Pre-posts `n` events spread over a 10 ms window (mostly far beyond the
// calendar ring), then drains. Exercises overflow insertion + migration.
double RunDispatchBurst(std::uint64_t n, int rounds, SlabStats* slab) {
  sim::Simulator s;
  sim::Rng rng(7);
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    const sim::Nanos base = s.now();
    for (std::uint64_t i = 0; i < n; ++i) {
      s.At(base + static_cast<sim::Nanos>(rng.NextBelow(10'000'000)),
           [&sink] { ++sink; });
    }
    s.Run();
  }
  const double secs = SecondsSince(t0);
  *slab = ReadSlabStats(s);
  if (sink != n * static_cast<std::uint64_t>(rounds)) return -1.0;
  return static_cast<double>(s.events_processed()) / secs;
}

// Full data path: batches of RDMA WRITEs between two devices over a wire.
// Returns wall-clock nanoseconds per verb and the simulator's events/sec
// via `events_per_sec`; `wqe_cache_hit_rate` reports the requester's
// decoded-WQE cache (a fetch keeps a slot's image while its bytes are
// unchanged, so identical re-posts hit and steady state approaches 1.0 —
// only the first lap of ring slots decodes).
double RunRemoteWrite(std::uint64_t verbs_target, double* events_per_sec,
                      double* wqe_cache_hit_rate, SlabStats* slab) {
  sim::Simulator sim;
  rnic::RnicDevice client(sim, rnic::NicConfig::ConnectX5(), {}, "c");
  rnic::RnicDevice server(sim, rnic::NicConfig::ConnectX5(), {}, "s");
  rnic::QpConfig c;
  c.sq_depth = 2048;
  c.send_cq = client.CreateCq();
  c.recv_cq = client.CreateCq();
  auto* cqp = client.CreateQp(c);
  rnic::QpConfig sc;
  sc.send_cq = server.CreateCq();
  sc.recv_cq = server.CreateCq();
  auto* sqp = server.CreateQp(sc);
  rnic::Connect(cqp, sqp, 125);
  auto buf = std::make_unique<std::byte[]>(4096);
  auto cmr = client.pd().Register(buf.get(), 4096, rnic::kAccessAll);
  auto sbuf = std::make_unique<std::byte[]>(4096);
  auto smr = server.pd().Register(sbuf.get(), 4096, rnic::kAccessAll);

  constexpr std::uint64_t kBatch = 1024;
  std::uint64_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (done < verbs_target) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      verbs::PostSend(cqp, verbs::MakeWrite(cmr.addr, 64, cmr.lkey, smr.addr,
                                            smr.rkey,
                                            /*signaled=*/i + 1 == kBatch));
    }
    verbs::RingDoorbell(cqp);
    sim.Run();
    done += kBatch;
  }
  const double secs = SecondsSince(t0);
  *events_per_sec = static_cast<double>(sim.events_processed()) / secs;
  *wqe_cache_hit_rate = client.counters().WqeCacheHitRate();
  *slab = ReadSlabStats(sim);
  return secs * 1e9 / static_cast<double>(done);
}

}  // namespace

int main(int argc, char** argv) {
  // --quick shrinks the workload (CI smoke); default sizes give stable
  // numbers on an idle machine.
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t chain_events = quick ? 500'000 : 4'000'000;
  const std::uint64_t burst_n = quick ? 100'000 : 400'000;
  const int burst_rounds = quick ? 2 : 5;
  const std::uint64_t write_verbs = quick ? 64'000 : 256'000;

  bench::Title("Simulator core microbenchmarks", "engine perf guardrail");

  SlabStats slab;
  bench::Section("event dispatch (steady-state chains)");
  const double chain_eps = RunDispatchChain(chain_events, &slab);
  std::printf("  %-34s %12.0f events/s   slab-hit %5.2f%%\n", "dispatch_chain",
              chain_eps, 100.0 * slab.HitRate());
  bench::JsonWriter("dispatch_chain")
      .Field("events_per_sec", chain_eps)
      .Field("slab_hits", slab.hits)
      .Field("heap_fallbacks", slab.fallbacks)
      .Field("slab_hit_rate", slab.HitRate())
      .Emit();

  bench::Section("event dispatch (wide-window burst)");
  const double burst_eps = RunDispatchBurst(burst_n, burst_rounds, &slab);
  std::printf("  %-34s %12.0f events/s   slab-hit %5.2f%%\n", "dispatch_burst",
              burst_eps, 100.0 * slab.HitRate());
  bench::JsonWriter("dispatch_burst")
      .Field("events_per_sec", burst_eps)
      .Field("slab_hits", slab.hits)
      .Field("heap_fallbacks", slab.fallbacks)
      .Field("slab_hit_rate", slab.HitRate())
      .Emit();

  bench::Section("RNIC data path (remote WRITE)");
  double write_eps = 0.0;
  double wqe_hit_rate = 0.0;
  const double ns_per_verb =
      RunRemoteWrite(write_verbs, &write_eps, &wqe_hit_rate, &slab);
  std::printf("  %-34s %12.1f ns/verb    %12.0f events/s   slab-hit %5.2f%%"
              "   wqe-cache %5.2f%%\n",
              "remote_write", ns_per_verb, write_eps, 100.0 * slab.HitRate(),
              100.0 * wqe_hit_rate);
  bench::JsonWriter("remote_write")
      .Field("ns_per_verb", ns_per_verb)
      .Field("events_per_sec", write_eps)
      .Field("slab_hits", slab.hits)
      .Field("heap_fallbacks", slab.fallbacks)
      .Field("slab_hit_rate", slab.HitRate())
      .Field("wqe_cache_hit_rate", wqe_hit_rate)
      .Emit();

  return burst_eps < 0 ? 1 : 0;
}
