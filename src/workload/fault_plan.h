// Scripted, deterministic fault injection for the KV service.
//
// A FaultPlan is a schedule of fault windows applied to the shards of a
// RunKvService topology, its one interpreter. Every entry names a target
// shard, a kind, and a [down_at, up_at) window in simulated time.
//
// Kinds and their mechanisms (see docs/KV.md):
//   kBlackhole — Transport::SetLinkFaults(endpoint, loss=1.0): every packet
//                to/from the target's link drops; in-flight flows exhaust
//                their retry budgets and the QPs error. Heals at up_at
//                (loss restored to the config's baseline).
//   kRnrStall  — RnicDevice::StallRecvsFor on the target's server-side QPs:
//                the next `rnr_count` inbound delivery probes see "no RECV
//                posted" and are RNR-NAKed. Transient when the budget
//                outlives the stall; fatal (RNR_RETRY_EXC) when it doesn't.
//                `up_at` is optional — the stall self-clears as probes
//                consume it; a nonzero up_at additionally re-arms any QP
//                the stall errored.
//   kCrash     — RnicDevice::KillProcessResources(shard pid): the shard's
//                QPs and armed chains die; subsequent triggers are answered
//                by dead-peer NAKs. up_at = 0 is a permanent crash; a
//                nonzero up_at is a shard *re-join*: the process (or a
//                spare replacement adopting the shard's ring identity)
//                comes back with an empty store, re-arms its QPs, and
//                anti-entropy re-syncs its key range from the chain peers
//                (kv::ResyncSession) before serving again.
//   kFlaky     — gray failure: seeded probabilistic loss *bursts* on the
//                target's link. Within the window, the link alternates
//                between `flaky_loss` and the baseline, with burst/gap
//                lengths drawn from a per-entry deterministic RNG. The
//                service must absorb the bursts (retransmits, occasional
//                budget deaths + heal re-arms) without losing acked writes.
//   kSlow      — gray failure: the shard is alive but degraded. Adds
//                `slow_ns` of one-way latency to every packet to/from the
//                target's link (Transport::SetLinkDelay). Latency rises;
//                nothing must fail over as long as the retry budget
//                outlives the added delay.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace redn::workload {

enum class FaultKind : std::uint8_t {
  kBlackhole,
  kRnrStall,
  kCrash,
  kFlaky,
  kSlow,
};

struct FaultEntry {
  // Target shard. Every entry must name one: the default -1 names none, and
  // ValidateFaultPlan rejects it. A fault hits every tenant's links to the
  // shard.
  int server = -1;
  FaultKind kind = FaultKind::kBlackhole;
  sim::Nanos down_at = 0;
  sim::Nanos up_at = 0;  // 0 = never heals (kCrash: never re-joins)
  int rnr_count = 64;    // kRnrStall: stalled delivery probes per QP
  // kFlaky: loss probability during a burst, and the mean burst/gap
  // lengths. Actual lengths are drawn uniformly in [0.5x, 1.5x] of the
  // mean from a per-entry seeded RNG, so plans replay bit-identically.
  double flaky_loss = 0.35;
  sim::Nanos flaky_burst = 4'000;
  sim::Nanos flaky_gap = 8'000;
  // kSlow: added one-way latency on the target's link.
  sim::Nanos slow_ns = 30'000;
};

struct FaultPlan {
  std::vector<FaultEntry> entries;
};

// Structural validation of a plan. Throws std::invalid_argument with the
// entry index and an actionable message on: an entry that names no shard
// (server < 0), up_at <= down_at (when up_at != 0), negative down_at,
// overlapping windows on the same shard (an entry with up_at == 0 extends
// to infinity), and out-of-range kind parameters (flaky_loss outside
// (0, 1], non-positive burst/gap/slow_ns, non-positive rnr_count). The
// shard count depends on the topology, so RunKvService checks the upper
// bound of `server`.
void ValidateFaultPlan(const FaultPlan& plan);

}  // namespace redn::workload
