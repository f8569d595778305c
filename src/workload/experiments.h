// End-to-end experiment drivers for the evaluation's macro figures.
//
// Each function builds a fresh two-node topology (client(s) + server),
// runs the workload, and returns the measurements the paper plots. Both the
// benches and the integration tests call these, so figure generation is a
// thin formatting layer. Scripted fault windows (workload::FaultPlan) are
// RunKvService's; these drivers inject only their own fixed failures.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace redn::workload {

// --- Shared-fabric scale-out: N clients, one server link --------------------
//
// Fig 15/16-style NIC-served gets, scaled out: `clients` independent client
// NICs attach to a switch fabric and hammer one server NIC whose single
// port link everyone shares. Each client runs a closed loop of depth 1
// (send trigger, await the offloaded WRITE_IMM response, repeat), so
// per-get latency is exact and aggregate throughput is limited by whatever
// saturates first — with enough clients and large values, the server's TX
// link. Every endpoint, the server included, has a 25 Gbps link 125 ns from
// the switch. The per-QP constant-latency path cannot express this: private
// wires never contend.
struct FabricScaleConfig {
  int clients = 8;
  int gets_per_client = 200;
  // Response payload (the congesting bytes). Large enough that the wire —
  // not the server NIC's serialized managed-fetch unit — is what saturates.
  std::uint32_t value_len = 16384;
  int keys = 512;                  // keyspace per client
  std::uint64_t seed = 1;

  // --- packetized lossy transport ------------------------------------------
  // When true, client<->server QPs ride sim::Transport: payloads segment
  // into 4096 B packets, every link drops packets with probability `loss`,
  // and the transport retransmits forever (no retry budget, so no QP ever
  // errors). false keeps the lossless message-level fabric path
  // (bit-identical to pre-transport behaviour).
  bool packetized = false;
  double loss = 0.0;               // per-link per-packet loss probability
  std::uint64_t transport_seed = 0x7a115eedULL;

  // --- reliability engine (requires packetized) -----------------------------
  // Selective repeat (SACK-range retransmission) instead of go-back-N.
  bool selective_repeat = false;
  // The transport's rto = 4096ns << timeout_exp when nonzero, else 60 us.
  std::uint32_t timeout_exp = 0;

  // --- sharded parallel engine ----------------------------------------------
  // The topology runs on a ShardedSimulator of `shards` domains (1 = one
  // domain, the degenerate case of the same driver). The placement is
  // fixed: the server NIC and the transport run on domain 0 and client i
  // on domain i % shards, and cross-shard verbs ride the conservative
  // mailbox sync whose lookahead floor is the fabric's one-way link
  // latency. The determinism key is (seed, shards): same-config reruns are
  // bit-stable, but different shard counts may order same-instant RX
  // reservations differently (see docs/PARSIM.md). Each client draws its
  // keys from its own stream. Composes with `packetized`: every transport
  // flow runs as per-endpoint halves with per-flow RNG streams
  // (docs/NET.md), so lossy GBN/SR recovery runs sharded.
  int shards = 1;
};

struct FabricScaleResult {
  std::uint64_t gets = 0;          // responses received (all clients)
  double duration_us = 0;          // first trigger -> last response
  double gets_per_sec = 0;         // aggregate
  double avg_us = 0;               // per-get latency across all clients
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double server_tx_util = 0;       // server-link TX busy fraction
  double server_rx_util = 0;
  std::uint64_t events = 0;        // engine events processed (perf floors)
  std::uint64_t heap_fallbacks = 0;  // events whose capture overflowed the slot
  // Transport accounting (all zero unless cfg.packetized).
  std::uint64_t data_packets = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t packets_lost = 0;  // dropped at egress or ingress
  std::uint64_t acks = 0;
  double goodput_gbps = 0;         // delivered payload bits / duration
  // Reliability-engine accounting (all zero on the default config).
  std::uint64_t rto_fires = 0;
  std::uint64_t spurious_retransmits = 0;
  std::uint64_t sack_retransmits = 0;
  std::uint64_t error_cqes = 0;        // non-success CQEs seen by client loops
  std::uint64_t qp_errors = 0;         // QPs that entered ERROR (all devices)
  std::uint64_t qp_rearms = 0;         // ERROR -> reset -> RTS recoveries
  // Sharded-engine accounting (no mailbox sends or rounds at shards = 1).
  int shards = 1;
  std::uint64_t mailbox_sends = 0;     // cross-shard messages posted
  std::uint64_t sync_rounds = 0;       // conservative windows executed

  // Every field is simulated, so same-config reruns compare equal.
  bool operator==(const FabricScaleResult&) const = default;
};

// Throws std::invalid_argument naming the field on a malformed config
// (clients, keys or shards < 1, reliability knobs without packetized).
FabricScaleResult RunFabricScale(const FabricScaleConfig& cfg);

// --- Fig 15: performance isolation under CPU contention ---------------------
//
// One reader issues gets while `writers` closed-loop clients hammer the
// server with set RPCs (distinct 10K-key ranges, accessed sequentially).
// Baseline gets go through the two-sided CPU path; RedN gets are NIC-served.
struct ContentionResult {
  double avg_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  std::uint64_t gets = 0;
};

ContentionResult RunTwoSidedContention(int writers, int n_gets,
                                       std::uint64_t seed = 1);
ContentionResult RunRedNContention(int writers, int n_gets,
                                   std::uint64_t seed = 1);

// --- Fig 16: failure resiliency ---------------------------------------------
//
// An open-loop client issues gets of 64 B values over 10'000 keys at 1000
// gets/s for `horizon`; the Memcached process is killed at `crash_at`.
// Returns served throughput per 0.25 s bucket, normalized to the pre-crash
// plateau.
struct FailoverConfig {
  bool redn = false;        // NIC-served gets vs two-sided vanilla Memcached
  bool hull_parent = true;  // RDMA resources owned by the empty-hull parent
  sim::Nanos horizon = sim::Seconds(12);
  sim::Nanos crash_at = sim::Seconds(5);
};

struct FailoverResult {
  std::vector<double> normalized;  // served-throughput per bucket, 0..1
  std::uint64_t served = 0;
  std::uint64_t sent = 0;
  // Seconds of wall time with (near-)zero service.
  double outage_seconds = 0;
};

FailoverResult RunFailover(const FailoverConfig& cfg);

}  // namespace redn::workload
