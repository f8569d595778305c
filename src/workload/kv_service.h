// Sharded multi-tenant KV service driver with chain-replication failover.
//
// Topology: M shard NICs and N tenant NICs on one switch fabric, every
// connection riding the packetized reliability transport. Keys (>= 100K by
// default) place onto shards via a consistent-hash ring with virtual nodes;
// each key is stored on its primary AND the primary's chain successor
// (kv::ConsistentHashRing). Tenants run depth-1 closed loops of NIC-served
// gets with Zipfian-skewed key draws from per-tenant deterministic streams.
//
// Failover (FailoverPolicy::kOffloadChain): every (tenant, shard) pair
// pre-installs an offloads::ClientFailoverChain — a WAIT on the primary
// connection's send CQ that, on the failure CQE a dead shard produces
// (retry-budget exhaustion or dead-peer NAK), ENABLEs a parked, already-
// built get against the backup shard with zero host involvement. The
// baseline (kHostReissue) has no chain: the host notices a stuck get only
// via a conservative application-level RPC timer (default 16x the base
// RTO — the "multi-RTO stall") and re-issues on the CPU.
//
// Faults arrive from a workload::FaultPlan (blackhole / rnr_stall / crash
// windows per shard). Results report per-tenant p50/p99/p999 and a
// bounded-blip metric (the longest gap between consecutive completions a
// tenant observed — the outage_seconds analogue at per-tenant granularity).
//
// See docs/KV.md for the architecture and the failover timeline.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.h"
#include "sim/time.h"
#include "workload/fault_plan.h"

namespace redn::workload {

enum class FailoverPolicy : std::uint8_t {
  kOffloadChain,  // pre-installed client-NIC WAIT/ENABLE detour
  kHostReissue,   // host RPC-timeout watchdog + CPU re-issue
};

struct KvTenantStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;              // completed (acked) puts
  std::uint64_t detour_responses = 0;  // gets answered by the fired detour
  std::uint64_t reroutes = 0;          // issued straight to the backup
  std::uint64_t host_reissues = 0;     // watchdog-driven re-sends (baseline)
  double avg_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  // Longest gap between consecutive completions (first gap measured from
  // the tenant's first issue) — the per-tenant bounded-blip metric.
  double max_blip_us = 0;
};

struct KvServiceConfig {
  int shards = 4;
  int tenants = 4;
  int gets_per_tenant = 400;
  int keys = 100'000;              // keyspace size (keys 1..keys)
  std::uint32_t value_len = 256;
  double zipf_theta = 0.99;        // 0 = uniform
  int ring_vnodes = 16;
  double gbps = 25.0;              // every endpoint link
  sim::Nanos propagation = 125;
  sim::Nanos switch_latency = 0;
  std::uint64_t seed = 1;

  // Transport (always packetized; selective repeat by default).
  double loss = 0.0;
  double corrupt = 0.0;
  std::uint32_t mtu = 4096;
  bool selective_repeat = true;
  std::uint32_t retry_count = 1;      // budget-exhaustion failure detector
  std::uint32_t rnr_retry_count = 4;
  std::uint32_t timeout_exp = 6;      // base RTO = 4096ns << 6 = 262us
  std::uint32_t min_rnr_timer = 1;
  std::uint64_t transport_seed = 0x7a115eedULL;

  FailoverPolicy policy = FailoverPolicy::kOffloadChain;
  // kOffloadChain: while a get is outstanding to a primary, the client
  // posts unsignaled keepalive SENDs on a probe QP that shares the primary
  // connection's send CQ. A crashed shard NAKs the probe, so even a get
  // whose trigger was delivered-and-acked right before the crash (no CQE
  // of its own — the silent-loss race) still produces the failure CQE the
  // detour chain WAITs on, within ~probe_interval. Healthy gets complete
  // well under the interval, so no probe is ever sent on the fast path.
  sim::Nanos probe_interval = 15'000;
  // kHostReissue: the application RPC timer. 0 = 16 x (4096ns << timeout_exp).
  sim::Nanos host_timeout = 0;
  // kHostReissue: host-side cost between noticing and re-issuing.
  sim::Nanos host_reissue_cost = 2'000;

  // --- write path (chain-ordered replication) --------------------------------
  // Fraction of each tenant's ops issued as puts (YCSB-style mix; 0 = the
  // classic pure-get service, bit-identical to configs that predate the
  // write path). A put travels tenant -> primary -> chain successor: the
  // primary applies, propagates the whole versioned value to the successor
  // with an RDMA WRITE, and acks the tenant only after the propagation's
  // completion — i.e. after the successor durably holds the bytes. When
  // put_fraction > 0 (or a crash window re-joins, below) every value
  // carries a u64 version tag in its first 8 bytes (kv::WriteVersionedValue
  // layout), which requires value_len >= 16.
  double put_fraction = 0.0;
  // Host-side cost to apply one put at a shard (parse + table update).
  sim::Nanos put_apply_cost = 500;
  // Anti-entropy re-sync: RDMA READs kept in flight per session.
  int resync_window = 32;

  FaultPlan faults;
  sim::Nanos horizon = sim::Seconds(30);

  // --- sharded parallel engine ----------------------------------------------
  // sim_shards > 1 runs the service on a ShardedSimulator. The KV shards
  // (and the transport's home) live on domain 0; `placement` pins each
  // tenant's NIC and host loop to its own domain (empty = co-resident with
  // the service on domain 0). Every transport flow runs as per-endpoint
  // sender/receiver halves with per-flow RNG streams whose draw order
  // depends only on the flow's own packets; a spread tenant's DATA/ACK
  // packets ride the conservative mailbox sync (docs/NET.md "Flow
  // halves"), and heals and fault windows route each QP re-arm to the
  // shard that owns it. Same (seed, placement) reruns are bit-stable;
  // moving tenants between domains may reorder same-instant arrivals
  // (docs/PARSIM.md).
  int sim_shards = 1;
  std::vector<int> placement;  // per-tenant domain; empty = all on domain 0
};

struct KvServiceResult {
  std::uint64_t gets = 0;             // completed (must equal the demand)
  std::uint64_t unanswered = 0;       // gets still pending at the horizon
  std::uint64_t detour_responses = 0;
  std::uint64_t host_reissues = 0;
  std::uint64_t probes_sent = 0;      // keepalives posted for slow gets
  std::uint64_t reroutes = 0;
  std::uint64_t heal_reissues = 0;    // pending gets re-sent by heal re-arm
  std::uint64_t stale_responses = 0;  // responses for no-longer-pending gets
  std::uint64_t faults_applied = 0;
  std::uint64_t heals_applied = 0;
  std::uint64_t keys_visible = 0;     // NIC-visible on primary AND backup
  // --- write path ------------------------------------------------------------
  std::uint64_t puts = 0;             // acked puts (the completed write ops)
  std::uint64_t acked_puts_full = 0;  // acked with both replicas confirmed
  std::uint64_t degraded_acks = 0;    // acked by a lone replica (peer down)
  std::uint64_t chain_forwards = 0;   // primary->successor WRITE propagations
  std::uint64_t put_retries = 0;      // watchdog-driven put re-sends
  // End-of-run audit: acknowledged writes whose confirmed replica no longer
  // holds a version >= the acked one (must be 0 — the zero-loss invariant).
  std::uint64_t lost_acked_writes = 0;
  // Read-your-writes violations: a get returned a version older than one
  // the same tenant had fully acked for that key.
  std::uint64_t ryw_violations = 0;
  // Replicas that are both serving at the end but disagree (same version,
  // different bytes — or a value failing its own pattern check).
  std::uint64_t value_divergence = 0;
  double put_avg_us = 0;
  double put_p50_us = 0;
  double put_p99_us = 0;
  double put_p999_us = 0;
  // --- recovery --------------------------------------------------------------
  std::uint64_t rejoins = 0;            // crash windows that healed
  std::uint64_t resyncs_started = 0;    // anti-entropy sessions launched
  std::uint64_t resync_keys_scanned = 0;
  std::uint64_t resync_keys_applied = 0;
  std::uint64_t resync_keys_kept = 0;   // local copy was newer (dual-apply)
  std::uint64_t resync_bytes = 0;
  std::uint64_t resync_failures = 0;    // sessions that hit an error CQE
  // Longest down_at -> back-to-serving span over all fault windows (for a
  // re-join that is down_at -> resync completion, not just down_at -> up_at).
  double degraded_window_us = 0;
  double duration_us = 0;
  double gets_per_sec = 0;
  double avg_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_blip_us = 0;             // worst per-tenant blip
  std::vector<KvTenantStats> tenants;
  // Transport + device accounting.
  std::uint64_t data_packets = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t rnr_naks = 0;
  std::uint64_t sack_retransmits = 0;
  std::uint64_t error_cqes = 0;       // non-success CQEs seen by tenant loops
  std::uint64_t qp_errors = 0;
  std::uint64_t qp_rearms = 0;
  std::uint64_t events = 0;
  int sim_shards = 1;                 // event domains the run was hosted on
};

// Runs the service; throws std::invalid_argument on malformed configs
// (< 2 shards, overlapping fault windows, fault entries naming
// out-of-range shards, a versioned run with value_len < 16, ...).
//
// A kCrash entry with up_at > 0 is a crash + re-join: the shard's process
// resources are revived at up_at with an EMPTY store (the crash lost its
// memory), QPs are cycled, and anti-entropy ResyncSessions stream the
// shard's key range back from its chain peers via RDMA READs, reconciling
// by version tag; a shard that missed chain writes re-syncs the same way
// at its heal. It serves again only after a pass with nothing left to
// re-read (missed writes and a failed session's keys go to the next pass).
// A heal during a re-sync joins it, and a crash drops it. Writes forwarded
// to a re-syncing shard dual-apply and are never clobbered by the stale
// bytes the transfer stages.
KvServiceResult RunKvService(const KvServiceConfig& cfg);

}  // namespace redn::workload
