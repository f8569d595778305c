#include "workload/kv_service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kv/resync.h"
#include "kv/ring.h"
#include "kv/table.h"
#include "rnic/memory.h"
#include "offloads/failover_chain.h"
#include "offloads/hash_harness.h"
#include "rnic/device.h"
#include "sim/rng.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "verbs/verbs.h"

namespace redn::workload {
namespace {

// Shard s's server-side resources are owned by this pid (kCrash kills it).
constexpr int kShardPidBase = 100;
// Detour fires a chain can serve per (tenant, shard) over the run.
constexpr int kDetourArms = 16;
// Write path: receive slots per put link, ack record size, and the chain
// edge's in-flight forward ring.
constexpr int kPutSlots = 4;
constexpr std::uint32_t kAckBytes = 24;
constexpr std::uint64_t kFwdRing = 256;

std::size_t Pow2AtLeast(std::size_t n) {
  std::size_t p = 1024;
  while (p < n) p <<= 1;
  return p;
}

// Values carry a version tag iff the run has a write path or a crash that
// re-joins (re-sync reconciles by tag). Pure-get configs keep the classic
// untagged layout so their packet traces stay bit-identical.
bool Versioned(const KvServiceConfig& cfg) {
  if (cfg.put_fraction > 0.0) return true;
  for (const FaultEntry& e : cfg.faults.entries) {
    if (e.kind == FaultKind::kCrash && e.up_at > 0) return true;
  }
  return false;
}

// Shard lifecycle during fault windows.
enum class ShardState : std::uint8_t { kServing, kDead, kResyncing };

struct AckedWrite {
  std::uint64_t key;
  std::uint64_t version;
  std::uint64_t mask;  // bit s = shard s confirmed durable at ack time
};

struct Fwd {
  int tenant = 0;
  int peer = 0;
  std::uint64_t key = 0;
  std::uint64_t version = 0;
};

// Chain propagation rides one QP pair per directed ring edge
// s -> SuccessorOf(s).
struct Edge {
  rnic::QueuePair* req = nullptr;  // requester at s
  rnic::QueuePair* rsp = nullptr;  // responder at SuccessorOf(s)
  std::vector<Fwd> ring;           // wr_id -> in-flight forward context
  std::uint64_t next = 0;
};

// One KV shard: its NIC, store, lifecycle and anti-entropy bookkeeping.
struct Shard {
  std::unique_ptr<rnic::RnicDevice> dev;
  std::vector<std::uint64_t> keys;  // primary and backup keys
  std::unique_ptr<kv::RdmaHashTable> table;
  std::unique_ptr<kv::ValueHeap> heap;
  // Key -> value address (stable for the run: puts and re-sync rewrite
  // values in place, so replication and anti-entropy can target fixed
  // remote addresses).
  std::unordered_map<std::uint64_t, std::uint64_t> vaddr;
  ShardState state = ShardState::kServing;
  // The shard missed at least one chain write while unreachable: its heal
  // must run a re-sync before tenants may route reads back to it.
  bool dirty = false;
  // Keys missed while the current anti-entropy pass ran (see resync_pass);
  // the next pass re-reads exactly these.
  std::vector<std::uint64_t> missed;
  // Per-donor (local, donor) QP pair, kept for one whole recovery.
  std::vector<std::pair<rnic::QueuePair*, rnic::QueuePair*>> resync_links;
  Edge edge;  // write path: the chain edge out of this shard
};

// Everything one tenant holds toward one shard s.
struct Link {
  std::unique_ptr<offloads::HashGetHarness> get;
  // Offload policy: a pre-built get against s's chain successor, the WAIT
  // chain that releases it, and the keepalive probe pair.
  std::unique_ptr<offloads::HashGetHarness> detour;
  std::unique_ptr<offloads::ClientFailoverChain> chain;
  rnic::QueuePair* probe_cli = nullptr;
  rnic::QueuePair* probe_srv = nullptr;
  // Write path: a request pair carries tenant -> shard SENDs of
  // [key u64 | payload], an ack pair shard -> tenant SENDs of
  // [key, version, replica mask].
  rnic::QueuePair* req_cli = nullptr;  // tenant-side requester
  rnic::QueuePair* req_srv = nullptr;
  rnic::QueuePair* ack_srv = nullptr;  // shard-side requester
  rnic::QueuePair* ack_cli = nullptr;
  std::unique_ptr<std::byte[]> req_rx;  // shard: kPutSlots x value_len
  rnic::MemoryRegion req_rx_mr;
  std::unique_ptr<std::byte[]> ack_tx;  // shard: kPutSlots x kAckBytes
  rnic::MemoryRegion ack_tx_mr;
  std::unique_ptr<std::byte[]> ack_rx;  // tenant: kPutSlots x kAckBytes
  rnic::MemoryRegion ack_rx_mr;
  std::uint64_t ack_seq = 0;
};

struct Tenant {
  int place = 0;  // event domain of the tenant's NIC and host loop
  std::unique_ptr<rnic::RnicDevice> dev;
  std::vector<Link> links;  // one per shard
  std::unique_ptr<std::byte[]> ptx;  // put request buffer
  rnic::MemoryRegion ptx_mr;
  sim::Rng rng{1};
  int remaining = 0;
  bool started = false;
  bool waiting = false;
  std::uint64_t key = 0;
  int primary = 0;
  int target = 0;
  sim::Nanos t_sent = 0;
  std::uint64_t seq = 0;      // one per op
  std::uint64_t attempt = 0;  // one per send (watchdog staleness guard)
  std::vector<char> dead;     // per-shard "stop routing there" flags
  sim::LatencyRecorder rec;
  sim::Nanos last_mark = 0;
  sim::Nanos max_blip = 0;
  std::uint64_t detours = 0, reroutes = 0, host_reissues = 0;
  // Write path.
  bool is_put = false;
  std::uint64_t puts = 0;
  sim::LatencyRecorder put_rec;
  // Highest fully-acked (both replicas) version per key — the tenant's
  // read-your-writes floor.
  std::unordered_map<std::uint64_t, std::uint64_t> ryw;
  // Shard-local accounting: the tenant's domain owns these, and the
  // run-wide totals are merged after RunUntil (tenant order), so spread
  // placements never write run-global counters from a shard thread.
  sim::Nanos first_sent = -1;
  sim::Nanos last_resp = 0;
  std::uint64_t err_cqes = 0, stale = 0, probes = 0;
  std::uint64_t heal_resends = 0, put_retry = 0, ryw_viol = 0, full_acks = 0;
  std::vector<AckedWrite> ledger;
  // Nonzero while a heal is mid-flight between its tenant-domain and
  // service-domain legs: the server-side offload program is being swapped
  // over there, so sends park until the final leg resumes them.
  int healing = 0;
};

void Validate(const KvServiceConfig& cfg) {
  if (cfg.shards < 2) {
    throw std::invalid_argument(
        "KvServiceConfig: chain replication needs shards >= 2");
  }
  if (cfg.tenants < 1 || cfg.gets_per_tenant < 1 || cfg.keys < 1) {
    throw std::invalid_argument(
        "KvServiceConfig: tenants, gets_per_tenant, keys must be positive");
  }
  ValidateFaultPlan(cfg.faults);
  for (const FaultEntry& e : cfg.faults.entries) {
    if (e.server < 0 || e.server >= cfg.shards) {
      throw std::invalid_argument(
          "FaultPlan: entry names an out-of-range shard");
    }
    if (e.client >= cfg.tenants) {
      throw std::invalid_argument(
          "FaultPlan: entry names an out-of-range tenant");
    }
  }
  if (cfg.put_fraction < 0.0 || cfg.put_fraction > 1.0) {
    throw std::invalid_argument(
        "KvServiceConfig: put_fraction must be in [0, 1]");
  }
  if (cfg.resync_window < 1) {
    throw std::invalid_argument("KvServiceConfig: resync_window must be >= 1");
  }
  if (cfg.put_apply_cost < 0) {
    throw std::invalid_argument(
        "KvServiceConfig: put_apply_cost must be >= 0");
  }
  if (Versioned(cfg) && cfg.value_len < 2 * kv::kValueVersionBytes) {
    throw std::invalid_argument(
        "KvServiceConfig: the versioned value layout (put_fraction > 0 or a "
        "crash window that re-joins) needs value_len >= 16 — 8 bytes of "
        "version tag plus a non-empty payload");
  }
  if (cfg.sim_shards < 1) {
    throw std::invalid_argument("KvServiceConfig: sim_shards must be >= 1");
  }
  if (cfg.service_shard < 0 || cfg.service_shard >= cfg.sim_shards) {
    throw std::invalid_argument(
        "KvServiceConfig: service_shard out of sim_shards range");
  }
  if (!cfg.placement.empty() &&
      cfg.placement.size() != static_cast<std::size_t>(cfg.tenants)) {
    throw std::invalid_argument(
        "KvServiceConfig: placement must be empty or name a shard per tenant");
  }
  for (const int p : cfg.placement) {
    if (p < 0 || p >= cfg.sim_shards) {
      throw std::invalid_argument(
          "KvServiceConfig: placement names an out-of-range sim shard");
    }
  }
}

}  // namespace

KvServiceResult RunKvService(const KvServiceConfig& cfg) {
  Validate(cfg);

  // The KV shards (and the transport's home) live on service_shard; each
  // tenant's NIC lives on placement[t] (empty = co-resident with the
  // service). A co-resident tenant's flow halves cross inline; a spread
  // tenant's ride the mailbox sync (docs/NET.md "Flow halves").
  sim::ShardedSimulator ssim(cfg.sim_shards);
  sim::Simulator& sim = ssim.shard(cfg.service_shard);
  sim::Fabric fabric(cfg.switch_latency);
  sim::TransportConfig tc;
  tc.mtu = cfg.mtu;
  tc.loss = cfg.loss;
  tc.corrupt = cfg.corrupt;
  tc.seed = cfg.transport_seed;
  tc.mode = cfg.selective_repeat ? sim::TransportMode::kSelectiveRepeat
                                 : sim::TransportMode::kGoBackN;
  tc.retry_count = cfg.retry_count;
  tc.rnr_retry_count = cfg.rnr_retry_count;
  tc.timeout_exp = cfg.timeout_exp;
  tc.min_rnr_timer = cfg.min_rnr_timer;
  sim::Transport transport(sim, fabric, tc);

  const kv::ConsistentHashRing ring(cfg.shards, cfg.ring_vnodes, cfg.seed);
  // Service-side code counts straight into the result; tenant-side
  // counters are merged in after the run.
  KvServiceResult out;

  std::vector<Shard> shards(static_cast<std::size_t>(cfg.shards));
  std::vector<Tenant> tenants(static_cast<std::size_t>(cfg.tenants));
  auto shard = [&](int s) -> Shard& {
    return shards[static_cast<std::size_t>(s)];
  };
  auto tenant = [&](int t) -> Tenant& {
    return tenants[static_cast<std::size_t>(t)];
  };
  auto link = [&](int t, int s) -> Link& {
    return tenant(t).links[static_cast<std::size_t>(s)];
  };
  // Tenant t's host logic and NIC run on its place's domain; tsim(t) is
  // the clock and scheduler every tenant-side callback must use.
  auto tsim = [&](int t) -> sim::Simulator& {
    return ssim.shard(tenant(t).place);
  };

  for (int s = 0; s < cfg.shards; ++s) {
    Shard& S = shard(s);
    S.dev = std::make_unique<rnic::RnicDevice>(
        sim, rnic::NicConfig::ConnectX5(), rnic::Calibration{},
        "shard" + std::to_string(s));
    S.dev->AttachPort(0, fabric, {cfg.gbps, cfg.propagation});
  }
  for (int t = 0; t < cfg.tenants; ++t) {
    Tenant& T = tenant(t);
    T.place = cfg.placement.empty()
                  ? cfg.service_shard
                  : cfg.placement[static_cast<std::size_t>(t)];
    T.dev = std::make_unique<rnic::RnicDevice>(
        tsim(t), rnic::NicConfig::ConnectX5(), rnic::Calibration{},
        "tenant" + std::to_string(t));
    T.dev->AttachPort(0, fabric, {cfg.gbps, cfg.propagation});
    T.links.resize(static_cast<std::size_t>(cfg.shards));
    T.rng = sim::Rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
                     static_cast<std::uint64_t>(t + 1));
    T.remaining = cfg.gets_per_tenant;
    T.dead.assign(static_cast<std::size_t>(cfg.shards), 0);
  }

  // --- key placement + shard stores ----------------------------------------
  // Every key lives on its ring primary AND the primary's chain successor.
  for (int k = 1; k <= cfg.keys; ++k) {
    const std::uint64_t key = static_cast<std::uint64_t>(k);
    const int p = ring.PrimaryOf(key);
    shard(p).keys.push_back(key);
    shard(ring.SuccessorOf(p)).keys.push_back(key);
  }
  const bool versioned = Versioned(cfg);
  const std::size_t slot = (static_cast<std::size_t>(cfg.value_len) + 7) & ~std::size_t{7};
  for (Shard& S : shards) {
    const std::size_t cnt = S.keys.size();
    S.table = std::make_unique<kv::RdmaHashTable>(
        *S.dev, kv::RdmaHashTable::Config{.buckets = Pow2AtLeast(4 * cnt + 16)});
    S.heap = std::make_unique<kv::ValueHeap>(*S.dev, cnt * slot + (64 << 10));
    std::vector<std::byte> v(cfg.value_len);
    for (std::uint64_t key : S.keys) {
      std::uint64_t ptr;
      if (versioned) {
        ptr = S.heap->Reserve(cfg.value_len);
        kv::WriteVersionedValue(ptr, cfg.value_len, key, /*version=*/0);
      } else {
        // PutPattern layout: byte i is (key + i) mod 256.
        std::iota(reinterpret_cast<unsigned char*>(v.data()),
                  reinterpret_cast<unsigned char*>(v.data()) + v.size(),
                  static_cast<unsigned char>(key));
        ptr = S.heap->Store(v.data(), cfg.value_len);
      }
      S.table->Insert(key, ptr, cfg.value_len);
      S.vaddr[key] = ptr;
    }
  }

  // Depth-1 closed loops starve on a miss, so tenants draw only keys the
  // 2-bucket NIC probe can see on BOTH replicas.
  std::vector<std::uint64_t> eligible;
  eligible.reserve(static_cast<std::size_t>(cfg.keys));
  for (int k = 1; k <= cfg.keys; ++k) {
    const std::uint64_t key = static_cast<std::uint64_t>(k);
    const int p = ring.PrimaryOf(key);
    if (shard(p).table->NicVisible(key) &&
        shard(ring.SuccessorOf(p)).table->NicVisible(key)) {
      eligible.push_back(key);
    }
  }
  if (eligible.empty()) {
    throw std::runtime_error("RunKvService: no NIC-visible keys");
  }

  // --- harnesses, detour chains ---------------------------------------------
  // Get harnesses serve a depth-1 closed loop from a fixed window that the
  // service's domain refills; detours keep a small lifetime arm.
  const bool offloaded = cfg.policy == FailoverPolicy::kOffloadChain;
  for (int t = 0; t < cfg.tenants; ++t) {
    Tenant& T = tenant(t);
    for (int s = 0; s < cfg.shards; ++s) {
      Shard& S = shard(s);
      Link& L = link(t, s);
      L.get = std::make_unique<offloads::HashGetHarness>(
          *T.dev, *S.dev,
          offloads::HashGetOffload::Config{
              .buckets = 2,
              .max_requests = offloads::HashGetHarness::kClosedLoopWindow,
              .fabric = &fabric,
              .transport = &transport},
          *S.table, *S.heap, /*max_value=*/cfg.value_len + 64);
      L.get->SetServerOwner(kShardPidBase + s);
      L.get->ArmAhead(cfg.gets_per_tenant + 8);
    }
    if (!offloaded) continue;
    for (int s = 0; s < cfg.shards; ++s) {
      const int b = ring.SuccessorOf(s);
      Shard& B = shard(b);
      Link& L = link(t, s);
      L.detour = std::make_unique<offloads::HashGetHarness>(
          *T.dev, *B.dev,
          offloads::HashGetOffload::Config{.buckets = 2,
                                           .max_requests = kDetourArms + 4,
                                           .fabric = &fabric,
                                           .transport = &transport,
                                           .managed_client_sq = true},
          *B.table, *B.heap, /*max_value=*/cfg.value_len + 64);
      L.detour->SetServerOwner(kShardPidBase + b);
      L.detour->Arm(kDetourArms);
      L.detour->PrepostResponseRecvs(kDetourArms + 4);
    }
    for (Link& L : T.links) {
      L.chain = std::make_unique<offloads::ClientFailoverChain>(
          *L.get, *L.detour, kDetourArms);
      L.chain->Arm();
    }
  }

  // One end of a QP pair on `dev`, owned by pid `owner` (a shard end dies
  // with its shard's crash). A null `send_cq` gets a fresh CQ.
  const std::uint32_t rq_default = rnic::QpConfig{}.rq_depth;
  auto make_qp = [](rnic::RnicDevice& dev, int owner, std::uint32_t rq_depth,
                    rnic::CompletionQueue* send_cq) {
    rnic::QpConfig qc;
    qc.rq_depth = rq_depth;
    qc.send_cq = send_cq != nullptr ? send_cq : dev.CreateCq();
    qc.recv_cq = dev.CreateCq();
    qc.owner_pid = owner;
    return dev.CreateQp(qc);
  };

  // Keepalive probe QPs (offload policy): one per (tenant, shard), the
  // client end sharing the primary connection's send CQ so a probe failure
  // CQE trips the same WAIT the trigger failures do. Probes are unsignaled
  // zero-byte SENDs — healthy probes keep the CQ silent.
  if (offloaded) {
    for (int t = 0; t < cfg.tenants; ++t) {
      for (int s = 0; s < cfg.shards; ++s) {
        Link& L = link(t, s);
        L.probe_srv = make_qp(*shard(s).dev, kShardPidBase + s, 512, nullptr);
        L.probe_cli = make_qp(*tenant(t).dev, 0, rq_default,
                              L.get->client_qp()->send_cq);
        rnic::ConnectOverTransport(L.probe_cli, L.probe_srv, transport);
        verbs::RecvWr rwr;
        for (int i = 0; i < 64; ++i) verbs::PostRecv(L.probe_srv, rwr);
      }
    }
  }

  // --- write path: put links + chain edges -----------------------------------
  // Puts ride dedicated QP pairs (the get path's trigger/response plumbing
  // is an offload program with a fixed request shape): per (tenant, shard)
  // a request pair and an ack pair (Link). Along each chain edge the
  // primary RDMA-WRITEs the whole versioned value into the successor's
  // heap slot and treats the WRITE's completion as "the peer durably
  // applied" — only then does it ack the tenant.
  const bool writes = cfg.put_fraction > 0.0;
  auto post_req_slot = [&](Link& L, int slot) {
    verbs::RecvWr r;
    r.wr_id = static_cast<std::uint64_t>(slot);
    r.local_addr = L.req_rx_mr.addr +
                   static_cast<std::uint64_t>(slot) * cfg.value_len;
    r.length = cfg.value_len;
    r.lkey = L.req_rx_mr.lkey;
    verbs::PostRecv(L.req_srv, r);
  };
  auto post_ack_slot = [&](Link& L, int slot) {
    verbs::RecvWr r;
    r.wr_id = static_cast<std::uint64_t>(slot);
    r.local_addr = L.ack_rx_mr.addr +
                   static_cast<std::uint64_t>(slot) * kAckBytes;
    r.length = kAckBytes;
    r.lkey = L.ack_rx_mr.lkey;
    verbs::PostRecv(L.ack_cli, r);
  };
  if (writes) {
    for (int t = 0; t < cfg.tenants; ++t) {
      Tenant& T = tenant(t);
      auto& td = *T.dev;
      T.ptx = std::make_unique<std::byte[]>(cfg.value_len);
      T.ptx_mr = td.pd().Register(T.ptx.get(), cfg.value_len, rnic::kAccessAll);
      for (int s = 0; s < cfg.shards; ++s) {
        auto& sd = *shard(s).dev;
        Link& L = link(t, s);
        L.req_srv = make_qp(sd, kShardPidBase + s, 64, nullptr);
        L.req_cli = make_qp(td, 0, rq_default, nullptr);
        rnic::ConnectOverTransport(L.req_cli, L.req_srv, transport);
        L.req_rx = std::make_unique<std::byte[]>(
            static_cast<std::size_t>(kPutSlots) * cfg.value_len);
        L.req_rx_mr = sd.pd().Register(
            L.req_rx.get(), static_cast<std::size_t>(kPutSlots) * cfg.value_len,
            rnic::kAccessAll);
        L.ack_srv = make_qp(sd, kShardPidBase + s, rq_default, nullptr);
        L.ack_cli = make_qp(td, 0, 64, nullptr);
        rnic::ConnectOverTransport(L.ack_srv, L.ack_cli, transport);
        L.ack_tx = std::make_unique<std::byte[]>(
            static_cast<std::size_t>(kPutSlots) * kAckBytes);
        L.ack_tx_mr = sd.pd().Register(
            L.ack_tx.get(), static_cast<std::size_t>(kPutSlots) * kAckBytes,
            rnic::kAccessAll);
        L.ack_rx = std::make_unique<std::byte[]>(
            static_cast<std::size_t>(kPutSlots) * kAckBytes);
        L.ack_rx_mr = td.pd().Register(
            L.ack_rx.get(), static_cast<std::size_t>(kPutSlots) * kAckBytes,
            rnic::kAccessAll);
        for (int i = 0; i < kPutSlots; ++i) {
          post_req_slot(L, i);
          post_ack_slot(L, i);
        }
      }
    }
    for (int s = 0; s < cfg.shards; ++s) {
      const int b = ring.SuccessorOf(s);
      Edge& E = shard(s).edge;
      E.ring.resize(kFwdRing);
      E.req = make_qp(*shard(s).dev, kShardPidBase + s, rq_default, nullptr);
      E.rsp = make_qp(*shard(b).dev, kShardPidBase + b, rq_default, nullptr);
      rnic::ConnectOverTransport(E.req, E.rsp, transport);
    }
  }

  // --- Zipf sampling ---------------------------------------------------------
  // p(rank r) ~ 1/(r+1)^theta over the eligible keyspace; per-tenant streams
  // rotate the ranking so tenants have distinct (overlapping) hot sets.
  const std::size_t nkeys = eligible.size();
  std::vector<double> cdf;
  if (cfg.zipf_theta > 0) {
    cdf.resize(nkeys);
    double acc = 0;
    for (std::size_t r = 0; r < nkeys; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), cfg.zipf_theta);
      cdf[r] = acc;
    }
  }
  const std::size_t rot = std::max<std::size_t>(1, nkeys / static_cast<std::size_t>(cfg.tenants));

  const sim::Nanos base_rto =
      cfg.timeout_exp > 0 ? (sim::Nanos{4096} << cfg.timeout_exp) : tc.rto;
  const sim::Nanos host_timeout =
      cfg.host_timeout > 0 ? cfg.host_timeout : 16 * base_rto;
  // One-way endpoint->endpoint latency: the legal (and exact) cross-shard
  // mailbox hop between a spread tenant's domain and the service shard.
  const sim::Nanos hop = 2 * cfg.propagation + cfg.switch_latency;

  // Runs `fn` on domain `to` from domain `from`: inline when they are one
  // domain (a co-resident tenant and the service), else as a mailbox
  // message one fabric hop later — a spread client really would learn of
  // a heal over the wire. Heal legs, routing reopens and probe RQ top-ups
  // all cross here, so every placement runs the same code.
  auto cross = [&](int from, int to, auto fn) {
    if (from == to) {
      fn();
      return;
    }
    sim::Simulator& src = ssim.shard(from);
    src.SendTo(to, src.now() + hop, std::move(fn));
  };

  auto draw = [&](int t) -> std::uint64_t {
    Tenant& T = tenant(t);
    std::size_t rank;
    if (cdf.empty()) {
      rank = static_cast<std::size_t>(T.rng.NextBelow(nkeys));
    } else {
      const double u = T.rng.NextDouble() * cdf.back();
      rank = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      if (rank >= nkeys) rank = nkeys - 1;
    }
    return eligible[(rank + static_cast<std::size_t>(t) * rot) % nkeys];
  };

  std::function<void(int)> send_fn;
  std::function<void(int)> issue_next;
  std::function<void(int, std::uint64_t, std::uint64_t, int)> probe_fn;

  // Keepalive tick: as long as the same send is still pending against
  // primary `p`, ping the probe QP and reschedule. A dead or blackholed
  // shard turns a probe into the failure CQE that fires the detour chain;
  // a completed get cancels the next tick via the seq/attempt guard.
  probe_fn = [&](int t, std::uint64_t seq, std::uint64_t attempt, int p) {
    Tenant& T = tenant(t);
    if (!T.waiting || T.seq != seq || T.attempt != attempt) return;
    const Link& L = link(t, p);
    if (L.probe_cli->sq.error || L.probe_cli->state != rnic::QpState::kRts) {
      return;  // a probe already tripped; the chain fired or is firing
    }
    verbs::PostSendNow(L.probe_cli,
                       verbs::MakeSend(0, 0, 0, /*signaled=*/false));
    ++T.probes;
    // Keep the responder's RQ topped up. It belongs to the service shard,
    // so a spread tenant's top-up rides the mailbox at the one-way latency
    // (the probe itself takes at least as long to arrive).
    cross(T.place, cfg.service_shard, [ps = L.probe_srv] {
      if (ps->alive && ps->state == rnic::QpState::kRts) {
        verbs::RecvWr rwr;
        verbs::PostRecv(ps, rwr);
      }
    });
    tsim(t).After(cfg.probe_interval,
                  [&, t, seq, attempt, p] { probe_fn(t, seq, attempt, p); });
  };

  auto schedule_watchdog = [&](int t) {
    Tenant& T = tenant(t);
    const std::uint64_t seq = T.seq, attempt = T.attempt;
    sim::Simulator& ts = tsim(t);
    ts.At(ts.now() + host_timeout, [&, t, seq, attempt] {
      Tenant& W = tenant(t);
      if (!W.waiting || W.seq != seq || W.attempt != attempt) return;
      // The send is stuck past the application RPC timer: declare its
      // target dead and re-issue from the CPU (the multi-RTO stall).
      W.dead[static_cast<std::size_t>(W.target)] = 1;
      if (W.is_put) {
        ++W.put_retry;  // puts have no detour chain; the watchdog is their
                        // only failure detector
      } else {
        ++W.host_reissues;
      }
      tsim(t).After(cfg.host_reissue_cost, [&, t, seq] {
        Tenant& W2 = tenant(t);
        if (!W2.waiting || W2.seq != seq) return;
        send_fn(t);
      });
    });
  };

  // Parks tenant t's op host-side (not in flight) and retries it in 1 ms,
  // unless a heal resumed it first.
  auto park = [&](int t) {
    tsim(t).After(sim::Millis(1), [&, t] {
      Tenant& W = tenant(t);
      if (W.waiting || W.remaining <= 0) return;
      send_fn(t);
    });
    tenant(t).waiting = false;
  };

  send_fn = [&](int t) {
    Tenant& T = tenant(t);
    sim::Simulator& ts = tsim(t);
    if (T.healing > 0) {
      // A heal is rebuilding this tenant's server-side programs on the
      // service shard; park like the no-live-replica case and let the
      // heal's final leg (or this retry) resume.
      park(t);
      return;
    }
    const int p = ring.PrimaryOf(T.key);
    T.primary = p;
    const int b = ring.SuccessorOf(p);
    const int pref = T.dead[static_cast<std::size_t>(p)] ? b : p;
    const int alt = pref == p ? b : p;
    if (T.is_put) {
      // Chain-ordered write: the put goes to the chain head (the primary;
      // the successor acts as a degraded head only while the primary is
      // unroutable). No detour chain covers puts — the host watchdog is
      // the backstop for a put swallowed by a fault.
      for (const int target : {pref, alt}) {
        if (T.dead[static_cast<std::size_t>(target)]) continue;
        Link& L = link(t, target);
        if (L.req_cli->sq.error || L.req_cli->state != rnic::QpState::kRts) {
          T.dead[static_cast<std::size_t>(target)] = 1;
          continue;
        }
        rnic::dma::WriteU64(T.ptx_mr.addr, T.key);
        auto* pay = reinterpret_cast<std::uint8_t*>(T.ptx_mr.addr);
        for (std::uint32_t i = kv::kValueVersionBytes; i < cfg.value_len;
             ++i) {
          pay[i] = static_cast<std::uint8_t>((T.key + i) & 0xff);
        }
        verbs::PostSendNow(L.req_cli,
                           verbs::MakeSend(T.ptx_mr.addr, cfg.value_len,
                                           T.ptx_mr.lkey, /*signaled=*/false));
        if (target != p) ++T.reroutes;
        T.target = target;
        T.waiting = true;
        ++T.attempt;
        if (T.first_sent < 0) T.first_sent = ts.now();
        schedule_watchdog(t);
        return;
      }
      park(t);
      return;
    }
    for (const int target : {pref, alt}) {
      if (T.dead[static_cast<std::size_t>(target)]) continue;
      Link& L = link(t, target);
      if (target == p && offloaded) {
        // Healthy-path host work: keep the parked detour's trigger bytes
        // pointing at the in-flight key.
        L.chain->SetKey(T.key);
      }
      if (!L.get->SendTriggerBlind(T.key)) {
        // The local QP is wrecked (errored earlier and not yet healed) —
        // that much the host can see without peering into the server.
        T.dead[static_cast<std::size_t>(target)] = 1;
        continue;
      }
      if (target != p) ++T.reroutes;
      T.target = target;
      T.waiting = true;
      ++T.attempt;
      if (T.first_sent < 0) T.first_sent = ts.now();
      // The detour chain covers gets aimed at a live primary; everything
      // else (baseline policy, or a get already running on the backup)
      // falls back to the host watchdog so no get can be lost.
      if (cfg.policy == FailoverPolicy::kHostReissue || target != p) {
        schedule_watchdog(t);
      } else if (cfg.probe_interval > 0) {
        const std::uint64_t seq = T.seq, attempt = T.attempt;
        ts.After(cfg.probe_interval,
                 [&, t, seq, attempt, p] { probe_fn(t, seq, attempt, p); });
      }
      return;
    }
    // No live replica right now — retry once a heal had a chance to land.
    park(t);
  };

  issue_next = [&](int t) {
    Tenant& T = tenant(t);
    if (T.remaining <= 0) return;
    sim::Simulator& ts = tsim(t);
    if (!T.started) {
      T.started = true;
      T.last_mark = ts.now();
    }
    T.key = draw(t);
    // The mix draw happens only on write-enabled runs so pure-get configs
    // consume exactly the RNG stream they always did (bit-compat).
    T.is_put = writes && T.rng.NextDouble() < cfg.put_fraction;
    T.t_sent = ts.now();
    send_fn(t);
  };

  auto complete = [&](int t, bool via_detour) {
    Tenant& T = tenant(t);
    sim::Simulator& ts = tsim(t);
    T.waiting = false;
    if (T.is_put) {
      T.put_rec.Add(ts.now() - T.t_sent);
      ++T.puts;
    } else {
      T.rec.Add(ts.now() - T.t_sent);
    }
    T.max_blip = std::max(T.max_blip, ts.now() - T.last_mark);
    T.last_mark = ts.now();
    T.last_resp = std::max(T.last_resp, ts.now());
    if (via_detour) {
      T.dead[static_cast<std::size_t>(T.primary)] = 1;
      ++T.detours;
    }
    ++T.seq;
    --T.remaining;
    if (T.remaining > 0) issue_next(t);
  };

  // Completes the op in flight toward shard s with the responses of `h`:
  // tenant t's get harness for s, or (`via_detour`) the detour that fires
  // when primary s fails.
  auto hook_responses = [&](int t, int s, offloads::HashGetHarness* h,
                            bool via_detour) {
    h->client_recv_cq()->SetHostNotify([&, t, s, h, via_detour] {
      Tenant& T = tenant(t);
      rnic::Cqe cqe;
      while (T.dev->PollCq(h->client_recv_cq(), 1, &cqe) == 1) {
        if (cqe.status != rnic::WcStatus::kSuccess) {
          ++T.err_cqes;  // flushed RECVs from an errored QP
          continue;
        }
        h->NoteOpenLoopResponse(cqe.qp_id);
        if (!T.waiting || T.target != s) {
          ++T.stale;
          continue;
        }
        if (versioned && !T.is_put) {
          const auto it = T.ryw.find(T.key);
          if (it != T.ryw.end() && h->ResponseVersion() < it->second) {
            ++T.ryw_viol;  // older than this tenant's own acked write
          }
        }
        complete(t, via_detour);
      }
    });
  };
  for (int t = 0; t < cfg.tenants; ++t) {
    for (int s = 0; s < cfg.shards; ++s) {
      Link& L = link(t, s);
      hook_responses(t, s, L.get.get(), /*via_detour=*/false);
      if (offloaded) hook_responses(t, s, L.detour.get(), /*via_detour=*/true);
    }
    tsim(t).At(static_cast<sim::Nanos>(t) * 311 + 17,
               [&, t] { issue_next(t); });
  }

  // --- write path: apply, propagate, ack -------------------------------------
  auto send_put_ack = [&](int t, int s, std::uint64_t key,
                          std::uint64_t version, std::uint64_t mask) {
    Link& L = link(t, s);
    if (!L.ack_srv->alive || L.ack_srv->sq.error ||
        L.ack_srv->state != rnic::QpState::kRts) {
      return;  // the tenant's watchdog re-issues; the apply is durable
    }
    const int slot = static_cast<int>(L.ack_seq++ %
                                      static_cast<std::uint64_t>(kPutSlots));
    const std::uint64_t a =
        L.ack_tx_mr.addr + static_cast<std::uint64_t>(slot) * kAckBytes;
    rnic::dma::WriteU64(a, key);
    rnic::dma::WriteU64(a + 8, version);
    rnic::dma::WriteU64(a + 16, mask);
    verbs::PostSendNow(L.ack_srv, verbs::MakeSend(a, kAckBytes,
                                                  L.ack_tx_mr.lkey,
                                                  /*signaled=*/false));
  };

  // Shard `s` missed the write of `key` (another replica acked it alone):
  // mark s dirty so its heal runs anti-entropy, and if s is re-syncing
  // right now queue the key for a follow-up pass — the running pass may
  // already have read the donor's older bytes.
  auto note_missed = [&](int s, std::uint64_t key) {
    Shard& S = shard(s);
    S.dirty = true;
    ++out.degraded_acks;
    if (S.state == ShardState::kResyncing) S.missed.push_back(key);
  };

  // Applies one put at shard `s` and drives the chain: the primary
  // propagates to its successor and acks only on the WRITE's completion;
  // a degraded head (successor serving while the primary is down, or a
  // primary whose successor is unreachable) acks alone and marks the
  // absent peer dirty so its heal runs anti-entropy.
  auto apply_put = [&](int t, int s, std::uint64_t key) {
    Shard& S = shard(s);
    const auto it = S.vaddr.find(key);
    if (it == S.vaddr.end()) return;  // not a replica of this key
    const std::uint64_t addr = it->second;
    const std::uint64_t version = kv::ValueVersion(addr) + 1;
    kv::WriteVersionedValue(addr, cfg.value_len, key, version);
    const int p = ring.PrimaryOf(key);
    if (s != p) {
      // Degraded head: the tenant routed here because the primary was
      // unroutable — the primary is missing this write.
      note_missed(p, key);
      send_put_ack(t, s, key, version, 1ULL << s);
      return;
    }
    const int b = ring.SuccessorOf(p);
    Shard& B = shard(b);
    Edge& E = S.edge;
    const bool peer_up = B.state != ShardState::kDead && E.req->alive &&
                         !E.req->sq.error &&
                         E.req->state == rnic::QpState::kRts;
    if (!peer_up) {
      note_missed(b, key);
      send_put_ack(t, s, key, version, 1ULL << s);
      return;
    }
    // Ring indices wrap at kFwdRing; depth-1 tenants bound in-flight
    // forwards to cfg.tenants, far below the ring size.
    const std::uint64_t idx = E.next++;
    E.ring[idx % kFwdRing] = Fwd{t, b, key, version};
    verbs::SendWr wr =
        verbs::MakeWrite(addr, cfg.value_len, S.heap->lkey(), B.vaddr[key],
                         B.heap->rkey(), /*signaled=*/true);
    wr.wr_id = idx % kFwdRing;
    verbs::PostSendNow(E.req, wr);
    ++out.chain_forwards;
  };

  if (writes) {
    for (int t = 0; t < cfg.tenants; ++t) {
      for (int s = 0; s < cfg.shards; ++s) {
        Link& L = link(t, s);
        // Shard side: request arrival -> host apply after put_apply_cost.
        L.req_srv->recv_cq->SetHostNotify([&, t, s] {
          Link& LL = link(t, s);
          rnic::Cqe cqe;
          while (shard(s).dev->PollCq(LL.req_srv->recv_cq, 1, &cqe) == 1) {
            if (cqe.status != rnic::WcStatus::kSuccess) {
              ++out.error_cqes;
              continue;
            }
            const int slot = static_cast<int>(cqe.wr_id);
            const std::uint64_t key = rnic::dma::ReadU64(
                LL.req_rx_mr.addr +
                static_cast<std::uint64_t>(slot) * cfg.value_len);
            // The apply regenerates bytes from (key, version), so the slot
            // can be reposted immediately.
            post_req_slot(LL, slot);
            sim.After(cfg.put_apply_cost,
                      [&, t, s, key] { apply_put(t, s, key); });
          }
        });
        // Tenant side: ack arrival -> ledger + RYW floor + completion.
        L.ack_cli->recv_cq->SetHostNotify([&, t, s] {
          Tenant& T = tenant(t);
          Link& LL = link(t, s);
          rnic::Cqe cqe;
          while (T.dev->PollCq(LL.ack_cli->recv_cq, 1, &cqe) == 1) {
            if (cqe.status != rnic::WcStatus::kSuccess) {
              ++T.err_cqes;
              continue;
            }
            const int slot = static_cast<int>(cqe.wr_id);
            const std::uint64_t a =
                LL.ack_rx_mr.addr + static_cast<std::uint64_t>(slot) * kAckBytes;
            const std::uint64_t key = rnic::dma::ReadU64(a);
            const std::uint64_t version = rnic::dma::ReadU64(a + 8);
            const std::uint64_t mask = rnic::dma::ReadU64(a + 16);
            post_ack_slot(LL, slot);
            // Even a stale ack (the watchdog already re-issued) attests a
            // durable apply: it belongs in the ledger and lifts the RYW
            // floor. Only the op completion is staleness-guarded.
            T.ledger.push_back(AckedWrite{key, version, mask});
            if (__builtin_popcountll(mask) >= 2) {
              std::uint64_t& floor = T.ryw[key];
              floor = std::max(floor, version);
              ++T.full_acks;
            }
            if (!T.waiting || !T.is_put || T.key != key || T.target != s) {
              ++T.stale;
              continue;
            }
            complete(t, /*via_detour=*/false);
          }
        });
      }
    }
    for (int s = 0; s < cfg.shards; ++s) {
      // Forward completion at the primary: the successor durably holds the
      // bytes -> full-chain ack. An error CQE means the propagation died
      // (peer crashed / link black) -> degraded ack + dirty peer.
      shard(s).edge.req->send_cq->SetHostNotify([&, s] {
        Edge& E = shard(s).edge;
        rnic::Cqe cqe;
        while (shard(s).dev->PollCq(E.req->send_cq, 1, &cqe) == 1) {
          const Fwd f = E.ring[cqe.wr_id % kFwdRing];
          if (cqe.status == rnic::WcStatus::kSuccess) {
            send_put_ack(f.tenant, s, f.key, f.version,
                         (1ULL << s) | (1ULL << f.peer));
          } else {
            ++out.error_cqes;
            note_missed(f.peer, f.key);
            send_put_ack(f.tenant, s, f.key, f.version, 1ULL << s);
          }
        }
      });
    }
  }

  // --- the fault plan --------------------------------------------------------
  auto tenant_in_scope = [&](const FaultEntry& e, int t) {
    return e.client < 0 || e.client == t;
  };
  auto cycle_qp = [](rnic::QueuePair* q) {
    q->device->ModifyQp(q, rnic::QpState::kReset);
    q->device->ModifyQp(q, rnic::QpState::kInit);
    q->device->ModifyQp(q, rnic::QpState::kRtr);
    q->device->ModifyQp(q, rnic::QpState::kRts);
  };
  auto qp_unhealthy = [](rnic::QueuePair* q) {
    return q->state == rnic::QpState::kError || q->sq.error || !q->alive;
  };
  // Closes a fault window: the degraded span runs from its down_at to now.
  auto note_window = [&](sim::Nanos down_at) {
    out.degraded_window_us =
        std::max(out.degraded_window_us, sim::ToMicros(sim.now() - down_at));
  };

  // Gray failure: flaky links drop seeded loss bursts. Burst and gap
  // lengths draw uniform [0.5x, 1.5x] of their configured means from a
  // per-entry RNG, so flaky windows are deterministic per (seed, entry).
  std::vector<char> flaky_on(cfg.faults.entries.size(), 0);
  std::vector<sim::Rng> flaky_rng;
  for (std::size_t i = 0; i < cfg.faults.entries.size(); ++i) {
    flaky_rng.push_back(sim::Rng(cfg.seed ^ (0xf1a57ULL * (i + 1)) ^
                                 0x9e3779b97f4a7c15ULL));
  }
  std::function<void(std::size_t, int)> flaky_burst = [&](std::size_t ei,
                                                          int s) {
    if (!flaky_on[ei]) return;
    const FaultEntry& e = cfg.faults.entries[ei];
    const int ep = shard(s).dev->fabric_endpoint(0);
    transport.SetLinkFaults(ep, e.flaky_loss, cfg.corrupt);
    const sim::Nanos burst = static_cast<sim::Nanos>(
        (0.5 + flaky_rng[ei].NextDouble()) *
        static_cast<double>(e.flaky_burst));
    sim.After(burst, [&, ei, s, ep] {
      if (flaky_on[ei]) transport.SetLinkFaults(ep, cfg.loss, cfg.corrupt);
      const sim::Nanos gap = static_cast<sim::Nanos>(
          (0.5 + flaky_rng[ei].NextDouble()) *
          static_cast<double>(cfg.faults.entries[ei].flaky_gap));
      sim.After(gap, [&, ei, s] { flaky_burst(ei, s); });
    });
  };

  // Heals the write-path plumbing touching shard `s`: every tenant's put
  // link to s, then the chain edges into and out of s. A link heals in two
  // legs: the tenant's domain checks its own ends (told whether the shard
  // ends went bad) and cycles them, then the service's domain cycles the
  // shard ends and re-posts the request slots once both ends are fresh (a
  // put racing a spread tenant's legs just RNR-retries).
  auto heal_put_links = [&](int s) {
    if (!writes) return;
    for (int t = 0; t < cfg.tenants; ++t) {
      const Link& L = link(t, s);
      const bool srv_bad = qp_unhealthy(L.req_srv) || qp_unhealthy(L.ack_srv);
      const int home = tenant(t).place;
      cross(cfg.service_shard, home, [&, t, s, srv_bad, home] {
        Tenant& T = tenant(t);
        Link& LT = link(t, s);
        if (!srv_bad && !qp_unhealthy(LT.req_cli) &&
            !qp_unhealthy(LT.ack_cli)) {
          return;
        }
        // Drain flushed/error CQEs nothing else polls.
        rnic::Cqe cqe;
        for (rnic::QueuePair* q : {LT.req_cli, LT.ack_cli}) {
          while (T.dev->PollCq(q->send_cq, 1, &cqe) == 1) {
            if (cqe.status != rnic::WcStatus::kSuccess) ++T.err_cqes;
          }
        }
        cycle_qp(LT.req_cli);
        cycle_qp(LT.ack_cli);
        for (int i = 0; i < kPutSlots; ++i) post_ack_slot(LT, i);
        cross(home, cfg.service_shard, [&, t, s] {
          Link& LS = link(t, s);
          cycle_qp(LS.req_srv);
          cycle_qp(LS.ack_srv);
          for (int i = 0; i < kPutSlots; ++i) post_req_slot(LS, i);
        });
      });
    }
    for (int x = 0; x < cfg.shards; ++x) {
      if (x != s && ring.SuccessorOf(x) != s) continue;
      Edge& E = shard(x).edge;
      if (!(qp_unhealthy(E.req) || qp_unhealthy(E.rsp))) continue;
      rnic::Cqe cqe;
      while (shard(x).dev->PollCq(E.req->send_cq, 1, &cqe) == 1) {
        if (cqe.status != rnic::WcStatus::kSuccess) {
          // A flushed forward: the peer never confirmed. Degraded-ack it
          // so the tenant's put is not stranded, and mark the peer dirty.
          const Fwd f = E.ring[cqe.wr_id % kFwdRing];
          ++out.error_cqes;
          note_missed(f.peer, f.key);
          send_put_ack(f.tenant, x, f.key, f.version, 1ULL << x);
        }
      }
      cycle_qp(E.req);
      cycle_qp(E.rsp);
    }
  };

  // Per-tenant get-path recovery for shard `s`, in three legs: the
  // tenant's domain (client-side QP halves, routing flags), the service's
  // domain (server-side halves and offload program rebuilds), and the
  // tenant's domain again, which resumes sends only once the fresh server
  // program is armed. The legs cross through `cross`: a co-resident
  // tenant runs all three inline at the heal instant, and T.healing parks
  // a spread tenant's sends across the window so no trigger races the
  // program swap. `crash` forces a full transport re-arm (the server side
  // was revived in ERROR even if the client QP never noticed);
  // `clear_dead` restores routing to s now, while a re-syncing shard
  // instead CLOSES routing for every tenant in scope and defers the reopen
  // to finish_recovery — otherwise a tenant that never saw the outage
  // (e.g. parked on the put watchdog the whole window) could read the
  // wiped store before anti-entropy drains.
  auto heal_tenants = [&](const FaultEntry& e, int s, bool crash,
                          bool clear_dead) {
    for (int t = 0; t < cfg.tenants; ++t) {
      if (!tenant_in_scope(e, t)) continue;
      const int home = tenant(t).place;
      // A response that ran out of retries errors only the server half:
      // the client sees no CQE, and the keepalives ride their own healthy
      // QP pair, so only the service's domain can tell.
      const bool srv_err =
          link(t, s).get->server_qp()->state == rnic::QpState::kError;
      cross(cfg.service_shard, home,
            [&, s, t, home, crash, clear_dead, srv_err] {
        Tenant& T = tenant(t);
        Link& L = link(t, s);
        rnic::QueuePair* qp = L.get->client_qp();
        const bool errored = qp->state == rnic::QpState::kError;
        const bool routed_off = T.dead[static_cast<std::size_t>(s)] != 0;
        if (!clear_dead) T.dead[static_cast<std::size_t>(s)] = 1;
        if (!errored && !srv_err && !crash && !routed_off) return;
        ++T.healing;
        // Drain the failure CQEs nothing else polls (the WAIT chain
        // consumed them NIC-side; this is host bookkeeping).
        rnic::Cqe cqe;
        while (T.dev->PollCq(qp->send_cq, 1, &cqe) == 1) {
          if (cqe.status != rnic::WcStatus::kSuccess) ++T.err_cqes;
        }
        const bool rearm = errored || srv_err || crash;
        const int arm_n = T.remaining + 8;
        if (rearm) L.get->RearmTransportClientHalf();
        if (clear_dead) T.dead[static_cast<std::size_t>(s)] = 0;
        bool pc_err = false;
        std::vector<std::pair<int, char>> detours;  // (column, client errored)
        if (offloaded) {
          if (qp->send_cq->hw_count() >= L.chain->wait_threshold()) {
            L.chain->Rearm();  // the old WAIT fired; park a fresh detour
          }
          pc_err = L.probe_cli->state == rnic::QpState::kError;
          if (pc_err) cycle_qp(L.probe_cli);
          if (crash) {
            // Detours whose BACKUP is the re-joined shard parked their get
            // on QPs the crash flushed; re-arm them and park fresh detours.
            for (int x = 0; x < cfg.shards; ++x) {
              if (ring.SuccessorOf(x) != s) continue;
              offloads::HashGetHarness& f = *link(t, x).detour;
              const bool fc = f.client_qp()->state == rnic::QpState::kError;
              if (fc) f.RearmTransportClientHalf();
              detours.emplace_back(x, fc ? 1 : 0);
            }
          }
        }
        cross(home, cfg.service_shard,
              [&, s, t, home, rearm, arm_n, pc_err,
               detours = std::move(detours)] {
          Link& LS = link(t, s);
          if (rearm) {
            LS.get->RearmTransportServerHalf(arm_n);
            LS.get->SetServerOwner(kShardPidBase + s);  // re-tag the program
          }
          bool cycle_pc = false;
          // Detour columns the final leg must finish: (column, client half
          // still to cycle).
          std::vector<std::pair<int, char>> fresh;
          if (offloaded) {
            if (pc_err || LS.probe_srv->state == rnic::QpState::kError) {
              cycle_pc = !pc_err;  // only the server end tripped
              cycle_qp(LS.probe_srv);
              verbs::RecvWr rwr;
              for (int i = 0; i < 64; ++i) verbs::PostRecv(LS.probe_srv, rwr);
            }
            for (const auto& [x, fc] : detours) {
              offloads::HashGetHarness& f = *link(t, x).detour;
              const bool fs = f.server_qp()->state == rnic::QpState::kError;
              if (!fc && !fs) continue;
              f.RearmTransportServerHalf(kDetourArms);
              f.SetServerOwner(kShardPidBase + s);
              fresh.emplace_back(x, fc ? 0 : 1);
            }
          }
          cross(cfg.service_shard, home,
                [&, s, t, cycle_pc, fresh = std::move(fresh)] {
            Tenant& TF = tenant(t);
            if (cycle_pc) cycle_qp(link(t, s).probe_cli);
            for (const auto& [x, nc] : fresh) {
              Link& LX = link(t, x);
              if (nc) LX.detour->RearmTransportClientHalf();
              LX.detour->PrepostResponseRecvs(kDetourArms + 4);
              LX.chain->Rearm();
            }
            --TF.healing;
            if (TF.waiting && TF.target == s) {
              // The pending op died in the reset's flush — re-send it (its
              // latency keeps accruing from the original t_sent; send_fn
              // respects the dead flags, so a re-syncing s is avoided).
              ++TF.heal_resends;
              send_fn(t);
            } else if (!TF.waiting && TF.remaining > 0 && TF.started) {
              // The tenant parked because both replicas looked dead.
              send_fn(t);
            }
          });
        });
      });
    }
  };

  // Recovery completes only when anti-entropy has drained: the shard
  // returns to kServing, routing re-opens, and the degraded window closes.
  auto finish_recovery = [&](int s, sim::Nanos down_at) {
    shard(s).state = ShardState::kServing;
    shard(s).dirty = false;
    note_window(down_at);
    for (int t = 0; t < cfg.tenants; ++t) {
      // The routing flag and resume belong to the tenant's domain.
      cross(cfg.service_shard, tenant(t).place, [&, t, s] {
        Tenant& T = tenant(t);
        T.dead[static_cast<std::size_t>(s)] = 0;
        if (!T.waiting && T.remaining > 0 && T.started) send_fn(t);
      });
    }
  };

  // Anti-entropy runs in passes. Each pass streams a list of s's keys back
  // from its chain peers: for each key the donor is the other replica (the
  // primary if s backs it up, the successor if s owns it), one session per
  // donor over a QP pair kept for the whole recovery. The first pass reads
  // s's whole key range; a write s misses meanwhile is queued in its
  // `missed` list (note_missed), and the next pass re-reads exactly those
  // keys. Only a pass that misses nothing lets s serve again.
  std::vector<std::unique_ptr<kv::ResyncSession>> sessions;
  std::function<void(int, sim::Nanos, const std::vector<std::uint64_t>&)>
      resync_pass;
  auto pass_done = [&](int s, sim::Nanos down_at) {
    std::vector<std::uint64_t> keys;
    keys.swap(shard(s).missed);
    if (keys.empty()) {
      finish_recovery(s, down_at);
      return;
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    // From a fresh event: the finishing session's CQ hook is still running,
    // and the next pass's session takes that hook over.
    sim.At(sim.now(), [&, s, down_at, keys = std::move(keys)] {
      resync_pass(s, down_at, keys);
    });
  };
  resync_pass = [&](int s, sim::Nanos down_at,
                    const std::vector<std::uint64_t>& keys) {
    Shard& S = shard(s);
    std::vector<std::vector<kv::ResyncSession::Item>> by_donor(
        static_cast<std::size_t>(cfg.shards));
    for (std::uint64_t key : keys) {
      const int p = ring.PrimaryOf(key);
      const int donor = p == s ? ring.SuccessorOf(p) : p;
      if (donor == s || shard(donor).state != ShardState::kServing) {
        continue;  // no live donor; the key keeps its local (wiped) value
      }
      by_donor[static_cast<std::size_t>(donor)].push_back(
          kv::ResyncSession::Item{key, shard(donor).vaddr[key], S.vaddr[key],
                                  cfg.value_len});
    }
    auto outstanding = std::make_shared<int>(0);
    for (const auto& items : by_donor) {
      if (!items.empty()) ++*outstanding;
    }
    if (*outstanding == 0) {
      pass_done(s, down_at);
      return;
    }
    for (int d = 0; d < cfg.shards; ++d) {
      auto& items = by_donor[static_cast<std::size_t>(d)];
      if (items.empty()) continue;
      auto& [rq, dq] = S.resync_links[static_cast<std::size_t>(d)];
      if (rq == nullptr || qp_unhealthy(rq) || qp_unhealthy(dq)) {
        rq = make_qp(*S.dev, kShardPidBase + s, rq_default, nullptr);
        dq = make_qp(*shard(d).dev, kShardPidBase + d, rq_default, nullptr);
        rnic::ConnectOverTransport(rq, dq, transport);
      }
      ++out.resyncs_started;
      kv::ResyncSession::Config rc;
      rc.qp = rq;
      rc.remote_rkey = shard(d).heap->rkey();
      rc.window = cfg.resync_window;
      sessions.push_back(std::make_unique<kv::ResyncSession>(
          sim, rc, std::move(items),
          [&, s, down_at, outstanding](const kv::ResyncSession::Stats& st) {
            out.resync_keys_scanned += st.keys_scanned;
            out.resync_keys_applied += st.keys_applied;
            out.resync_keys_kept += st.keys_kept_local;
            out.resync_bytes += st.bytes_read;
            if (st.failed) ++out.resync_failures;
            if (--*outstanding == 0) pass_done(s, down_at);
          }));
      sessions.back()->Start();
    }
  };
  auto start_resync = [&](int s, sim::Nanos down_at) {
    // A new recovery: fresh QPs, and the full pass re-reads every key.
    Shard& S = shard(s);
    S.resync_links.assign(static_cast<std::size_t>(cfg.shards),
                          {nullptr, nullptr});
    S.missed.clear();
    resync_pass(s, down_at, S.keys);
  };

  for (std::size_t ei = 0; ei < cfg.faults.entries.size(); ++ei) {
    const FaultEntry& e = cfg.faults.entries[ei];
    const int s = e.server;
    const int ep = shard(s).dev->fabric_endpoint(0);
    sim.At(e.down_at, [&, e, s, ei, ep] {
      ++out.faults_applied;
      switch (e.kind) {
        case FaultKind::kBlackhole:
          transport.SetLinkFaults(ep, 1.0, 0.0);
          break;
        case FaultKind::kRnrStall:
          for (int t = 0; t < cfg.tenants; ++t) {
            if (!tenant_in_scope(e, t)) continue;
            shard(s).dev->StallRecvsFor(link(t, s).get->server_qp(),
                                        e.rnr_count);
          }
          break;
        case FaultKind::kCrash:
          shard(s).dev->KillProcessResources(kShardPidBase + s);
          shard(s).state = ShardState::kDead;
          break;
        case FaultKind::kFlaky:
          flaky_on[ei] = 1;
          flaky_burst(ei, s);
          break;
        case FaultKind::kSlow:
          transport.SetLinkDelay(ep, e.slow_ns);
          break;
      }
    });
    if (e.up_at > 0) {
      sim.At(e.up_at, [&, e, s, ei, ep] {
        ++out.heals_applied;
        switch (e.kind) {
          case FaultKind::kBlackhole:
            transport.SetLinkFaults(ep, cfg.loss, cfg.corrupt);
            break;
          case FaultKind::kFlaky:
            flaky_on[ei] = 0;
            transport.SetLinkFaults(ep, cfg.loss, cfg.corrupt);
            break;
          case FaultKind::kSlow:
            // Added latency drops nothing: no QP errored, no write was
            // missed — restore the link and close the window.
            transport.SetLinkDelay(ep, 0);
            note_window(e.down_at);
            return;
          case FaultKind::kRnrStall:
            break;
          case FaultKind::kCrash: {
            // Crash + re-join: revive the process's resources, restart
            // from an empty (seed-version) store — the crash lost its
            // memory, so surviving higher-version tags would be phantom
            // state — then re-arm the plumbing and anti-entropy the key
            // range back before serving.
            ++out.rejoins;
            Shard& S = shard(s);
            S.dev->ReviveProcessResources(kShardPidBase + s);
            S.state = ShardState::kResyncing;
            for (std::uint64_t key : S.keys) {
              kv::WriteVersionedValue(S.vaddr[key], cfg.value_len, key,
                                      /*version=*/0);
            }
            heal_tenants(e, s, /*crash=*/true, /*clear_dead=*/false);
            heal_put_links(s);
            start_resync(s, e.down_at);
            return;
          }
        }
        // Blackhole / rnr-stall / flaky heal. A dirty shard (missed chain
        // writes while unreachable) must anti-entropy before it serves
        // reads again; a clean one re-opens immediately.
        const bool resync = versioned && shard(s).dirty;
        if (resync) shard(s).state = ShardState::kResyncing;
        heal_tenants(e, s, /*crash=*/false, /*clear_dead=*/!resync);
        heal_put_links(s);
        if (resync) {
          start_resync(s, e.down_at);
        } else {
          note_window(e.down_at);
        }
      });
    }
  }

  ssim.RunUntil(cfg.horizon);

  // --- results ---------------------------------------------------------------
  // Merge the shard-local tenant accounting (tenant order: deterministic,
  // and order-independent anyway — sums and extrema).
  out.keys_visible = eligible.size();
  sim::Nanos first_sent = -1;
  sim::Nanos last_resp = 0;
  sim::LatencyRecorder all;
  sim::LatencyRecorder put_all;
  for (const Tenant& T : tenants) {
    if (T.first_sent >= 0 && (first_sent < 0 || T.first_sent < first_sent)) {
      first_sent = T.first_sent;
    }
    last_resp = std::max(last_resp, T.last_resp);
    out.error_cqes += T.err_cqes;
    out.stale_responses += T.stale;
    out.heal_reissues += T.heal_resends;
    out.probes_sent += T.probes;
    out.put_retries += T.put_retry;
    out.ryw_violations += T.ryw_viol;
    out.acked_puts_full += T.full_acks;
    KvTenantStats ts;
    ts.gets = T.rec.count();
    ts.puts = T.puts;
    ts.detour_responses = T.detours;
    ts.reroutes = T.reroutes;
    ts.host_reissues = T.host_reissues;
    const sim::LatencySummary sum = T.rec.Summarize();
    ts.avg_us = sum.avg_us;
    ts.p50_us = sum.p50_us;
    ts.p99_us = sum.p99_us;
    ts.p999_us = sum.p999_us;
    ts.max_blip_us = sim::ToMicros(T.max_blip);
    out.tenants.push_back(ts);
    out.gets += ts.gets;
    out.puts += T.puts;
    out.detour_responses += T.detours;
    out.reroutes += T.reroutes;
    out.host_reissues += T.host_reissues;
    out.unanswered += static_cast<std::uint64_t>(T.remaining);
    out.max_blip_us = std::max(out.max_blip_us, ts.max_blip_us);
    for (sim::Nanos sample : T.rec.samples()) all.Add(sample);
    for (sim::Nanos sample : T.put_rec.samples()) put_all.Add(sample);
  }
  const sim::LatencySummary sum = all.Summarize();
  out.avg_us = sum.avg_us;
  out.p50_us = sum.p50_us;
  out.p99_us = sum.p99_us;
  out.p999_us = sum.p999_us;
  const sim::LatencySummary psum = put_all.Summarize();
  out.put_avg_us = psum.avg_us;
  out.put_p50_us = psum.p50_us;
  out.put_p99_us = psum.p99_us;
  out.put_p999_us = psum.p999_us;

  // --- end-of-run audits -----------------------------------------------------
  // Zero-loss invariant: every acked write must still be durable on every
  // replica that confirmed it (skipping replicas not serving at the end —
  // a still-dead shard attests nothing). The `>=` is because later puts
  // legitimately overwrite with higher versions.
  for (const Tenant& T : tenants) {
    for (const AckedWrite& w : T.ledger) {
      for (int s = 0; s < cfg.shards; ++s) {
        if (!(w.mask & (1ULL << s))) continue;
        Shard& S = shard(s);
        if (S.state != ShardState::kServing) continue;
        if (kv::ValueVersion(S.vaddr[w.key]) < w.version) {
          ++out.lost_acked_writes;
        }
      }
    }
  }
  // Divergence: replicas that both serve a key must hold internally
  // consistent values, and equal versions must mean equal bytes.
  if (versioned) {
    for (std::uint64_t key : eligible) {
      Shard& P = shard(ring.PrimaryOf(key));
      Shard& B = shard(ring.SuccessorOf(ring.PrimaryOf(key)));
      if (P.state != ShardState::kServing || B.state != ShardState::kServing) {
        continue;
      }
      const std::uint64_t pa = P.vaddr[key];
      const std::uint64_t ba = B.vaddr[key];
      const bool pi = kv::VersionedValueIntact(pa, cfg.value_len, key);
      const bool bi = kv::VersionedValueIntact(ba, cfg.value_len, key);
      if (!pi || !bi) {
        ++out.value_divergence;
        continue;
      }
      if (kv::ValueVersion(pa) == kv::ValueVersion(ba) &&
          std::memcmp(reinterpret_cast<const void*>(pa),
                      reinterpret_cast<const void*>(ba), cfg.value_len) != 0) {
        ++out.value_divergence;
      }
    }
  }
  const sim::Nanos span = last_resp > first_sent ? last_resp - first_sent : 1;
  out.duration_us = sim::ToMicros(span);
  out.gets_per_sec = static_cast<double>(out.gets) / sim::ToSeconds(span);
  const sim::TransportCounters tcs = transport.counters();
  out.data_packets = tcs.data_packets;
  out.retransmits = tcs.retransmits;
  out.rto_fires = tcs.rto_fires;
  out.rnr_naks = tcs.rnr_naks;
  out.sack_retransmits = tcs.sack_retransmits;
  for (const Shard& S : shards) {
    out.qp_errors += S.dev->counters().qp_errors;
    out.qp_rearms += S.dev->counters().qp_rearms;
  }
  for (const Tenant& T : tenants) {
    out.qp_errors += T.dev->counters().qp_errors;
    out.qp_rearms += T.dev->counters().qp_rearms;
  }
  out.events = ssim.events_processed();
  out.sim_shards = cfg.sim_shards;
  return out;
}

}  // namespace redn::workload
