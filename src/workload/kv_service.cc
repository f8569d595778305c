#include "workload/kv_service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
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
#include "workload/topology.h"

namespace redn::workload {
namespace {

// The KV shards, their write path and their lifecycle (and the transport's
// home) run on this event domain; tenants run on their placement's.
constexpr int kServiceDomain = 0;
// Shard s's server-side resources are owned by this pid (kCrash kills it).
constexpr int kShardPidBase = 100;
// Virtual nodes per shard on the hash ring.
constexpr int kRingVnodes = 16;
// A put's replica mask holds one bit per shard, and the per-key primary
// array one byte per key.
constexpr int kMaxShards = 64;
static_assert(kMaxShards - 1 <= std::numeric_limits<std::uint8_t>::max());
// BuildStores prefetches the H1 bucket of the key this far ahead.
constexpr std::uint64_t kPrefetchAhead = 16;
// Transport: base RTO 4096ns << kTimeoutExp = 262 us, RNR backoff base
// 4096ns << kMinRnrTimer.
constexpr std::uint32_t kTimeoutExp = 6;
constexpr std::uint32_t kMinRnrTimer = 1;
// Failure detectors: the offload policy's keepalive period, and the host
// policy's RPC timer (16 base RTOs — the multi-RTO stall) plus the host's
// cost between noticing and re-issuing.
constexpr sim::Nanos kProbeInterval = 15'000;
constexpr sim::Nanos kHostTimeout = 16 * (sim::Nanos{4096} << kTimeoutExp);
constexpr sim::Nanos kHostReissueCost = 2'000;
// Detour fires a chain can serve per (tenant, shard) over the run.
constexpr int kDetourArms = 16;
// Write path: receive slots per put link, ack record size, the chain
// edge's in-flight forward ring, and the host cost to apply one put at a
// shard (parse + table update).
constexpr int kPutSlots = 4;
constexpr std::uint32_t kAckBytes = 24;
constexpr std::uint64_t kFwdRing = 256;
constexpr sim::Nanos kPutApplyCost = 500;

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

// Shard lifecycle:
//   serving -> stale        a chain write it should hold was acked without
//                           it (it still serves; its next heal re-syncs it)
//   any -> dead             a crash, which drops a running recovery (its
//                           sessions' QPs die with the process)
//   dead -> resyncing       a re-join
//   stale -> resyncing      its heal
//   resyncing -> serving    a pass with nothing left to re-read
// A heal reopens a serving shard at once and joins a running recovery.
enum class ShardState : std::uint8_t { kServing, kStale, kDead, kResyncing };

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

// One KV shard: its NIC, store, lifecycle and running recovery.
struct Shard {
  std::unique_ptr<rnic::RnicDevice> dev;
  std::unique_ptr<kv::RdmaHashTable> table;
  std::unique_ptr<kv::ValueHeap> heap;
  // Value address by key (keys are dense in 1..cfg.keys); 0 = not a
  // replica of that key. Stable for the run: puts and re-sync rewrite
  // values in place, so replication and anti-entropy can target fixed
  // remote addresses.
  std::vector<std::uint64_t> vaddr;
  ShardState state = ShardState::kServing;
  // The running recovery (kResyncing): the fault window it closes, the
  // keys to re-read in the next pass, one (local, donor) QP pair per
  // donor, and the running pass's sessions still reading.
  sim::Nanos down_at = 0;
  std::vector<std::uint64_t> missed;
  std::vector<std::pair<rnic::QueuePair*, rnic::QueuePair*>> resync_links;
  int pending = 0;
  Edge edge;  // write path: the chain edge out of this shard

  // Serves reads and donates to re-syncs (a stale shard still does both).
  bool serves() const {
    return state == ShardState::kServing || state == ShardState::kStale;
  }
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
  if (cfg.shards < 2 || cfg.shards > kMaxShards) {
    throw std::invalid_argument(
        "KvServiceConfig: shards must be in [2, " + std::to_string(kMaxShards) +
        "] (chain replication needs a successor; a put's replica mask has " +
        "one bit per shard), got " + std::to_string(cfg.shards));
  }
  if (cfg.tenants < 1 || cfg.gets_per_tenant < 1 || cfg.keys < 1) {
    throw std::invalid_argument(
        "KvServiceConfig: tenants, gets_per_tenant, keys must be positive");
  }
  ValidateFaultPlan(cfg.faults);
  for (const FaultEntry& e : cfg.faults.entries) {
    if (e.server >= cfg.shards) {
      throw std::invalid_argument(
          "FaultPlan: entry names an out-of-range shard");
    }
  }
  if (cfg.put_fraction < 0.0 || cfg.put_fraction > 1.0) {
    throw std::invalid_argument(
        "KvServiceConfig: put_fraction must be in [0, 1]");
  }
  if (!(cfg.loss >= 0.0 && cfg.loss <= 1.0)) {
    throw std::invalid_argument(
        "KvServiceConfig: loss is a per-packet probability and must be in "
        "[0, 1], got " + std::to_string(cfg.loss));
  }
  if (!(cfg.zipf_theta >= 0.0)) {
    throw std::invalid_argument(
        "KvServiceConfig: zipf_theta must be >= 0 (0 = uniform), got " +
        std::to_string(cfg.zipf_theta));
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

sim::TransportConfig TransportConfigOf(const KvServiceConfig& cfg) {
  return {.rto = sim::Nanos{4096} << kTimeoutExp,
          .loss = cfg.loss,
          .seed = cfg.transport_seed,
          .mode = sim::TransportMode::kSelectiveRepeat,
          .retry_count = cfg.retry_count,
          .rnr_retry_count = cfg.rnr_retry_count,
          .min_rnr_timer = kMinRnrTimer};
}

// One end of a QP pair on `dev`, owned by pid `owner` (a shard end dies
// with its shard's crash). A null `send_cq` gets a fresh CQ.
rnic::QueuePair* MakeQp(rnic::RnicDevice& dev, int owner,
                        std::uint32_t rq_depth = rnic::QpConfig{}.rq_depth,
                        rnic::CompletionQueue* send_cq = nullptr) {
  rnic::QpConfig qc;
  qc.rq_depth = rq_depth;
  qc.send_cq = send_cq != nullptr ? send_cq : dev.CreateCq();
  qc.recv_cq = dev.CreateCq();
  qc.owner_pid = owner;
  return dev.CreateQp(qc);
}

// Posts receive slot `slot` (`len` bytes of `mr`) on `qp`: a put link's
// request slots on the shard's end, its ack slots on the tenant's.
void PostSlot(rnic::QueuePair* qp, const rnic::MemoryRegion& mr, int slot,
              std::uint32_t len) {
  verbs::RecvWr r;
  r.wr_id = static_cast<std::uint64_t>(slot);
  r.local_addr = mr.addr + static_cast<std::uint64_t>(slot) * len;
  r.length = len;
  r.lkey = mr.lkey;
  verbs::PostRecv(qp, r);
}

// The service as three actors over one state: the tenant loop runs on each
// tenant's domain, the write path and the shard lifecycle on the service's
// domain, and `Cross` is the only way between domains.
class KvService {
 public:
  explicit KvService(const KvServiceConfig& cfg)
      : cfg_(cfg),
        ssim_(cfg.sim_shards),
        sim_(ssim_.shard(kServiceDomain)),
        transport_(sim_, fabric_, TransportConfigOf(cfg)),
        ring_(cfg.shards, kRingVnodes, cfg.seed),
        shards_(static_cast<std::size_t>(cfg.shards)),
        tenants_(static_cast<std::size_t>(cfg.tenants)),
        versioned_(Versioned(cfg)),
        offloaded_(cfg.policy == FailoverPolicy::kOffloadChain),
        writes_(cfg.put_fraction > 0.0) {
    BuildStores();
    BuildLinks();
    // Zipf: p(rank r) ~ 1/(r+1)^theta over the eligible keys; per-tenant
    // rotations give tenants distinct (overlapping) hot sets.
    const std::size_t nkeys = eligible_.size();
    if (cfg_.zipf_theta > 0) {
      cdf_.resize(nkeys);
      double acc = 0;
      for (std::size_t r = 0; r < nkeys; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), cfg_.zipf_theta);
        cdf_[r] = acc;
      }
    }
    rot_ = std::max<std::size_t>(
        1, nkeys / static_cast<std::size_t>(cfg_.tenants));
    // Gray failure: flaky windows draw their burst and gap lengths from a
    // per-entry RNG, so they are deterministic per (seed, entry).
    flaky_on_.assign(cfg_.faults.entries.size(), 0);
    for (std::size_t i = 0; i < cfg_.faults.entries.size(); ++i) {
      flaky_rng_.push_back(sim::Rng(cfg_.seed ^ (0xf1a57ULL * (i + 1)) ^
                                    0x9e3779b97f4a7c15ULL));
    }
  }
  KvService(const KvService&) = delete;  // callbacks hold `this`
  KvService& operator=(const KvService&) = delete;

  // Schedules in a fixed order (tenant starts, then fault events in entry
  // order), since same-instant events run in the order they were scheduled.
  KvServiceResult Run() {
    for (int t = 0; t < cfg_.tenants; ++t) {
      for (int s = 0; s < cfg_.shards; ++s) {
        Link& L = link(t, s);
        HookResponses(t, s, L.get.get(), /*via_detour=*/false);
        if (!offloaded_) continue;
        HookResponses(t, s, L.detour.get(), /*via_detour=*/true);
      }
      tsim(t).At(static_cast<sim::Nanos>(t) * 311 + 17,
                 [this, t] { IssueNext(t); });
    }
    if (writes_) HookWritePath();
    for (std::size_t ei = 0; ei < cfg_.faults.entries.size(); ++ei) {
      const FaultEntry& e = cfg_.faults.entries[ei];
      sim_.At(e.down_at, [this, ei] { Fault(ei); });
      if (e.up_at > 0) sim_.At(e.up_at, [this, ei] { Heal(ei); });
    }
    ssim_.RunUntil(cfg_.horizon);
    return Report();
  }

 private:
  Shard& shard(int s) { return shards_[static_cast<std::size_t>(s)]; }
  Tenant& tenant(int t) { return tenants_[static_cast<std::size_t>(t)]; }
  Link& link(int t, int s) {
    return tenant(t).links[static_cast<std::size_t>(s)];
  }
  // Tenant t's host logic and NIC run on its place's domain; tsim(t) is
  // the clock and scheduler every tenant-side callback must use.
  sim::Simulator& tsim(int t) { return ssim_.shard(tenant(t).place); }

  // Runs `fn` on domain `to` from domain `from`: inline when they are one
  // domain (a co-resident tenant and the service), else as a mailbox
  // message one fabric hop later — a spread client really would learn of
  // a heal over the wire. Heal legs, routing reopens and probe RQ top-ups
  // all cross here, so every placement runs the same code.
  template <typename Fn>
  void Cross(int from, int to, Fn fn) {
    if (from == to) {
      fn();
      return;
    }
    sim::Simulator& src = ssim_.shard(from);
    src.SendTo(to, src.now() + 2 * kPortLink.propagation, std::move(fn));
  }

  // --- set-up ------------------------------------------------------------
  // Creation order fixes device, CQ, QP and flow ids: shard NICs, tenant
  // NICs, stores, get harnesses and detours, probe pairs, put links, chain
  // edges.
  void BuildStores() {
    for (int s = 0; s < cfg_.shards; ++s) {
      Shard& S = shard(s);
      S.dev = std::make_unique<rnic::RnicDevice>(
          sim_, rnic::NicConfig::ConnectX5(), rnic::Calibration{},
          "shard" + std::to_string(s));
      S.dev->AttachPort(0, fabric_, kPortLink);
    }
    for (int t = 0; t < cfg_.tenants; ++t) {
      Tenant& T = tenant(t);
      T.place = cfg_.placement.empty()
                    ? kServiceDomain
                    : cfg_.placement[static_cast<std::size_t>(t)];
      T.dev = std::make_unique<rnic::RnicDevice>(
          tsim(t), rnic::NicConfig::ConnectX5(), rnic::Calibration{},
          "tenant" + std::to_string(t));
      T.dev->AttachPort(0, fabric_, kPortLink);
      T.links.resize(static_cast<std::size_t>(cfg_.shards));
      T.rng = sim::Rng(cfg_.seed * 0x9e3779b97f4a7c15ULL +
                       static_cast<std::uint64_t>(t + 1));
      T.remaining = cfg_.gets_per_tenant;
      T.dead.assign(static_cast<std::size_t>(cfg_.shards), 0);
    }

    // Every key lives on its ring primary AND the primary's chain successor.
    // The ring is fixed for the run, so each key's primary is looked up once,
    // here; this pass also sizes the stores.
    const std::uint64_t nkeys = static_cast<std::uint64_t>(cfg_.keys);
    primary_.resize(nkeys + 1);
    std::vector<std::size_t> count(shards_.size(), 0);
    for (std::uint64_t key = 1; key <= nkeys; ++key) {
      const int p = ring_.PrimaryOf(key);
      primary_[key] = static_cast<std::uint8_t>(p);
      ++count[static_cast<std::size_t>(p)];
      ++count[static_cast<std::size_t>(ring_.SuccessorOf(p))];
    }
    const std::size_t slot =
        (static_cast<std::size_t>(cfg_.value_len) + 7) & ~std::size_t{7};
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& S = shards_[s];
      S.table = std::make_unique<kv::RdmaHashTable>(
          *S.dev,
          kv::RdmaHashTable::Config{.buckets = Pow2AtLeast(4 * count[s] + 16)});
      S.heap = std::make_unique<kv::ValueHeap>(*S.dev,
                                               count[s] * slot + (64 << 10));
      S.vaddr.assign(nkeys + 1, 0);
    }

    // One pass in key order fills both replicas, so each shard stores its
    // keys in ascending order. Depth-1 closed loops starve on a miss, so
    // tenants draw only keys the 2-bucket NIC probe can see on BOTH
    // replicas, which Insert reports as it places them.
    eligible_.reserve(nkeys);
    for (std::uint64_t key = 1; key <= nkeys; ++key) {
      if (key + kPrefetchAhead <= nkeys) {
        const std::uint64_t ahead = key + kPrefetchAhead;
        const int pa = primary_[ahead];
        shard(pa).table->PrefetchBucket1(ahead);
        shard(ring_.SuccessorOf(pa)).table->PrefetchBucket1(ahead);
      }
      const int p = primary_[key];
      const bool on_primary = StoreSeed(p, key);
      const bool on_backup = StoreSeed(ring_.SuccessorOf(p), key);
      if (on_primary && on_backup) eligible_.push_back(key);
    }
    if (eligible_.empty()) {
      throw std::runtime_error("RunKvService: no NIC-visible keys");
    }
  }

  // Writes `key`'s seed value into shard s's heap and table. True iff the
  // key landed in one of its two NIC-probed buckets.
  bool StoreSeed(int s, std::uint64_t key) {
    Shard& S = shard(s);
    const std::uint64_t ptr = S.heap->ReserveForOverwrite(cfg_.value_len);
    if (versioned_) {
      kv::WriteVersionedValue(S.dev->pd(), ptr, cfg_.value_len, key,
                              /*version=*/0);
    } else {
      // PutPattern layout: byte i is (key + i) mod 256.
      kv::FillRamp(reinterpret_cast<void*>(ptr), cfg_.value_len,
                   static_cast<std::uint8_t>(key));
    }
    S.vaddr[key] = ptr;
    return S.table->Insert(key, ptr, cfg_.value_len) == kv::Placement::kBucket;
  }

  void BuildLinks() {
    // Get harnesses serve a depth-1 closed loop from a fixed window that the
    // service's domain refills; detours keep a small lifetime arm.
    for (int t = 0; t < cfg_.tenants; ++t) {
      Tenant& T = tenant(t);
      for (int s = 0; s < cfg_.shards; ++s) {
        Shard& S = shard(s);
        Link& L = link(t, s);
        L.get = std::make_unique<offloads::HashGetHarness>(
            *T.dev, *S.dev,
            offloads::HashGetOffload::Config{
                .buckets = 2,
                .max_requests = offloads::HashGetHarness::kClosedLoopWindow,
                .fabric = &fabric_,
                .transport = &transport_},
            *S.table, *S.heap, /*max_value=*/cfg_.value_len + 64);
        L.get->SetServerOwner(kShardPidBase + s);
        L.get->ArmAhead(cfg_.gets_per_tenant + 8);
      }
      if (!offloaded_) continue;
      for (int s = 0; s < cfg_.shards; ++s) {
        const int b = ring_.SuccessorOf(s);
        Shard& B = shard(b);
        Link& L = link(t, s);
        L.detour = std::make_unique<offloads::HashGetHarness>(
            *T.dev, *B.dev,
            offloads::HashGetOffload::Config{.buckets = 2,
                                             .max_requests = kDetourArms + 4,
                                             .fabric = &fabric_,
                                             .transport = &transport_,
                                             .managed_client_sq = true},
            *B.table, *B.heap, /*max_value=*/cfg_.value_len + 64);
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

    // Keepalive probe QPs (offload policy): one per (tenant, shard), the
    // client end sharing the primary connection's send CQ so a probe failure
    // CQE trips the same WAIT the trigger failures do. Probes are unsignaled
    // zero-byte SENDs — healthy probes keep the CQ silent.
    if (offloaded_) {
      for (int t = 0; t < cfg_.tenants; ++t) {
        for (int s = 0; s < cfg_.shards; ++s) {
          Link& L = link(t, s);
          L.probe_srv = MakeQp(*shard(s).dev, kShardPidBase + s, 512);
          L.probe_cli = MakeQp(*tenant(t).dev, 0, rnic::QpConfig{}.rq_depth,
                               L.get->client_qp()->send_cq);
          rnic::ConnectOverTransport(L.probe_cli, L.probe_srv, transport_);
          for (int i = 0; i < 64; ++i) {
            verbs::PostRecv(L.probe_srv, verbs::RecvWr{});
          }
        }
      }
    }

    // Puts ride dedicated QP pairs (the get path's trigger/response plumbing
    // is an offload program with a fixed request shape): per (tenant, shard)
    // a request pair and an ack pair (Link). Along each chain edge the
    // primary RDMA-WRITEs the whole versioned value into the successor's
    // heap slot and treats the WRITE's completion as "the peer durably
    // applied" — only then does it ack the tenant.
    if (!writes_) return;
    const std::size_t req_bytes =
        static_cast<std::size_t>(kPutSlots) * cfg_.value_len;
    const std::size_t ack_bytes =
        static_cast<std::size_t>(kPutSlots) * kAckBytes;
    for (int t = 0; t < cfg_.tenants; ++t) {
      Tenant& T = tenant(t);
      auto& td = *T.dev;
      T.ptx = std::make_unique<std::byte[]>(cfg_.value_len);
      T.ptx_mr =
          td.pd().Register(T.ptx.get(), cfg_.value_len, rnic::kAccessAll);
      for (int s = 0; s < cfg_.shards; ++s) {
        auto& sd = *shard(s).dev;
        Link& L = link(t, s);
        L.req_srv = MakeQp(sd, kShardPidBase + s, 64);
        L.req_cli = MakeQp(td, 0);
        rnic::ConnectOverTransport(L.req_cli, L.req_srv, transport_);
        L.req_rx = std::make_unique<std::byte[]>(req_bytes);
        L.req_rx_mr =
            sd.pd().Register(L.req_rx.get(), req_bytes, rnic::kAccessAll);
        L.ack_srv = MakeQp(sd, kShardPidBase + s);
        L.ack_cli = MakeQp(td, 0, 64);
        rnic::ConnectOverTransport(L.ack_srv, L.ack_cli, transport_);
        L.ack_tx = std::make_unique<std::byte[]>(ack_bytes);
        L.ack_tx_mr =
            sd.pd().Register(L.ack_tx.get(), ack_bytes, rnic::kAccessAll);
        L.ack_rx = std::make_unique<std::byte[]>(ack_bytes);
        L.ack_rx_mr =
            td.pd().Register(L.ack_rx.get(), ack_bytes, rnic::kAccessAll);
        for (int i = 0; i < kPutSlots; ++i) {
          PostSlot(L.req_srv, L.req_rx_mr, i, cfg_.value_len);
          PostSlot(L.ack_cli, L.ack_rx_mr, i, kAckBytes);
        }
      }
    }
    for (int s = 0; s < cfg_.shards; ++s) {
      const int b = ring_.SuccessorOf(s);
      Edge& E = shard(s).edge;
      E.ring.resize(kFwdRing);
      E.req = MakeQp(*shard(s).dev, kShardPidBase + s);
      E.rsp = MakeQp(*shard(b).dev, kShardPidBase + b);
      rnic::ConnectOverTransport(E.req, E.rsp, transport_);
    }
  }

  // --- tenant loop: runs on the tenant's domain --------------------------
  std::uint64_t Draw(int t) {
    Tenant& T = tenant(t);
    const std::size_t nkeys = eligible_.size();
    std::size_t rank;
    if (cdf_.empty()) {
      rank = static_cast<std::size_t>(T.rng.NextBelow(nkeys));
    } else {
      const double u = T.rng.NextDouble() * cdf_.back();
      rank = static_cast<std::size_t>(
          std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      if (rank >= nkeys) rank = nkeys - 1;
    }
    return eligible_[(rank + static_cast<std::size_t>(t) * rot_) % nkeys];
  }

  void IssueNext(int t) {
    Tenant& T = tenant(t);
    if (T.remaining <= 0) return;
    sim::Simulator& ts = tsim(t);
    if (!T.started) {
      T.started = true;
      T.last_mark = ts.now();
    }
    T.key = Draw(t);
    // The mix draw happens only on write-enabled runs so pure-get configs
    // consume exactly the RNG stream they always did (bit-compat).
    T.is_put = writes_ && T.rng.NextDouble() < cfg_.put_fraction;
    T.t_sent = ts.now();
    Send(t);
  }

  // Sends tenant t's op to the primary unless routed off it, else to the
  // successor (for a put: a degraded chain head). The detour chain covers a
  // get aimed at a live primary; the host watchdog covers every other send
  // (puts have no detour), so no op can be lost.
  void Send(int t) {
    Tenant& T = tenant(t);
    if (T.healing > 0) {
      // A heal is rebuilding this tenant's server-side programs on the
      // service shard; park like the no-live-replica case and let the
      // heal's final leg (or this retry) resume.
      Park(t);
      return;
    }
    const int p = primary_[T.key];
    T.primary = p;
    const int b = ring_.SuccessorOf(p);
    const int pref = T.dead[static_cast<std::size_t>(p)] ? b : p;
    const int alt = pref == p ? b : p;
    for (const int target : {pref, alt}) {
      char& dead = T.dead[static_cast<std::size_t>(target)];
      if (dead) continue;
      Link& L = link(t, target);
      if (!T.is_put && target == p && offloaded_) {
        // Healthy-path host work: keep the parked detour's trigger bytes
        // pointing at the in-flight key.
        L.chain->SetKey(T.key);
      }
      // A send fails when the local QP is wrecked (errored earlier and not
      // yet healed) — that much the host can see without peering into the
      // server.
      if (!(T.is_put ? PostPut(T, L) : L.get->SendTriggerBlind(T.key))) {
        dead = 1;
        continue;
      }
      if (target != p) ++T.reroutes;
      T.target = target;
      T.waiting = true;
      ++T.attempt;
      if (T.first_sent < 0) T.first_sent = tsim(t).now();
      if (T.is_put || cfg_.policy == FailoverPolicy::kHostReissue ||
          target != p) {
        Watch(t);
      } else {
        Probe(t, p);
      }
      return;
    }
    // No live replica right now — retry once a heal had a chance to land.
    Park(t);
  }

  bool PostPut(const Tenant& T, const Link& L) {
    if (!L.req_cli->Usable()) return false;
    T.dev->pd().BeforeStore(T.ptx_mr.addr, cfg_.value_len);
    rnic::dma::WriteU64(T.ptx_mr.addr, T.key);
    // Payload byte i is (key + i) mod 256.
    kv::FillRamp(
        reinterpret_cast<void*>(T.ptx_mr.addr + kv::kValueVersionBytes),
        cfg_.value_len - kv::kValueVersionBytes,
        static_cast<std::uint8_t>(T.key + kv::kValueVersionBytes));
    verbs::PostSendNow(L.req_cli,
                       verbs::MakeSend(T.ptx_mr.addr, cfg_.value_len,
                                       T.ptx_mr.lkey, /*signaled=*/false));
    return true;
  }

  // Keepalive: while the same send is pending against primary `p`, ping the
  // probe QP every kProbeInterval. A dead or blackholed shard turns a probe
  // into the failure CQE that fires the detour chain; a completed get
  // cancels the next tick via the seq/attempt guard.
  void Probe(int t, int p) {
    const Tenant& T = tenant(t);
    tsim(t).After(kProbeInterval, [this, t, p, seq = T.seq,
                                   attempt = T.attempt] {
      Tenant& W = tenant(t);
      if (!W.waiting || W.seq != seq || W.attempt != attempt) return;
      const Link& L = link(t, p);
      if (!L.probe_cli->Usable()) {
        return;  // a probe already tripped; the chain fired or is firing
      }
      verbs::PostSendNow(L.probe_cli,
                         verbs::MakeSend(0, 0, 0, /*signaled=*/false));
      ++W.probes;
      // Keep the responder's RQ topped up. It belongs to the service's
      // domain, so a spread tenant's top-up rides the mailbox at the
      // one-way latency (the probe itself takes at least as long).
      Cross(W.place, kServiceDomain, [ps = L.probe_srv] {
        if (ps->Usable()) verbs::PostRecv(ps, verbs::RecvWr{});
      });
      Probe(t, p);
    });
  }

  void Watch(int t) {
    const Tenant& T = tenant(t);
    tsim(t).After(kHostTimeout, [this, t, seq = T.seq, attempt = T.attempt] {
      Tenant& W = tenant(t);
      if (!W.waiting || W.seq != seq || W.attempt != attempt) return;
      // The send is stuck past the application RPC timer: declare its
      // target dead and re-issue from the CPU (the multi-RTO stall).
      // Puts have no detour chain: the watchdog is their only detector.
      W.dead[static_cast<std::size_t>(W.target)] = 1;
      ++(W.is_put ? W.put_retry : W.host_reissues);
      tsim(t).After(kHostReissueCost, [this, t, seq] {
        const Tenant& W2 = tenant(t);
        if (W2.waiting && W2.seq == seq) Send(t);
      });
    });
  }

  // Parks tenant t's op host-side (not in flight) and retries it in 1 ms,
  // unless a heal resumed it first.
  void Park(int t) {
    tsim(t).After(sim::Millis(1), [this, t] {
      const Tenant& W = tenant(t);
      if (!W.waiting && W.remaining > 0) Send(t);
    });
    tenant(t).waiting = false;
  }

  void Complete(int t, bool via_detour) {
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
    if (T.remaining > 0) IssueNext(t);
  }

  // Completes the op in flight toward shard s with the responses of `h`: t's
  // get harness for s, or (`via_detour`) the detour that fires when s fails.
  void HookResponses(int t, int s, offloads::HashGetHarness* h,
                     bool via_detour) {
    h->client_recv_cq()->SetHostNotify([this, t, s, h, via_detour] {
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
        if (versioned_ && !T.is_put) {
          const auto it = T.ryw.find(T.key);
          if (it != T.ryw.end() && h->ResponseVersion() < it->second) {
            ++T.ryw_viol;  // older than this tenant's own acked write
          }
        }
        Complete(t, via_detour);
      }
    });
  }

  // --- write path: the service's domain (acks land on the tenant's) ----
  void HookWritePath() {
    for (int t = 0; t < cfg_.tenants; ++t) {
      for (int s = 0; s < cfg_.shards; ++s) {
        Link& L = link(t, s);
        // Shard side: request arrival -> host apply after kPutApplyCost.
        L.req_srv->recv_cq->SetHostNotify([this, t, s] {
          Link& LL = link(t, s);
          rnic::Cqe cqe;
          while (shard(s).dev->PollCq(LL.req_srv->recv_cq, 1, &cqe) == 1) {
            if (cqe.status != rnic::WcStatus::kSuccess) {
              ++out_.error_cqes;
              continue;
            }
            const int slot = static_cast<int>(cqe.wr_id);
            const std::uint64_t key = rnic::dma::ReadU64(
                LL.req_rx_mr.addr +
                static_cast<std::uint64_t>(slot) * cfg_.value_len);
            // The apply regenerates bytes from (key, version), so the slot
            // can be reposted immediately.
            PostSlot(LL.req_srv, LL.req_rx_mr, slot, cfg_.value_len);
            sim_.After(kPutApplyCost,
                       [this, t, s, key] { ApplyPut(t, s, key); });
          }
        });
        // Tenant side: ack arrival -> ledger + RYW floor + completion.
        L.ack_cli->recv_cq->SetHostNotify([this, t, s] {
          Tenant& T = tenant(t);
          Link& LL = link(t, s);
          rnic::Cqe cqe;
          while (T.dev->PollCq(LL.ack_cli->recv_cq, 1, &cqe) == 1) {
            if (cqe.status != rnic::WcStatus::kSuccess) {
              ++T.err_cqes;
              continue;
            }
            const int slot = static_cast<int>(cqe.wr_id);
            const std::uint64_t a = LL.ack_rx_mr.addr + cqe.wr_id * kAckBytes;
            const std::uint64_t key = rnic::dma::ReadU64(a);
            const std::uint64_t version = rnic::dma::ReadU64(a + 8);
            const std::uint64_t mask = rnic::dma::ReadU64(a + 16);
            PostSlot(LL.ack_cli, LL.ack_rx_mr, slot, kAckBytes);
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
            Complete(t, /*via_detour=*/false);
          }
        });
      }
    }
    for (int s = 0; s < cfg_.shards; ++s) {
      shard(s).edge.req->send_cq->SetHostNotify(
          [this, s] { DrainForwards(s); });
    }
  }

  void SendPutAck(int t, int s, std::uint64_t key, std::uint64_t version,
                  std::uint64_t mask) {
    Link& L = link(t, s);
    if (!L.ack_srv->Usable()) {
      return;  // the tenant's watchdog re-issues; the apply is durable
    }
    const int slot = static_cast<int>(L.ack_seq++ %
                                      static_cast<std::uint64_t>(kPutSlots));
    const std::uint64_t a =
        L.ack_tx_mr.addr + static_cast<std::uint64_t>(slot) * kAckBytes;
    shard(s).dev->pd().BeforeStore(a, kAckBytes);
    rnic::dma::WriteU64(a, key);
    rnic::dma::WriteU64(a + 8, version);
    rnic::dma::WriteU64(a + 16, mask);
    verbs::PostSendNow(L.ack_srv, verbs::MakeSend(a, kAckBytes,
                                                  L.ack_tx_mr.lkey,
                                                  /*signaled=*/false));
  }

  // Shard `s` missed the write of `key` (another replica acked it alone):
  // a serving s goes stale so its heal runs anti-entropy, and a re-syncing
  // s queues the key for its next pass — the running pass may already have
  // read the donor's older bytes.
  void NoteMissed(int s, std::uint64_t key) {
    Shard& S = shard(s);
    ++out_.degraded_acks;
    if (S.state == ShardState::kServing) S.state = ShardState::kStale;
    if (S.state == ShardState::kResyncing) S.missed.push_back(key);
  }

  // Applies one put at shard `s` and drives the chain: the primary
  // propagates to its successor and acks only on the WRITE's completion;
  // a degraded head (successor serving while the primary is down, or a
  // primary whose successor is unreachable) acks alone and marks the
  // absent peer's miss.
  void ApplyPut(int t, int s, std::uint64_t key) {
    Shard& S = shard(s);
    const std::uint64_t addr = key < S.vaddr.size() ? S.vaddr[key] : 0;
    if (addr == 0) return;  // not a replica of this key
    const std::uint64_t version = kv::ValueVersion(addr) + 1;
    kv::WriteVersionedValue(S.dev->pd(), addr, cfg_.value_len, key, version);
    const int p = primary_[key];
    if (s != p) {
      // Degraded head: the tenant routed here because the primary was
      // unroutable — the primary is missing this write.
      NoteMissed(p, key);
      SendPutAck(t, s, key, version, 1ULL << s);
      return;
    }
    const int b = ring_.SuccessorOf(p);
    Shard& B = shard(b);
    Edge& E = S.edge;
    const bool peer_up = B.state != ShardState::kDead && E.req->Usable();
    if (!peer_up) {
      NoteMissed(b, key);
      SendPutAck(t, s, key, version, 1ULL << s);
      return;
    }
    // Ring indices wrap at kFwdRing; depth-1 tenants bound in-flight
    // forwards to cfg.tenants, far below the ring size.
    const std::uint64_t idx = E.next++;
    E.ring[idx % kFwdRing] = Fwd{t, b, key, version};
    verbs::SendWr wr =
        verbs::MakeWrite(addr, cfg_.value_len, S.heap->lkey(), B.vaddr[key],
                         B.heap->rkey(), /*signaled=*/true);
    wr.wr_id = idx % kFwdRing;
    verbs::PostSendNow(E.req, wr);
    ++out_.chain_forwards;
  }

  // Forward completions at primary s: the successor durably holds the
  // bytes -> full-chain ack. An error CQE means the propagation died (peer
  // crashed, link black, or flushed by the edge's heal) -> degraded ack,
  // and the peer missed the write.
  void DrainForwards(int s) {
    Edge& E = shard(s).edge;
    rnic::Cqe cqe;
    while (shard(s).dev->PollCq(E.req->send_cq, 1, &cqe) == 1) {
      const Fwd f = E.ring[cqe.wr_id % kFwdRing];
      if (cqe.status == rnic::WcStatus::kSuccess) {
        SendPutAck(f.tenant, s, f.key, f.version,
                   (1ULL << s) | (1ULL << f.peer));
      } else {
        ++out_.error_cqes;
        NoteMissed(f.peer, f.key);
        SendPutAck(f.tenant, s, f.key, f.version, 1ULL << s);
      }
    }
  }

  // --- shard lifecycle: runs on the service's domain ---------------------
  void Fault(std::size_t ei) {
    const FaultEntry& e = cfg_.faults.entries[ei];
    const int s = e.server;
    const int ep = shard(s).dev->fabric_endpoint(0);
    ++out_.faults_applied;
    switch (e.kind) {
      case FaultKind::kBlackhole:
        transport_.SetLinkFaults(ep, 1.0);
        break;
      case FaultKind::kRnrStall:
        for (int t = 0; t < cfg_.tenants; ++t) {
          shard(s).dev->StallRecvsFor(link(t, s).get->server_qp(),
                                      e.rnr_count);
        }
        break;
      case FaultKind::kCrash:
        shard(s).dev->KillProcessResources(kShardPidBase + s);
        shard(s).state = ShardState::kDead;
        break;
      case FaultKind::kFlaky:
        flaky_on_[ei] = 1;
        FlakyBurst(ei);
        break;
      case FaultKind::kSlow:
        transport_.SetLinkDelay(ep, e.slow_ns);
        break;
    }
  }

  // Flaky links drop seeded loss bursts. Burst and gap lengths draw
  // uniform [0.5x, 1.5x] of their configured means.
  void FlakyBurst(std::size_t ei) {
    if (!flaky_on_[ei]) return;
    const FaultEntry& e = cfg_.faults.entries[ei];
    const int ep = shard(e.server).dev->fabric_endpoint(0);
    transport_.SetLinkFaults(ep, e.flaky_loss);
    const sim::Nanos burst = static_cast<sim::Nanos>(
        (0.5 + flaky_rng_[ei].NextDouble()) *
        static_cast<double>(e.flaky_burst));
    sim_.After(burst, [this, ei, ep] {
      if (flaky_on_[ei]) transport_.SetLinkFaults(ep, cfg_.loss);
      const sim::Nanos gap = static_cast<sim::Nanos>(
          (0.5 + flaky_rng_[ei].NextDouble()) *
          static_cast<double>(cfg_.faults.entries[ei].flaky_gap));
      sim_.After(gap, [this, ei] { FlakyBurst(ei); });
    });
  }

  void Heal(std::size_t ei) {
    const FaultEntry& e = cfg_.faults.entries[ei];
    const int s = e.server;
    Shard& S = shard(s);
    const int ep = S.dev->fabric_endpoint(0);
    ++out_.heals_applied;
    switch (e.kind) {
      case FaultKind::kFlaky:
        flaky_on_[ei] = 0;
        [[fallthrough]];
      case FaultKind::kBlackhole:
        transport_.SetLinkFaults(ep, cfg_.loss);
        break;
      case FaultKind::kSlow:
        // Added latency drops nothing: no QP errored, no write was
        // missed — restore the link and close the window.
        transport_.SetLinkDelay(ep, 0);
        NoteWindow(e.down_at);
        return;
      case FaultKind::kRnrStall:
        break;
      case FaultKind::kCrash:
        // Crash + re-join: revive the process's resources and restart from
        // an empty (seed-version) store — the crash lost its memory, so
        // surviving higher-version tags would be phantom state. The heal
        // below re-arms the plumbing, and a recovery streams the key range
        // back before the shard serves.
        ++out_.rejoins;
        S.dev->ReviveProcessResources(kShardPidBase + s);
        for (std::uint64_t key = 1; key < S.vaddr.size(); ++key) {
          if (S.vaddr[key] == 0) continue;
          kv::WriteVersionedValue(S.dev->pd(), S.vaddr[key], cfg_.value_len,
                                  key, /*version=*/0);
        }
        break;
    }
    // A serving shard missed nothing and reopens at once. A stale or
    // re-joining one must anti-entropy before it serves reads again, and
    // one already re-syncing keeps its running recovery.
    const ShardState from = S.state;
    if (from != ShardState::kServing) S.state = ShardState::kResyncing;
    HealLinks(s, /*crash=*/e.kind == FaultKind::kCrash,
              /*reopen=*/from == ShardState::kServing);
    HealEdges(s);
    if (from == ShardState::kServing) {
      NoteWindow(e.down_at);
    } else if (from != ShardState::kResyncing) {
      StartRecovery(s, e.down_at);
    }
  }

  // Heals every tenant's link to shard `s` in three legs: the tenant's
  // domain (client-side QP halves, routing flags), the service's domain
  // (server-side halves and offload program rebuilds), and the tenant's
  // domain again, which resumes sends only once the fresh server program
  // is armed. A co-resident tenant runs all three inline at the heal
  // instant, and T.healing parks a spread tenant's sends across the window
  // so no trigger races the program swap. Only a get-path heal runs leg 3;
  // the put link heals in legs 1 and 2 (a put racing a spread tenant's legs
  // just RNR-retries). `crash` forces a full transport re-arm (the server
  // side was revived in ERROR even if the client QP never noticed);
  // `reopen` restores routing to s now, while a re-syncing shard instead
  // CLOSES routing for every tenant until its recovery finishes —
  // otherwise a tenant that never saw the outage (e.g. parked on the put
  // watchdog the whole window) could read the wiped store.
  void HealLinks(int s, bool crash, bool reopen) {
    for (int t = 0; t < cfg_.tenants; ++t) {
      const Link& L = link(t, s);
      // A response that ran out of retries errors only the server half:
      // the client sees no CQE, and the keepalives ride their own healthy
      // QP pair, so only the service's domain can tell.
      const bool srv_err =
          L.get->server_qp()->state == rnic::QpState::kError;
      const bool srv_bad =
          writes_ && (!L.req_srv->Usable() || !L.ack_srv->Usable());
      const int home = tenant(t).place;
      Cross(kServiceDomain, home, [this, s, t, home, crash, reopen, srv_err,
                                   srv_bad] {
        Tenant& T = tenant(t);
        Link& L = link(t, s);
        char& dead = T.dead[static_cast<std::size_t>(s)];
        rnic::QueuePair* qp = L.get->client_qp();
        const bool errored = qp->state == rnic::QpState::kError;
        const bool get = errored || srv_err || crash || dead;
        if (!reopen) dead = 1;
        const bool rearm = errored || srv_err || crash;
        bool pc_err = false;
        std::vector<std::pair<int, char>> detours;  // (column, client errored)
        rnic::Cqe cqe;
        if (get) {
          ++T.healing;
          // Drain the failure CQEs nothing else polls (the WAIT chain
          // consumed them NIC-side; this is host bookkeeping).
          while (T.dev->PollCq(qp->send_cq, 1, &cqe) == 1) {
            if (cqe.status != rnic::WcStatus::kSuccess) ++T.err_cqes;
          }
          if (rearm) L.get->RearmTransportClientHalf();
          if (reopen) dead = 0;
          if (offloaded_) {
            if (qp->send_cq->hw_count() >= L.chain->wait_threshold()) {
              L.chain->Rearm();  // the old WAIT fired; park a fresh detour
            }
            pc_err = L.probe_cli->state == rnic::QpState::kError;
            if (pc_err) T.dev->Rearm(L.probe_cli);
            if (crash) {
              // Detours whose BACKUP is the re-joined shard parked their
              // get on QPs the crash flushed; re-arm them and park fresh
              // detours.
              for (int x = 0; x < cfg_.shards; ++x) {
                if (ring_.SuccessorOf(x) != s) continue;
                offloads::HashGetHarness& f = *link(t, x).detour;
                const bool fc = f.client_qp()->state == rnic::QpState::kError;
                if (fc) f.RearmTransportClientHalf();
                detours.emplace_back(x, fc ? 1 : 0);
              }
            }
          }
        }
        // The put link's tenant ends, told whether its shard ends went bad.
        const bool put = writes_ && (srv_bad || !L.req_cli->Usable() ||
                                     !L.ack_cli->Usable());
        if (put) {
          // Drain flushed/error CQEs nothing else polls.
          for (rnic::QueuePair* q : {L.req_cli, L.ack_cli}) {
            while (T.dev->PollCq(q->send_cq, 1, &cqe) == 1) {
              if (cqe.status != rnic::WcStatus::kSuccess) ++T.err_cqes;
            }
          }
          T.dev->Rearm(L.req_cli);
          T.dev->Rearm(L.ack_cli);
          for (int i = 0; i < kPutSlots; ++i) {
            PostSlot(L.ack_cli, L.ack_rx_mr, i, kAckBytes);
          }
        }
        if (!get && !put) return;
        Cross(home, kServiceDomain,
              [this, s, t, home, get, put, rearm, pc_err,
               arm_n = T.remaining + 8, detours = std::move(detours)] {
          Link& LS = link(t, s);
          bool rearm_pc = false;
          // Detour columns the final leg must finish: (column, client half
          // still to re-arm).
          std::vector<std::pair<int, char>> fresh;
          if (rearm && get) {
            LS.get->RearmTransportServerHalf(arm_n);
            LS.get->SetServerOwner(kShardPidBase + s);  // re-tag the program
          }
          if (offloaded_ && get) {
            if (pc_err || LS.probe_srv->state == rnic::QpState::kError) {
              rearm_pc = !pc_err;  // only the server end tripped
              shard(s).dev->Rearm(LS.probe_srv);
              for (int i = 0; i < 64; ++i) {
                verbs::PostRecv(LS.probe_srv, verbs::RecvWr{});
              }
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
          if (put) {
            shard(s).dev->Rearm(LS.req_srv);
            shard(s).dev->Rearm(LS.ack_srv);
            for (int i = 0; i < kPutSlots; ++i) {
              PostSlot(LS.req_srv, LS.req_rx_mr, i, cfg_.value_len);
            }
          }
          if (!get) return;
          Cross(kServiceDomain, home,
                [this, s, t, rearm_pc, fresh = std::move(fresh)] {
            Tenant& TF = tenant(t);
            if (rearm_pc) TF.dev->Rearm(link(t, s).probe_cli);
            for (const auto& [x, nc] : fresh) {
              Link& LX = link(t, x);
              if (nc) LX.detour->RearmTransportClientHalf();
              LX.detour->PrepostResponseRecvs(kDetourArms + 4);
              LX.chain->Rearm();
            }
            --TF.healing;
            if (TF.waiting && TF.target == s) {
              // The pending op died in the reset's flush — re-send it (its
              // latency keeps accruing from the original t_sent; Send
              // respects the dead flags, so a re-syncing s is avoided).
              ++TF.heal_resends;
              Send(t);
            } else if (!TF.waiting && TF.remaining > 0 && TF.started) {
              // The tenant parked because both replicas looked dead.
              Send(t);
            }
          });
        });
      });
    }
  }

  // The chain edges into and out of shard `s`: an errored edge flushes its
  // in-flight forwards (degraded acks, so no tenant's put is stranded) and
  // re-arms both ends.
  void HealEdges(int s) {
    if (!writes_) return;
    for (int x = 0; x < cfg_.shards; ++x) {
      if (x != s && ring_.SuccessorOf(x) != s) continue;
      Edge& E = shard(x).edge;
      if (E.req->Usable() && E.rsp->Usable()) continue;
      DrainForwards(x);
      E.req->device->Rearm(E.req);
      E.rsp->device->Rearm(E.rsp);
    }
  }

  // Closes a fault window: the degraded span runs from its down_at to now.
  void NoteWindow(sim::Nanos down_at) {
    out_.degraded_window_us =
        std::max(out_.degraded_window_us, sim::ToMicros(sim_.now() - down_at));
  }

  // Anti-entropy runs in passes. Each pass streams a list of s's keys back
  // from its chain peers: for each key the donor is the other replica (the
  // primary if s backs it up, the successor if s owns it), one session per
  // donor over a QP pair kept for the whole recovery. The first pass reads
  // s's whole key range. A write s misses meanwhile, and every key of a
  // session that failed (its donor's or s's own link died), goes on the
  // `missed` list, and the next pass re-reads exactly those keys, over a
  // fresh QP pair where the old one errored. Only a pass that misses
  // nothing lets s serve again.
  void StartRecovery(int s, sim::Nanos down_at) {
    Shard& S = shard(s);
    S.down_at = down_at;
    S.resync_links.assign(static_cast<std::size_t>(cfg_.shards),
                          {nullptr, nullptr});
    S.missed.clear();
    std::vector<std::uint64_t> keys;
    for (std::uint64_t key = 1; key < S.vaddr.size(); ++key) {
      if (S.vaddr[key] != 0) keys.push_back(key);
    }
    Pass(s, keys);
  }

  void Pass(int s, const std::vector<std::uint64_t>& keys) {
    Shard& S = shard(s);
    std::vector<std::vector<kv::ResyncSession::Item>> by_donor(
        static_cast<std::size_t>(cfg_.shards));
    for (std::uint64_t key : keys) {
      const int p = primary_[key];
      const int donor = p == s ? ring_.SuccessorOf(p) : p;
      if (donor == s || !shard(donor).serves()) {
        continue;  // no live donor; the key keeps its local (wiped) value
      }
      by_donor[static_cast<std::size_t>(donor)].push_back(
          kv::ResyncSession::Item{key, shard(donor).vaddr[key], S.vaddr[key],
                                  cfg_.value_len});
    }
    // Counted afresh each pass: a crash drops a running recovery whose
    // sessions never finish.
    S.pending = 0;
    for (const auto& items : by_donor) S.pending += items.empty() ? 0 : 1;
    if (S.pending == 0) {
      PassDone(s);
      return;
    }
    for (int d = 0; d < cfg_.shards; ++d) {
      auto& items = by_donor[static_cast<std::size_t>(d)];
      if (items.empty()) continue;
      auto& [rq, dq] = S.resync_links[static_cast<std::size_t>(d)];
      if (rq == nullptr || !rq->Usable() || !dq->Usable()) {
        rq = MakeQp(*S.dev, kShardPidBase + s);
        dq = MakeQp(*shard(d).dev, kShardPidBase + d);
        rnic::ConnectOverTransport(rq, dq, transport_);
      }
      ++out_.resyncs_started;
      const kv::ResyncSession::Config rc{.qp = rq,
                                         .remote_rkey = shard(d).heap->rkey()};
      std::vector<std::uint64_t> read;
      for (const auto& it : items) read.push_back(it.key);
      sessions_.push_back(std::make_unique<kv::ResyncSession>(
          sim_, rc, std::move(items),
          [this, s, read = std::move(read)](
              const kv::ResyncSession::Stats& st) {
            Shard& R = shard(s);
            out_.resync_keys_scanned += st.keys_scanned;
            out_.resync_keys_applied += st.keys_applied;
            out_.resync_keys_kept += st.keys_kept_local;
            out_.resync_bytes += st.bytes_read;
            if (st.failed) {
              ++out_.resync_failures;
              R.missed.insert(R.missed.end(), read.begin(), read.end());
            }
            if (--R.pending == 0) PassDone(s);
          }));
      sessions_.back()->Start();
    }
  }

  // The end of a pass starts the next one over the keys it missed. With
  // nothing left to re-read the recovery completes: the shard serves again,
  // routing re-opens, and the degraded window closes.
  void PassDone(int s) {
    Shard& S = shard(s);
    std::vector<std::uint64_t> keys;
    keys.swap(S.missed);
    if (!keys.empty()) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      // From a fresh event: the finishing session's CQ hook is still
      // running, and the next pass's session takes that hook over.
      sim_.At(sim_.now(), [this, s, keys = std::move(keys)] { Pass(s, keys); });
      return;
    }
    S.state = ShardState::kServing;
    NoteWindow(S.down_at);
    for (int t = 0; t < cfg_.tenants; ++t) {
      // The routing flag and resume belong to the tenant's domain.
      Cross(kServiceDomain, tenant(t).place, [this, t, s] {
        Tenant& T = tenant(t);
        T.dead[static_cast<std::size_t>(s)] = 0;
        if (!T.waiting && T.remaining > 0 && T.started) Send(t);
      });
    }
  }

  // --- results -----------------------------------------------------------
  KvServiceResult Report() {
    // Merge the shard-local tenant accounting (tenant order: deterministic,
    // and order-independent anyway — sums and extrema).
    out_.keys_visible = eligible_.size();
    sim::Nanos first_sent = -1;
    sim::Nanos last_resp = 0;
    sim::LatencyRecorder all;
    sim::LatencyRecorder put_all;
    for (const Tenant& T : tenants_) {
      if (T.first_sent >= 0 && (first_sent < 0 || T.first_sent < first_sent)) {
        first_sent = T.first_sent;
      }
      last_resp = std::max(last_resp, T.last_resp);
      out_.error_cqes += T.err_cqes;
      out_.stale_responses += T.stale;
      out_.heal_reissues += T.heal_resends;
      out_.probes_sent += T.probes;
      out_.put_retries += T.put_retry;
      out_.ryw_violations += T.ryw_viol;
      out_.acked_puts_full += T.full_acks;
      // Summarize sorts the samples in place, which fixes the order (and so
      // the float sum) of the merged recorder below.
      const sim::LatencySummary sum = T.rec.Summarize();
      const KvTenantStats ts{
          .gets = T.rec.count(), .puts = T.puts, .detour_responses = T.detours,
          .reroutes = T.reroutes, .host_reissues = T.host_reissues,
          .avg_us = sum.avg_us, .p50_us = sum.p50_us, .p99_us = sum.p99_us,
          .p999_us = sum.p999_us, .max_blip_us = sim::ToMicros(T.max_blip)};
      out_.tenants.push_back(ts);
      out_.gets += ts.gets;
      out_.puts += T.puts;
      out_.detour_responses += T.detours;
      out_.reroutes += T.reroutes;
      out_.host_reissues += T.host_reissues;
      out_.unanswered += static_cast<std::uint64_t>(T.remaining);
      out_.max_blip_us = std::max(out_.max_blip_us, ts.max_blip_us);
      for (sim::Nanos sample : T.rec.samples()) all.Add(sample);
      for (sim::Nanos sample : T.put_rec.samples()) put_all.Add(sample);
    }
    const sim::LatencySummary sum = all.Summarize();
    out_.avg_us = sum.avg_us;
    out_.p50_us = sum.p50_us;
    out_.p99_us = sum.p99_us;
    out_.p999_us = sum.p999_us;
    const sim::LatencySummary psum = put_all.Summarize();
    out_.put_avg_us = psum.avg_us;
    out_.put_p50_us = psum.p50_us;
    out_.put_p99_us = psum.p99_us;
    out_.put_p999_us = psum.p999_us;

    // Zero-loss invariant: every acked write must still be durable on every
    // replica that confirmed it (skipping replicas not serving at the end —
    // a dead or re-syncing shard attests nothing). The `>=` is because
    // later puts legitimately overwrite with higher versions.
    for (const Tenant& T : tenants_) {
      for (const AckedWrite& w : T.ledger) {
        for (int s = 0; s < cfg_.shards; ++s) {
          if (!(w.mask & (1ULL << s))) continue;
          Shard& S = shard(s);
          if (!S.serves()) continue;
          if (kv::ValueVersion(S.vaddr[w.key]) < w.version) {
            ++out_.lost_acked_writes;
          }
        }
      }
    }
    // Divergence: replicas that both serve a key must hold internally
    // consistent values, and equal versions must mean equal bytes.
    if (versioned_) {
      for (std::uint64_t key : eligible_) {
        const int p = primary_[key];
        Shard& P = shard(p);
        Shard& B = shard(ring_.SuccessorOf(p));
        if (!P.serves() || !B.serves()) continue;
        const std::uint64_t pa = P.vaddr[key];
        const std::uint64_t ba = B.vaddr[key];
        const bool pi = kv::VersionedValueIntact(pa, cfg_.value_len, key);
        const bool bi = kv::VersionedValueIntact(ba, cfg_.value_len, key);
        if (!pi || !bi) {
          ++out_.value_divergence;
          continue;
        }
        if (kv::ValueVersion(pa) == kv::ValueVersion(ba) &&
            std::memcmp(reinterpret_cast<const void*>(pa),
                        reinterpret_cast<const void*>(ba),
                        cfg_.value_len) != 0) {
          ++out_.value_divergence;
        }
      }
    }
    const sim::Nanos span = last_resp > first_sent ? last_resp - first_sent : 1;
    out_.duration_us = sim::ToMicros(span);
    out_.gets_per_sec = static_cast<double>(out_.gets) / sim::ToSeconds(span);
    const sim::TransportCounters tcs = transport_.counters();
    out_.data_packets = tcs.data_packets;
    out_.retransmits = tcs.retransmits;
    out_.rto_fires = tcs.rto_fires;
    out_.rnr_naks = tcs.rnr_naks;
    out_.sack_retransmits = tcs.sack_retransmits;
    for (const Shard& S : shards_) {
      out_.qp_errors += S.dev->counters().qp_errors;
      out_.qp_rearms += S.dev->counters().qp_rearms;
    }
    for (const Tenant& T : tenants_) {
      out_.qp_errors += T.dev->counters().qp_errors;
      out_.qp_rearms += T.dev->counters().qp_rearms;
    }
    out_.events = ssim_.events_processed();
    out_.sim_shards = cfg_.sim_shards;
    // Moved, not copied: a copy's fresh allocation let malloc trim the heap
    // behind it, and the next run's set-up paid its page faults again.
    return std::move(out_);
  }

  const KvServiceConfig& cfg_;
  sim::ShardedSimulator ssim_;
  sim::Simulator& sim_;  // the service's domain
  sim::Fabric fabric_;
  sim::Transport transport_;
  const kv::ConsistentHashRing ring_;
  // Service-side code counts straight into the result; tenant-side
  // counters are merged in after the run.
  KvServiceResult out_;
  std::vector<Shard> shards_;
  std::vector<Tenant> tenants_;
  // Each key's ring primary, by key (the ring never changes in a run).
  std::vector<std::uint8_t> primary_;
  std::vector<std::uint64_t> eligible_;
  std::vector<double> cdf_;  // Zipf CDF over eligible_ (empty = uniform)
  std::size_t rot_ = 1;      // per-tenant rotation of the Zipf ranking
  const bool versioned_;
  const bool offloaded_;
  const bool writes_;
  std::vector<char> flaky_on_;
  std::vector<sim::Rng> flaky_rng_;
  std::vector<std::unique_ptr<kv::ResyncSession>> sessions_;
};

}  // namespace

KvServiceResult RunKvService(const KvServiceConfig& cfg) {
  Validate(cfg);
  return KvService(cfg).Run();
}

}  // namespace redn::workload
