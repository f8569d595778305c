// The simulated RDMA NIC: queue pairs, verb execution, ordering semantics,
// and the contended-resource timing model.
//
// Execution model (mirrors §3.1 of the paper):
//  - Every WQ is pinned to one processing unit (PU) on its port; WQEs in a
//    WQ issue strictly in order, pipelined (issue of n+1 does not wait for
//    completion of n) — this is "WQ order".
//  - WAIT blocks a WQ until a target CQ's NIC-internal completion count
//    reaches a threshold — "completion order".
//  - Managed queues never prefetch: the NIC fetches (and snapshots) each WQE
//    one-by-one through a serialized per-port fetch unit, and only up to the
//    limit raised by ENABLE verbs — "doorbell order". A WQE modified before
//    its (late) fetch is executed in its *modified* form; a WQE in a
//    non-managed queue is snapshotted at doorbell time and later
//    modifications are invisible. This asymmetry is exactly why RedN needs
//    doorbell ordering for self-modifying code.
//  - Execution limits are monotonic and may exceed the posted count: that is
//    WQ recycling (§3.4) — the NIC wraps the ring and re-executes slots.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rnic/calibration.h"
#include "rnic/memory.h"
#include "rnic/queues.h"
#include "rnic/wqe.h"
#include "sim/fabric.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace redn::sim {
class Transport;
enum class MsgFailure : std::uint8_t;
}  // namespace redn::sim

namespace redn::rnic {

class RnicDevice;

// ibv_qp_state analogue. QPs are born RTS (the simulator's historical
// behaviour — Connect* does the whole handshake); the machine only matters
// on the error path: a transport retry budget dying moves the QP to kError
// (in-flight WR completes with RETRY_EXC/RNR_RETRY_EXC, queued WRs flush),
// and ModifyQp kReset -> kInit -> kRtr -> kRts re-arms it.
enum class QpState : std::uint8_t { kReset, kInit, kRtr, kRts, kError };

const char* QpStateName(QpState s);

// Queue pair: a send queue + receive queue bound to CQs and a port.
struct QueuePair {
  std::uint32_t id = 0;
  RnicDevice* device = nullptr;
  WorkQueue sq;
  WorkQueue rq;
  CompletionQueue* send_cq = nullptr;
  CompletionQueue* recv_cq = nullptr;
  QueuePair* peer = nullptr;     // connected remote (or loopback) QP
  sim::Nanos net_one_way = 0;    // 0 for loopback
  // True when the connection routes through a shared sim::Fabric (see
  // ConnectOverFabric): latency and serialization come from the contended
  // links instead of the constant net_one_way above.
  bool via_fabric = false;
  // Non-null when the connection additionally rides the packetized
  // go-back-N transport (ConnectOverTransport): WRITE/SEND/READ payloads
  // segment into MTU packets subject to per-link loss, and requester
  // completions wait for the transport-level cumulative ACK.
  sim::Transport* transport = nullptr;
  int flow = -1;  // outbound transport flow (this QP -> peer)
  int port = 0;
  bool alive = true;             // false once the owning process died
  int owner_pid = 0;             // resource-ownership for failure experiments
  QpState state = QpState::kRts;
  // Receiver-stall fault injection (StallRecvsFor): the next N inbound
  // transport delivery attempts see "no RECV posted" regardless of the
  // RQ's depth. Counted per rnr_probe invocation, so each backoff retry of
  // one SEND consumes one — N models attempts, not distinct messages.
  int stall_recvs = 0;
  // Bumped on every ModifyQp(kReset). Transport on_failed callbacks capture
  // the value at message-send time: a mismatch means a reset (and possibly a
  // re-arm) happened while the message was in flight, so the failure must
  // flush silently instead of erroring the freshly re-armed QP. A flow
  // whose halves share a domain flushes synchronously inside the reset
  // (state == kReset covers it); a cross-shard flow flushes at the fence
  // echo, after the re-arm.
  std::uint64_t reset_gen = 0;

  // WQ rate limiter (ibv_modify_qp_rate_limit analogue): minimum gap
  // between issued WQEs. 0 = unlimited.
  sim::Nanos rate_gap = 0;
  sim::Nanos next_rate_slot = 0;

  // Last MR resolved for remote (rkey) accesses landing on this QP.
  MrCacheEntry remote_mr_cache;

  std::unique_ptr<std::byte[]> sq_buf;
  std::unique_ptr<std::byte[]> rq_buf;
  MemoryRegion sq_mr;  // the registered "code region" (self-modification)
  MemoryRegion rq_mr;
};

struct QpConfig {
  std::uint32_t sq_depth = 256;
  std::uint32_t rq_depth = 256;
  bool managed = false;  // doorbell-order (no prefetch) send queue
  int port = 0;
  CompletionQueue* send_cq = nullptr;  // required
  CompletionQueue* recv_cq = nullptr;  // required
  int owner_pid = 0;
  // Ops/sec cap (0 = unlimited). See §3.5 "Isolation".
  double rate_ops_per_sec = 0.0;
};

// Execution counters, used both for reporting and for the paper's WR-budget
// claims (Table 2, Fig 13's "~30 vs ~50 WRs").
struct DeviceCounters {
  std::uint64_t executed_by_opcode[static_cast<int>(Opcode::kOpcodeCount)] = {};
  std::uint64_t managed_fetches = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t cqes = 0;
  std::uint64_t rnr_drops = 0;
  std::uint64_t rnr_naks = 0;          // transport RNR probes answered not-ready
  std::uint64_t error_completions = 0; // every non-success CQE delivered
  std::uint64_t wrs_flushed = 0;       // WR_FLUSH_ERR CQEs (SQ + RQ)
  std::uint64_t qp_errors = 0;         // RTS->ERROR transitions
  std::uint64_t qp_rearms = 0;         // ERROR->...->RTS recoveries
  // Decoded-WQE translation cache: fetches served by a verified cached
  // decode / fetches that had to decode / cache entries a write killed or
  // refreshed (tracked stores and verify failures both count).
  std::uint64_t wqe_cache_hits = 0;
  std::uint64_t wqe_cache_misses = 0;
  std::uint64_t wqe_cache_invalidations = 0;

  std::uint64_t TotalExecuted() const {
    std::uint64_t t = 0;
    for (auto v : executed_by_opcode) t += v;
    return t;
  }
  double WqeCacheHitRate() const {
    const std::uint64_t total = wqe_cache_hits + wqe_cache_misses;
    return total == 0 ? 1.0
                      : static_cast<double>(wqe_cache_hits) /
                            static_cast<double>(total);
  }
};

// Fixed-capacity scatter/gather list resolved from a WQE. Lives on the
// caller's stack — resolving SGEs never allocates (kMaxSges is the
// device-wide scatter limit).
struct SgeScratch {
  std::array<Sge, kMaxSges> entries;
  int count = 0;

  const Sge* begin() const { return entries.data(); }
  const Sge* end() const { return entries.data() + count; }
};

// Recycled shuttle for data in flight between engine events: the payload
// bytes, the WQE image that produced them, and small per-op scratch. Events
// capture a single Payload* instead of a WqeImage + shared_ptr<vector>,
// which keeps closures inside the simulator's inline event storage and
// makes steady-state data verbs allocation-free (buffer capacity is
// retained across reuse). CQEs do NOT ride here: a Cqe is 32 bytes and is
// captured directly inside its delivery event.
struct Payload {
  std::vector<std::byte> bytes;
  WqeImage img{};
  std::uint64_t slot = 0;     // absolute WQE index (SgePlan lookup at scatter)
  std::uint64_t scratch = 0;  // atomics: old value returned to the requester
  bool rmw_done = false;      // atomics: the RMW actually executed remotely
  // WRITE/SEND: the responder's acceptance status, carried from arrival to
  // the ACK-time completion on the requester.
  WcStatus st = WcStatus::kSuccess;
  Payload* next_free = nullptr;

  void Recycle() { bytes.clear(); }  // keeps capacity for the next op
};

// Device-owned free list of recycled engine objects. Acquire/Release never
// touch the system allocator once the pool has grown to the device's peak
// in-flight depth. T needs an intrusive `T* next_free` link and a
// `Recycle()` that resets state while keeping buffer capacity.
template <class T>
class RecyclePool {
 public:
  RecyclePool() = default;
  RecyclePool(const RecyclePool&) = delete;
  RecyclePool& operator=(const RecyclePool&) = delete;

  T* Acquire() {
    ++acquires_;
    if (free_ == nullptr) {
      all_.push_back(std::make_unique<T>());
      return all_.back().get();
    }
    ++reuses_;
    T* p = free_;
    free_ = p->next_free;
    p->next_free = nullptr;
    return p;
  }

  void Release(T* p) {
    p->Recycle();
    p->next_free = free_;
    free_ = p;
  }

  std::size_t allocated() const { return all_.size(); }
  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  std::vector<std::unique_ptr<T>> all_;
  T* free_ = nullptr;
  std::uint64_t acquires_ = 0;
  std::uint64_t reuses_ = 0;
};

using PayloadPool = RecyclePool<Payload>;

class RnicDevice {
 public:
  RnicDevice(sim::Simulator& sim, NicConfig cfg, Calibration cal,
             std::string name = "rnic");
  ~RnicDevice();

  RnicDevice(const RnicDevice&) = delete;
  RnicDevice& operator=(const RnicDevice&) = delete;

  sim::Simulator& sim() { return sim_; }
  const NicConfig& config() const { return cfg_; }
  const Calibration& cal() const { return cal_; }
  const std::string& name() const { return name_; }
  ProtectionDomain& pd() { return pd_; }
  const DeviceCounters& counters() const { return counters_; }
  const PayloadPool& payload_pool() const { return payloads_; }

  // --- Resource setup -------------------------------------------------------
  CompletionQueue* CreateCq();
  QueuePair* CreateQp(const QpConfig& cfg);
  CompletionQueue* GetCq(std::uint32_t id);
  QueuePair* GetQp(std::uint32_t id);

  // --- Driver-side operations (the "verbs" layer calls these) --------------
  // Rings the doorbell on a non-managed SQ: the NIC fetches and snapshots
  // everything posted so far, then starts executing. Managed SQs ignore
  // doorbells; they advance only via ENABLE.
  void RingDoorbell(QueuePair* qp);
  // Notifies the NIC that RECVs were appended (no doorbell latency; RQ WQEs
  // are read at message arrival).
  void NotifyRecvPosted(QueuePair* qp);
  int PollCq(CompletionQueue* cq, int max, Cqe* out);
  // Host-side ENABLE fallback: lets tests drive managed queues directly.
  void HostEnable(QueuePair* qp, std::uint64_t limit);
  // ibv_modify_qp_rate_limit analogue: reconfigures the WQ pacing gap
  // (0 = unlimited). Forgets the schedule built under the previous rate, so
  // the first WQE after a reconfigure paces from now rather than waiting
  // out a slot computed from the old gap.
  void SetRateLimit(QueuePair* qp, double ops_per_sec);
  // ibv_modify_qp analogue for the state machine. kReset drops the WQ
  // backlog, clears the error latches, and (transport connections) resets
  // the QP's outbound flow to a fresh PSN space; kInit/kRtr/kRts record the
  // re-arm handshake (an ERROR->RTS recovery bumps counters().qp_rearms);
  // kError force-transitions with the same flush semantics as a transport
  // budget death.
  void ModifyQp(QueuePair* qp, QpState next);
  // Deterministic receiver-stall fault injection: the next `n` delivery
  // attempts of inbound transport SENDs targeting `qp` are RNR-NAKed as if
  // no RECV were posted. `n` counts probe attempts — each backoff retry of
  // the same SEND consumes one — so `n` NAK+backoff rounds hit one message
  // that keeps retrying.
  void StallRecvsFor(QueuePair* qp, int n) { qp->stall_recvs += n; }

  // --- Shared fabric --------------------------------------------------------
  // Plugs `port` into a shared fabric. QPs on this port connected with
  // ConnectOverFabric route their traffic through the fabric's contended
  // links; QPs connected with Connect/ConnectSelf keep the constant-latency
  // compat path.
  void AttachPort(int port, sim::Fabric& fabric, const sim::LinkSpec& spec);
  sim::Fabric* fabric(int port) const { return fabric_ports_[port].fabric; }
  int fabric_endpoint(int port) const { return fabric_ports_[port].endpoint; }

  // --- Failure injection ----------------------------------------------------
  // Kills every QP owned by `pid` (the OS reclaiming a dead process's
  // memory); in-flight and future work on those QPs stops, mid-chain.
  void KillProcessResources(int pid);
  // Re-join: the killed process (or a spare replacement adopting its pid
  // and resources) comes back. Every QP the kill marked dead becomes alive
  // again but stays in ERROR with its error latches set — the owner must
  // still cycle it through ModifyQp kReset -> ... -> kRts before use,
  // exactly like any other errored QP.
  void ReviveProcessResources(int pid);
  bool HasLiveQps() const;

  // Tracked-write (dirty) generation of a managed QP's SQ ring — how many
  // NIC-side stores have landed inside it. 0 for unwatched (non-managed)
  // rings. Diagnostic surface for tests and tooling.
  std::uint64_t RingDirtyGen(const QueuePair* qp) const {
    return ring_watches_.DirtyGen(&qp->sq);
  }

  // --- Utilisation introspection (bottleneck reporting for Table 4) --------
  double PuUtilisation(int port, sim::Nanos window) const;
  double FetchUnitUtilisation(int port, sim::Nanos window) const;
  double LinkUtilisation(int port, sim::Nanos window) const;
  double PcieUtilisation(sim::Nanos window) const;
  const char* BusiestResource(sim::Nanos window) const;

 private:
  friend struct QueuePair;
  struct PortResources {
    std::vector<sim::FifoResource> pus;
    sim::FifoResource fetch_unit;   // serialized managed-mode WQE fetches
    sim::FifoResource atomic_unit;  // PCIe atomic concurrency control
    sim::BandwidthResource link;
    explicit PortResources(int pus_count, double link_gbps)
        : pus(pus_count), link(link_gbps) {}
  };

  // One CQE delivery, captured by value inside its event (56 bytes with the
  // packed Cqe — fits the simulator's 64-byte inline storage). Runs at the
  // NIC-internal completion instant: bumps hw_count, wakes WAIT waiters,
  // and stages the host entry at the precomputed visibility instant.
  struct CqeDeliver {
    RnicDevice* dev;
    CompletionQueue* cq;
    sim::Nanos visible_at;
    Cqe cqe;
    void operator()() const;
  };

  // Pooled batch of WAIT waiters woken by one CQE, resumed by a single
  // event after cal.wait_resume.
  struct ResumeBatch {
    std::vector<WorkQueue*> wqs;
    ResumeBatch* next_free = nullptr;

    void Recycle() { wqs.clear(); }  // keeps capacity
  };

  // Engine.
  void Advance(WorkQueue& wq);
  void Issue(WorkQueue& wq, std::uint64_t idx);
  void FinishControlVerb(WorkQueue& wq, std::uint64_t idx, const WqeImage& img);
  // Takes ownership of `pl` (image + slot already staged by Issue); every
  // path releases it back to the pool when the op retires.
  void ExecuteData(WorkQueue& wq, std::uint64_t idx, Payload* pl,
                   sim::Nanos t_issue);
  // The one delivery path of a QP connected with ConnectOverFabric or
  // ConnectOverTransport, at any shard count (a same-shard SendTo is a
  // plain At). Each op splits at the wire: the requester's device reserves
  // its TX pipe (or sends a transport message), the responder's device
  // reserves its RX pipe and runs every responder-side check — liveness,
  // protection, RQ state — on its own domain, and the ACK/NAK/response
  // legs come back as messages. Requester-side state (wq.error,
  // qp->alive, scatter) is only ever touched on the requester's domain, at
  // the ACK instant, so a dead responder is learned from its NAK one round
  // trip after issue (docs/PARSIM.md "Device paths"). Atomics on a
  // transport QP take the fabric path, and NOOPs complete inside the NIC
  // on every connection (see docs/NET.md).
  void SendOverFabric(WorkQueue& wq, QueuePair* peer, Payload* pl,
                      sim::Nanos ready, sim::Nanos ow);
  void ReadOverFabric(WorkQueue& wq, QueuePair* peer, Payload* pl,
                      sim::Nanos t_issue, sim::Nanos ow);
  void AtomicOverFabric(WorkQueue& wq, QueuePair* peer, Payload* pl,
                        sim::Nanos t_issue, sim::Nanos ow);
  // Packetized-transport variants. WRITE/SEND: the gathered payload goes
  // out as one transport message from `ready`; the responder accepts it at
  // in-order delivery and the requester CQE waits for the cumulative ACK.
  // READ: a header-only request message; the response payload rides back
  // on the responder's flow and completes the requester at delivery.
  void SendOverTransport(WorkQueue& wq, QueuePair* peer, Payload* pl,
                         sim::Nanos ready);
  void ReadOverTransport(WorkQueue& wq, QueuePair* peer, Payload* pl,
                         sim::Nanos t_issue, sim::Nanos ow);
  // Snapshots slot `idx` through the translation cache: a verified cached
  // decode is a hit (no reload); anything else decodes and refills. Charges
  // no simulated time itself — callers pay the fetch latency exactly as
  // before the cache existed.
  void FetchSlot(WorkQueue& wq, std::uint64_t idx);
  void CompleteWr(QueuePair* qp, CompletionQueue* cq, const WqeImage& img,
                  sim::Nanos t_done, WcStatus status, std::uint32_t byte_len,
                  bool force_cqe = false, sim::Nanos host_extra = 0);
  // `host_extra` delays only host visibility (e.g. the RC ack a NOP's CQE
  // waits for), not the NIC-internal count WAIT verbs observe.
  void DeliverCqe(CompletionQueue* cq, const Cqe& cqe, sim::Nanos t_hw,
                  sim::Nanos host_extra = 0);
  // Clears `waiting` and schedules the wait_resume wake-up(s) for the
  // waiters BumpHwCount just returned — one event for the whole batch.
  void ScheduleResumes(const std::vector<WorkQueue*>& ready);
  // Shared enable semantics (ENABLE verb and HostEnable): raises the
  // execution limit monotonically, snapshots non-managed queues up to the
  // new limit, and kicks the queue.
  void ApplyEnable(WorkQueue& wq, std::uint64_t limit);
  void FailWr(WorkQueue& wq, const WqeImage& img, sim::Nanos t, WcStatus status);
  // Transport retry-budget death: delivers the in-flight WR's error CQE
  // (always signaled — errors never complete silently) and moves the QP to
  // ERROR, flushing everything queued behind it.
  void FailQpOverTransport(QueuePair* qp, const WqeImage& img, sim::Nanos t,
                           WcStatus status);
  // RTS->ERROR: latches the WQ error flags and flushes queued-but-
  // unexecuted SQ WQEs and unconsumed RECVs with WR_FLUSH_ERR CQEs (one
  // same-instant event later, so in-flight failures complete first).
  void TransitionToError(QueuePair* qp);
  void FlushQueued(QueuePair* qp);
  static WcStatus StatusOf(sim::MsgFailure why);

  // Responder side, executed at arrival time on the responder device (this
  // one). Every check reads only responder state, so the same code serves
  // the compat path and the fabric/transport path at any shard count.
  WcStatus AcceptWrite(QueuePair* dst_qp, std::uint64_t addr,
                       std::uint32_t rkey, const std::byte* data,
                       std::size_t len);
  WcStatus AcceptSend(QueuePair* dst_qp, const std::byte* data,
                      std::size_t len, std::uint32_t imm, bool has_imm,
                      std::size_t reported_len);
  // WRITE / WRITE_IMM / SEND / SEND_IMM carried by `pl`.
  WcStatus AcceptPayload(QueuePair* dst_qp, const Payload& pl);
  // READ: checks the target and appends its `len` bytes to `out`.
  WcStatus AcceptRead(QueuePair* dst_qp, const WqeImage& img,
                      std::uint64_t len, std::vector<std::byte>& out);
  // Atomic: checks the target, reserves the port's atomic unit and
  // schedules the read-modify-write at the grant instant (old value into
  // pl->scratch, pl->rmw_done set). Returns that instant, or -1 with
  // `*nak` set when the request is refused.
  sim::Nanos AcceptAtomic(QueuePair* dst_qp, Payload* pl, WcStatus* nak);

  // Requester side, on the requester device at the ACK/response instant.
  // A WQ that flushed or a requester that died since issue swallows the
  // outcome. AckSend completes a WRITE/SEND with pl->st (a remote error
  // latches the WQ); LandRead scatters a READ's bytes and completes at
  // `t_done`; FinishAtomic returns the old value; NakWr fails the WR.
  // All but LandRead release `pl`.
  void AckSend(WorkQueue& wq, Payload* pl, sim::Nanos t_done);
  void LandRead(WorkQueue& wq, const WqeImage& img, std::uint64_t slot,
                const std::vector<std::byte>& bytes, sim::Nanos t_done);
  void FinishAtomic(WorkQueue& wq, Payload* pl);
  void NakWr(WorkQueue& wq, Payload* pl, WcStatus st);

  // Gather/scatter helpers with protection checks. All SGE resolution goes
  // through caller-provided (stack) scratch — no per-op allocation. `wq` is
  // the queue whose WQE is being executed and `idx` its absolute slot: the
  // slot's SgePlan absorbs the CheckLocal re-walk for non-table WQEs, and
  // the queue's last-hit MR cache absorbs the remaining key lookups.
  bool GatherLocal(WorkQueue& wq, std::uint64_t idx, const WqeImage& img,
                   std::vector<std::byte>& out, WcStatus* err);
  bool ScatterList(WorkQueue& wq, std::uint64_t idx, const WqeImage& img,
                   const std::byte* data, std::size_t len, WcStatus* err);
  void ResolveSges(const WqeImage& img, SgeScratch& out) const;
  // Remote byte count of a READ: with a scatter table the WQE length field
  // holds the SGE count, so the byte count is the sum of the entries.
  std::uint64_t ReadLength(const WqeImage& img) const;
  // Tracked NIC-side store into this device's memory: routes the written
  // extent through the ring watch set so overlapped cached decodes are
  // refreshed (write-through) and counted as invalidations.
  void NoteDmaWrite(std::uint64_t addr, std::size_t len) {
    if (ring_watches_.empty()) return;
    ring_watches_.ForOverlaps(
        addr, len, [this](void* owner, std::uint64_t first, std::uint64_t last,
                          std::uint64_t) {
          WorkQueue* wq = static_cast<WorkQueue*>(owner);
          counters_.wqe_cache_invalidations += wq->RefreshSlots(
              first / kWqeSize, last / kWqeSize);
        });
  }

  sim::Nanos PuService(Opcode op) const;
  sim::Nanos ExecExtra(Opcode op) const;
  // ExecExtra with the calibration's jitter applied.
  sim::Nanos ExecCost(Opcode op);
  // Store-and-forward serial delay for `bytes` of payload. `wire_link` is
  // the egress link the bytes serialize through (the QP's own port for a
  // requester, the responder's port for a READ response); nullptr means
  // loopback, which crosses PCIe twice instead.
  sim::Nanos DataDelay(std::uint64_t bytes,
                       const sim::BandwidthResource* wire_link) const;
  // Instant `len` bytes of `op` are ready to leave this device's host
  // memory on the fabric path: the PCIe and memory DMA reserved from `t`,
  // plus the op's execution cost. The wire terms come from the fabric's
  // pipes instead.
  sim::Nanos DmaReady(sim::Nanos t, Opcode op, std::uint64_t len);
  // Propagation latency between two fabric-connected QPs' endpoints.
  static sim::Nanos FabricOneWay(const QueuePair* from, const QueuePair* to);

  void SnapshotRange(WorkQueue& wq, std::uint64_t upto);

  sim::Simulator& sim_;
  NicConfig cfg_;
  Calibration cal_;
  std::string name_;
  ProtectionDomain pd_;
  struct FabricAttach {
    sim::Fabric* fabric = nullptr;
    int endpoint = -1;
  };
  std::vector<PortResources> ports_;
  std::vector<FabricAttach> fabric_ports_;  // one per port; unattached = null
  sim::BandwidthResource pcie_;
  sim::BandwidthResource membw_;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::vector<int> next_pu_per_port_;
  sim::Rng jitter_rng_{0x7e57ab1e};
  DeviceCounters counters_;
  PayloadPool payloads_;
  RecyclePool<ResumeBatch> resume_batches_;
  // Send-queue ring extents watched for self-modifying stores (the
  // translation cache's invalidation filter).
  WriteWatchSet ring_watches_;
};

// Connects two QPs as an RC pair with the given one-way wire latency.
// Pass one_way = 0 and the same device for a loopback connection (the
// pattern RedN uses for server-local self-modifying chains).
void Connect(QueuePair* a, QueuePair* b, sim::Nanos one_way);

// Connects a QP to itself — the tightest loopback; SENDs would consume the
// QP's own RECVs.
void ConnectSelf(QueuePair* qp);

// Connects two QPs as an RC pair routed through a shared fabric. Both QPs'
// ports must already be attached (AttachPort) to the *same* fabric; wire
// latency and serialization then come from the contended links instead of a
// per-QP constant, so N clients genuinely share the server's port.
void ConnectOverFabric(QueuePair* a, QueuePair* b);

// ConnectOverFabric plus the packetized go-back-N transport: opens one
// transport flow per direction, so WRITE/SEND/READ payloads between these
// QPs segment into MTU packets, experience the transport's configured
// loss/corruption, and recover via retransmission. `t` must be built over
// the same fabric the QPs' ports are attached to. NOOPs and atomics keep
// the constant-latency control path (see docs/NET.md).
void ConnectOverTransport(QueuePair* a, QueuePair* b, sim::Transport& t);

}  // namespace redn::rnic
