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

// ibv_qp_state analogue, reduced to the states anything observes. QPs are
// born RTS (Connect* does the whole handshake). A transport retry budget
// dying moves the QP to kError (the in-flight WR completes with
// RETRY_EXC/RNR_RETRY_EXC, queued WRs flush), and so does
// RnicDevice::Kill. RnicDevice::Rearm brings it back to kRts.
enum class QpState : std::uint8_t { kRts, kError };

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
  // Bumped on every Rearm. Transport on_failed callbacks capture the value
  // at message-send time: a mismatch means a re-arm happened while the
  // message was in flight, so the failure must flush silently instead of
  // erroring the freshly re-armed QP (RnicDevice::Stale). A flow whose
  // halves share a domain flushes synchronously inside the reset; a
  // cross-shard flow flushes at the fence echo, after the re-arm.
  std::uint64_t reset_gen = 0;

  // WQ rate limiter (ibv_modify_qp_rate_limit analogue): minimum gap
  // between issued WQEs. 0 = unlimited.
  sim::Nanos rate_gap = 0;
  sim::Nanos next_rate_slot = 0;

  std::unique_ptr<std::byte[]> sq_buf;
  std::unique_ptr<std::byte[]> rq_buf;
  MemoryRegion sq_mr;  // the registered "code region" (self-modification)
  MemoryRegion rq_mr;

  // Whether the QP can take a new WR: its process is alive, it is in RTS,
  // and its send queue has not latched an error.
  bool Usable() const { return alive && state == QpState::kRts && !sq.error; }
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
  // Decoded-WQE cache, counted per fetch: the slot still held the image
  // last decoded there, which is kept (hit), or it was written since — by a
  // post, a verb or a host patch — and is reloaded (miss).
  std::uint64_t wqe_cache_hits = 0;
  std::uint64_t wqe_cache_misses = 0;

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

// Recycled shuttle for data in flight between engine events: the carried
// bytes (or, for a deferred copy, their pinned source extents), the WQE
// image that produced them, and small per-op scratch. Events capture a
// single Payload* instead of a WqeImage + shared_ptr<vector>, which keeps
// closures inside the simulator's inline event storage and makes
// steady-state data verbs allocation-free (buffer capacity is retained
// across reuse). CQEs do NOT ride here: a Cqe is 32 bytes and is captured
// directly inside its delivery event.
struct Payload {
  CarriedBytes data;
  WqeImage img{};
  std::uint64_t scratch = 0;  // atomics: old value returned to the requester
  bool rmw_done = false;      // atomics: the RMW actually executed remotely
  // WRITE/SEND: the responder's acceptance status, carried from arrival to
  // the ACK-time completion on the requester.
  WcStatus st = WcStatus::kSuccess;
  Payload* next_free = nullptr;

  // Unpins a copy still deferred (a flush, NAK or failure released it
  // undelivered) and keeps the buffer's capacity for the next op.
  void Recycle() { data.Clear(); }
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
  // Throws std::invalid_argument for a missing CQ, a port out of range or
  // a ring depth (sq_depth, rq_depth) of 0.
  QueuePair* CreateQp(const QpConfig& cfg);
  CompletionQueue* GetCq(std::uint32_t id);
  QueuePair* GetQp(std::uint32_t id);

  // --- Driver-side operations (the "verbs" layer calls these) --------------
  // Rings the doorbell on a non-managed SQ: the NIC fetches and snapshots
  // everything posted so far, then starts executing. Managed SQs ignore
  // doorbells; they advance only via ENABLE. On a live QP in kError the
  // posted WRs flush instead (FlushQueued), managed or not.
  void RingDoorbell(QueuePair* qp);
  // Notifies the NIC that RECVs were appended (no doorbell latency; RQ WQEs
  // are read at message arrival). On a live QP in kError they flush.
  void NotifyRecvPosted(QueuePair* qp);
  int PollCq(CompletionQueue* cq, int max, Cqe* out);
  // Host-side ENABLE fallback: lets tests drive managed queues directly.
  void HostEnable(QueuePair* qp, std::uint64_t limit);
  // ibv_modify_qp_rate_limit analogue: reconfigures the WQ pacing gap
  // (0 = unlimited). Forgets the schedule built under the previous rate, so
  // the first WQE after a reconfigure paces from now rather than waiting
  // out a slot computed from the old gap.
  void SetRateLimit(QueuePair* qp, double ops_per_sec);
  // ibv_modify_qp RESET -> INIT -> RTR -> RTS in one step: drops the WQ
  // backlog, clears the send queue's error latch and the receiver-stall
  // injector, resets the QP's outbound transport flow to a fresh PSN space
  // (in-flight work there is discarded silently), and leaves the QP in
  // RTS. Recovering from kError bumps counters().qp_rearms. A killed QP
  // stays dead (not Usable): ReviveProcessResources brings it back in
  // ERROR, and only a Rearm after that makes it Usable.
  void Rearm(QueuePair* qp);
  // ibv_modify_qp -> ERR: latches the send queue and flushes every queued
  // SQ WQE and unconsumed RECV (FlushQueued). A transport budget death
  // takes the same path.
  void TransitionToError(QueuePair* qp);
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
  // compat path. Throws std::invalid_argument for a port out of range or
  // one already attached.
  void AttachPort(int port, sim::Fabric& fabric, const sim::LinkSpec& spec);
  sim::Fabric* fabric(int port) const { return fabric_ports_[port].fabric; }
  int fabric_endpoint(int port) const { return fabric_ports_[port].endpoint; }

  // --- Failure injection ----------------------------------------------------
  // The one way a QP dies: marks it dead, in kError with its send queue
  // latched. In-flight and future work on it stops, mid-chain, without
  // flushing (the process that would poll the CQEs is gone), and a peer
  // learns of the death from the NAKs its requests draw.
  void Kill(QueuePair* qp);
  // Kills every live QP owned by `pid` (the OS reclaiming a dead process's
  // memory).
  void KillProcessResources(int pid);
  // Re-join: the killed process (or a spare replacement adopting its pid
  // and resources) comes back. Every QP the kill marked dead becomes alive
  // again in ERROR with its send queue latched, even if it was re-armed
  // while dead, so it is not Usable until the owner Rearms it, like any
  // other errored QP.
  void ReviveProcessResources(int pid);
  bool HasLiveQps() const;

  // --- Utilisation introspection (bottleneck reporting for Table 4) --------
  double PuUtilisation(int port, sim::Nanos window) const;
  double FetchUnitUtilisation(int port, sim::Nanos window) const;
  double LinkUtilisation(int port, sim::Nanos window) const;
  double PcieUtilisation(sim::Nanos window) const;
  const char* BusiestResource(sim::Nanos window) const;

 private:
  friend struct QueuePair;
  // Throws std::invalid_argument, naming `who`, unless `port` is one of
  // this device's.
  void CheckPort(const char* who, int port) const;
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
  // Takes ownership of `pl` (image already staged by Issue); every path
  // releases it back to the pool when the op retires.
  void ExecuteData(WorkQueue& wq, Payload* pl, sim::Nanos t_issue);
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
  // Snapshots slot `idx`: one memcmp against the slot's last decoded image
  // decides between keeping it (a hit) and reloading it (a miss). Charges
  // no simulated time itself — callers pay the fetch latency.
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
  // Counts and delivers one error CQE at NIC-internal instant
  // t + cq_internal. Errors are always signaled; only a WRITE/SEND's
  // remote NAK completes elsewhere (AckSend, with its byte count).
  void ErrorCqe(CompletionQueue* cq, const QueuePair* qp, std::uint64_t wr_id,
                Opcode op, WcStatus status, sim::Nanos t);
  // Fails one WR and latches its send queue: later WRs of the QP never
  // issue, but nothing is flushed and the QP stays in RTS.
  void FailWr(WorkQueue& wq, const WqeImage& img, sim::Nanos t, WcStatus status);
  // Transport retry-budget death: delivers the in-flight WR's error CQE
  // and moves the QP to ERROR, flushing everything queued behind it.
  void FailQpOverTransport(QueuePair* qp, const WqeImage& img, sim::Nanos t,
                           WcStatus status);
  // Completes every queued SQ WQE and unconsumed RECV of a QP in kError
  // with WR_FLUSH_ERR, one same-instant event later so the failure CQEs
  // due at this instant come first. A Rearm in between cancels it.
  void FlushQueued(QueuePair* qp);
  // Whether a transport outcome captured under `reset_gen` must be
  // swallowed: the QP died, or a Rearm ran (or is running) since the
  // message went out, so the failure may not error the re-armed QP.
  static bool Stale(const QueuePair* qp, std::uint64_t reset_gen) {
    return !qp->alive || qp->reset_gen != reset_gen;
  }
  static WcStatus StatusOf(sim::MsgFailure why);

  // Responder side, executed at arrival time on the responder device (this
  // one). Every check reads only responder state, so the same code serves
  // the compat path and the fabric/transport path at any shard count.
  //
  // A WRITE, WRITE_IMM, SEND, SEND_IMM or READ whose two ends share an
  // event domain carries its checked source extents, pinned, and copies
  // once, at delivery (CarriedBytes); one between domains copies at issue,
  // since the source belongs to another thread. docs/NET.md "When a
  // payload's bytes are read".
  WcStatus AcceptWrite(QueuePair* dst_qp, std::uint64_t addr,
                       std::uint32_t rkey, const CarriedBytes& data);
  // `data` is null for a WRITE_IMM's completion, which scatters nothing.
  WcStatus AcceptSend(QueuePair* dst_qp, const CarriedBytes* data,
                      std::uint32_t imm, bool has_imm,
                      std::size_t reported_len);
  // WRITE / WRITE_IMM / SEND / SEND_IMM carried by `pl`: delivers its bytes
  // and unpins them.
  WcStatus AcceptPayload(QueuePair* dst_qp, Payload& pl);
  // READ: checks the target and captures its `len` bytes in `out` — their
  // extent, pinned, when `defer` (the requester shares this domain).
  WcStatus AcceptRead(QueuePair* dst_qp, const WqeImage& img,
                      std::uint64_t len, bool defer, CarriedBytes& out);
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
  void LandRead(WorkQueue& wq, const WqeImage& img, CarriedBytes& data,
                sim::Nanos t_done);
  void FinishAtomic(WorkQueue& wq, Payload* pl);
  void NakWr(WorkQueue& wq, Payload* pl, WcStatus st);

  // Gather/scatter helpers with protection checks against this device's
  // PD. All SGE resolution goes through caller-provided (stack) scratch —
  // no per-op allocation. GatherLocal checks every SGE at issue, then
  // copies the bytes into `out` — or, when `defer`, pins their extents for
  // the delivery to copy from. ScatterList passes the PD's store hook
  // before each store.
  bool GatherLocal(const WqeImage& img, bool defer, CarriedBytes& out,
                   WcStatus* err);
  bool ScatterList(const WqeImage& img, const CarriedBytes& data,
                   WcStatus* err);
  // Whether `peer`'s device runs on this device's event domain, so a copy
  // between them may be deferred to delivery.
  bool SameDomain(const QueuePair* peer) const {
    return &peer->device->sim_ == &sim_;
  }
  // The one reader of a WQE's SGE list. A table (WQE length = its entry
  // count, lkey = its region) must be registered here for local read and
  // hold at most kMaxSges entries; else false, with *err the
  // LOCAL_ACCESS_ERROR its WR fails with.
  bool ResolveSges(const WqeImage& img, SgeScratch& out, WcStatus* err) const;
  // Remote byte count of a READ: with a scatter table the byte count is
  // the sum of the entries (0 for a table ResolveSges rejects).
  std::uint64_t ReadLength(const WqeImage& img) const;

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
// loss, and recover via retransmission. `t` must be built over
// the same fabric the QPs' ports are attached to. NOOPs and atomics keep
// the constant-latency control path (see docs/NET.md).
void ConnectOverTransport(QueuePair* a, QueuePair* b, sim::Transport& t);

}  // namespace redn::rnic
