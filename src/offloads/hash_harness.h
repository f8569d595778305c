// End-to-end wiring for offloaded hash gets: server table + chains, client
// trigger/response plumbing. Used by tests, benches, and examples.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "offloads/hash_lookup.h"
#include "verbs/verbs.h"

namespace redn::offloads {

class HashGetHarness {
 public:
  struct Result {
    bool found = false;
    sim::Nanos latency = 0;
    std::uint32_t len = 0;
  };

  HashGetHarness(rnic::RnicDevice& client_dev, rnic::RnicDevice& server_dev,
                 HashGetOffload::Config cfg,
                 kv::RdmaHashTable::Config table_cfg = {},
                 std::size_t heap_bytes = 256 << 20,
                 std::size_t max_value = 64 << 10);

  // Shared-store variant: the table and heap are owned elsewhere (a shard
  // shared by several harnesses — the multi-tenant KV service). They must
  // live on `server_dev` and outlive the harness.
  HashGetHarness(rnic::RnicDevice& client_dev, rnic::RnicDevice& server_dev,
                 HashGetOffload::Config cfg, kv::RdmaHashTable& shared_table,
                 kv::ValueHeap& shared_heap, std::size_t max_value = 64 << 10);

  // Stores a value under `key`; `force_second` plants it in the H2 bucket
  // (the Fig 11 collision setup).
  void Put(std::uint64_t key, const void* value, std::uint32_t len,
           bool force_second = false);
  // Convenience: value = `len` bytes of a repeating pattern derived from key.
  void PutPattern(std::uint64_t key, std::uint32_t len,
                  bool force_second = false);

  // Requests a closed-loop driver's get harness keeps armed ahead of the
  // NIC: its max_requests, and the window ArmAhead refills.
  static constexpr int kClosedLoopWindow = 128;

  // Pre-posts chains for `n` more requests now, for the rest of the run:
  // the rings must hold them all (cfg.max_requests), or this throws.
  void Arm(int n);
  // Serves `n` more requests from a window of cfg.max_requests armed at
  // once, refilled from the server's own domain as triggers arrive
  // (HashGetOffload::ArmAhead). For closed-loop drivers: a client must
  // keep fewer than max_requests / 2 triggers in flight.
  void ArmAhead(int n);

  // Transport-connected recovery (the kill-and-reconnect path), in two
  // halves so each runs on the event domain that owns its NIC (a reset
  // fences that QP's transport flow, so the cycle must run on the flow's
  // sender domain). The client half cycles the client QPs through
  // reset->init->rtr->rts and drops the RECV accounting. The server half
  // cycles the server QPs, retires the current offload program in place (a
  // QP error flushed its pre-posted responses and trigger RECVs, so its
  // surviving chains can never run usefully again; it drops what it still
  // owed), and serves `n` further requests from a fresh program through
  // ArmAhead, whose trigger thresholds continue from the CQ count the
  // server has already consumed. When `n` fits the rings that is exactly
  // Arm(n). A full re-arm is the client half, then the server half.
  void RearmTransportClientHalf();
  void RearmTransportServerHalf(int n);

  // Issues one offloaded get and runs the simulator until the response
  // lands (or `timeout` of simulated time passes -> miss).
  Result Get(std::uint64_t key, sim::Nanos timeout = sim::Micros(200));

  // Fire-and-forget trigger for open-loop throughput runs; responses are
  // counted by the caller via response_count(). Returns false when the
  // connection is dead (server QPs reclaimed, or the client QP flushed).
  bool SendTrigger(std::uint64_t key);
  std::uint64_t response_count() const { return responses_; }

  kv::RdmaHashTable& table() { return *table_; }
  kv::ValueHeap& heap() { return *heap_; }
  HashGetOffload& offload() { return *offload_; }
  std::uint64_t resp_buffer_addr() const { return resp_mr_.addr; }
  // Client-side CQ where responses land (for open-loop notify hooks).
  rnic::CompletionQueue* client_recv_cq() { return cli_recv_cq_; }
  // The (first) client- and server-side QPs: the failover chain WAITs on
  // the client QP's send CQ, fault injection stalls the server QP's RQ.
  rnic::QueuePair* client_qp() { return cli_qp1_; }
  rnic::QueuePair* server_qp() { return srv_qp1_; }
  // The second server-side QP (parallel probing only, else null).
  rnic::QueuePair* server_qp2() { return srv_qp2_; }
  rnic::RnicDevice& client_dev() { return cdev_; }
  std::uint64_t trigger_count() const { return triggers_; }

  // Like SendTrigger, but consults only client-side state. SendTrigger's
  // peer-liveness check is host omniscience a real client doesn't have: a
  // send to a crashed server must go out and come back as the dead-peer
  // error CQE — the failure signal the detour chain WAITs on (RunKvService).
  bool SendTriggerBlind(std::uint64_t key);
  // Pre-posts `n` response RECVs on the client QP(s) without sending a
  // trigger — for responses released by a detour chain rather than
  // SendTrigger (which replenishes RECVs itself).
  void PrepostResponseRecvs(int n);
  // Server-side resource ownership (§5.6 failure experiments).
  void SetServerOwner(int pid) {
    offload_->SetOwner(pid);
    srv_qp1_->owner_pid = pid;
    if (srv_qp2_ != nullptr) srv_qp2_->owner_pid = pid;
  }
  // Count a response consumed by an open-loop driver (keeps the client-side
  // RECV accounting honest when Get() is not used).
  void NoteOpenLoopResponse(std::uint32_t qp_id) {
    if (qp_id == cli_qp1_->id) --recvs_outstanding_1_; else --recvs_outstanding_2_;
    ++responses_;
  }

  // Checks the last response payload against the PutPattern for `key`.
  bool ResponseMatchesPattern(std::uint64_t key, std::uint32_t len) const;

  // --- Versioned write path (chain-replicated KV service) ---
  // Seeds `key` with a kv::WriteVersionedValue layout at `version`
  // (u64 tag + deterministic payload; len >= kv::kValueVersionBytes).
  void PutVersioned(std::uint64_t key, std::uint32_t len,
                    std::uint64_t version = 0);
  // Version tag of the last response (first 8 bytes of the response buf).
  std::uint64_t ResponseVersion() const;
  // Checks the last response against the versioned layout for (key, its
  // own embedded tag) — the RYW check then compares the tag separately.
  bool ResponseMatchesVersionedPattern(std::uint64_t key,
                                       std::uint32_t len) const;

 private:
  void Init(std::size_t max_value);
  void EnsureRecvs();

  rnic::RnicDevice& cdev_;
  rnic::RnicDevice& sdev_;
  // Owned for the classic per-harness store; null when sharing a shard's
  // table/heap (table_/heap_ then point at the caller's).
  std::unique_ptr<kv::RdmaHashTable> owned_table_;
  std::unique_ptr<kv::ValueHeap> owned_heap_;
  kv::RdmaHashTable* table_ = nullptr;
  kv::ValueHeap* heap_ = nullptr;
  HashGetOffload::Config cfg_;

  rnic::QueuePair* srv_qp1_ = nullptr;
  rnic::QueuePair* srv_qp2_ = nullptr;
  rnic::QueuePair* cli_qp1_ = nullptr;
  rnic::QueuePair* cli_qp2_ = nullptr;
  rnic::CompletionQueue* cli_recv_cq_ = nullptr;  // shared by both client QPs

  std::unique_ptr<std::byte[]> resp_buf_;
  rnic::MemoryRegion resp_mr_;
  std::unique_ptr<std::byte[]> msg_buf_;
  rnic::MemoryRegion msg_mr_;

  std::unique_ptr<HashGetOffload> offload_;
  // Offloads abandoned by RearmTransportServerHalf. Kept alive: their control queues
  // still reference WQEs and SGE tables they own, and a stale trigger-CQ
  // waiter may fire them once more (harmlessly — every enable they issue
  // lands below the reset queues' execution horizon) before going quiet.
  // A stale refill wake-up finds nothing owed (Retire) and posts nothing.
  std::vector<std::unique_ptr<HashGetOffload>> retired_;
  int recvs_outstanding_1_ = 0;
  int recvs_outstanding_2_ = 0;
  std::uint64_t responses_ = 0;
  std::uint64_t triggers_ = 0;
};

}  // namespace redn::offloads
