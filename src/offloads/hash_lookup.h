// Offloaded key-value GET (paper §5.2, Fig 9).
//
// Per request instance the server pre-posts:
//
//   client QP RQ : RECV whose scatter list injects the client's inputs into
//                  the chain: packed key -> CAS.compare, bucket addr ->
//                  READ.remote_addr (per probed bucket).
//   M (managed)  : READ  — fetches the bucket; its scatter list drops
//                          bucket.key into the response WQE's ctrl word
//                          (id = key, opcode reset to NOOP), bucket.ptr into
//                          local_addr, bucket.len into length.
//                  CAS   — compares the response ctrl {NOOP, key} against
//                          {NOOP, x}; on match swaps in {WRITE_IMM, 0}.
//   client QP SQ : R4    — the response itself: fires as a WRITE_IMM of the
//   (managed)              value to the client on a hit, or execs as a
//                          harmless unsignaled NOOP on a miss.
//   control      : WAIT/ENABLE glue serializing RECV -> READ -> CAS -> R4
//                  (doorbell ordering for every self-modified WQE).
//
// Variants: 1 bucket (no-collision experiments), 2 buckets sequential
// (RedN-Seq), 2 buckets parallel across two managed queues, two control
// queues and two client-facing QPs (RedN-Parallel) — §5.2.2 / Fig 11.
#pragma once

#include <cstdint>

#include "kv/table.h"
#include "redn/program.h"

namespace redn::sim {
class Transport;
}  // namespace redn::sim

namespace redn::offloads {

using core::Program;
using core::WrRef;
using rnic::QueuePair;

class HashGetOffload {
 public:
  struct Config {
    // Number of buckets probed per get (1 or 2).
    int buckets = 2;
    // Probe the two buckets on parallel queues/PUs instead of sequentially.
    bool parallel = false;
    // Requests armed ahead of the NIC at once; sizes every ring the offload
    // and its harness allocate (see Depths). Arm() posts into these rings
    // for the offload's lifetime, so there it bounds the requests ever
    // armed; ArmAhead() refills them, so there it is the window.
    int max_requests = 4096;
    // Server NIC port carrying this offload's queues (Table 4 dual-port).
    int port = 0;
    // When set, the client<->server QPs connect through this shared fabric
    // (both devices' ports must already be attached) instead of a private
    // constant-latency wire — the N-clients-one-server scale-out topology.
    sim::Fabric* fabric = nullptr;
    // When additionally set (requires `fabric`), the QPs connect through
    // the packetized go-back-N transport: payloads segment into MTU
    // packets, links drop/corrupt them per the transport's config, and
    // retransmission recovers — the lossy-wire scenario.
    sim::Transport* transport = nullptr;
    // Starting request sequence number. Chain r waits for the trigger CQ's
    // hw count to reach first_seq + r, so a replacement offload built after
    // a QP error must seed this with the CQ count already consumed by its
    // predecessor (HashGetHarness::RearmTransportServerHalf does).
    std::uint64_t first_seq = 0;
    // Make the CLIENT-side send queues of a HashGetHarness built with this
    // config managed (doorbell-ignoring): trigger SENDs posted to them park
    // until an ENABLE raises the execution limit. The failover detour
    // (offloads::ClientFailoverChain) needs this to hold a pre-built get
    // against the backup shard that only its WAIT chain can release.
    bool managed_client_sq = false;
  };

  // WRs ArmBucketChain posts per probed bucket, by ring, and the RECVs Arm
  // posts per request. Every ring an offload (and its HashGetHarness)
  // allocates is sized from these, so they must track the code that posts.
  static constexpr std::uint32_t kControlWrsPerProbe = 6;   // 3 WAIT + 3 ENABLE
  static constexpr std::uint32_t kChainWrsPerProbe = 2;     // READ + CAS
  static constexpr std::uint32_t kResponseWrsPerProbe = 1;  // R4
  static constexpr std::uint32_t kRecvsPerRequest = 1;      // trigger RECV
  // Headroom each ring keeps past the WRs Arm(max_requests) posts into it.
  static constexpr std::uint32_t kRingSlack = 64;

  // The smallest window ArmAhead accepts: a refill fires with W/2 - 1
  // requests still armed, and at least one must be, or the next trigger
  // could beat the refill to the RQ.
  static constexpr int kMinWindow = 4;

  // Ring depths of one probe lane: lane 0 is prog_/m1_ answering on
  // client_qp, lane 1 is prog2_/m2_ answering on client_qp2 (parallel
  // only). A lane no probe rides keeps a kRingSlack-slot ring: its QPs are
  // still created so QP ids and PU assignment do not depend on the config.
  // Throws std::invalid_argument unless buckets is 1 or 2 and max_requests
  // is at least 1: every ring is sized here, so a bad config fails before
  // any ring exists, in every build type.
  struct RingDepths {
    std::uint32_t control;   // the lane program's control SQ
    std::uint32_t chain;     // its managed chain SQ (READ + CAS)
    std::uint32_t response;  // the server QP's managed SQ (R4 responses)
    std::uint32_t recv;      // the server QP's RQ (trigger RECVs)
  };
  static RingDepths Depths(const Config& cfg, int lane);

  // `client_qp` (and `client_qp2` iff parallel) are server-side QPs already
  // connected to the client; their send queues MUST be managed.
  HashGetOffload(rnic::RnicDevice& server, kv::RdmaHashTable& table,
                 kv::ValueHeap& heap, QueuePair* client_qp,
                 QueuePair* client_qp2, Config cfg);

  // Pre-posts chains for `n` further get requests. The response for request
  // r is written to (resp_addr, resp_rkey) on the client and announced with
  // immediate = the request's sequence number. Throws (SQ/RQ overflow) when
  // the rings cannot hold them.
  void Arm(int n, std::uint64_t resp_addr, std::uint32_t resp_rkey);

  // Serves `n` further requests from rings sized for W = max_requests
  // armed at once. Posts what fits now, W minus the armed requests no
  // trigger has reached, and owes the rest. While requests are owed, the
  // lane-0 trigger WAIT of the request W/2 - 1 short of the armed end is
  // signaled; its CQE wakes a host hook on the server's domain that reaps
  // this offload's CQs and posts the next W/2 + 1 owed requests. The hook
  // throws std::runtime_error ("window too small") if triggers have
  // consumed every armed request while some are still owed: an open-loop
  // burst past the window fails loudly instead of stalling on RNR. Throws
  // std::invalid_argument for a window below kMinWindow.
  void ArmAhead(int n, std::uint64_t resp_addr, std::uint32_t resp_rkey);
  // Drops every owed request, so a retired program never posts again.
  void Retire() { owed_ = 0; }
  std::uint64_t owed() const { return owed_; }
  // Host wake-ups that posted owed requests.
  std::uint64_t refills() const { return refills_; }

  // Size of the trigger message a client must SEND (bytes).
  std::uint32_t TriggerBytes() const { return cfg_.buckets * 16u; }

  // Fills `out` (TriggerBytes() long) with the trigger for `key`:
  // per probed bucket: [PackCtrl(NOOP, key), bucket_addr].
  void BuildTrigger(std::uint64_t key, std::byte* out) const;

  std::uint64_t armed() const { return armed_; }

  // Lane `lane`'s control and chain queues (see Depths; chain(1) is null
  // unless parallel).
  QueuePair* control(int lane) {
    return lane == 0 ? prog_.control() : prog2_.control();
  }
  QueuePair* chain(int lane) { return lane == 0 ? m1_ : m2_; }

  // Tags the offload's chain/control queues with an owner pid (§5.6).
  void SetOwner(int pid) {
    prog_.SetOwner(pid);
    prog2_.SetOwner(pid);
  }

 private:
  // Posts one bucket probe (kResponseWrsPerProbe + kChainWrsPerProbe +
  // kControlWrsPerProbe WRs) and writes its two trigger injection points to
  // recv_sges[0..1]. `signal_trigger` signals the probe's trigger WAIT.
  void ArmBucketChain(Program& prog, QueuePair* chain, QueuePair* resp_qp,
                      rnic::CompletionQueue* trigger_cq,
                      std::uint64_t recv_seq, std::uint64_t resp_addr,
                      std::uint32_t resp_rkey, std::uint32_t imm,
                      rnic::Sge* recv_sges, bool signal_trigger);
  // Arm, with request `signaled_seq`'s lane-0 trigger WAIT signaled (0:
  // none).
  void Post(std::uint64_t n, std::uint64_t resp_addr, std::uint32_t resp_rkey,
            std::uint64_t signaled_seq);
  // Posts up to `limit` owed requests; signals a refill if some stay owed.
  void PostOwed(std::uint64_t limit);
  // The refill hook on the lane-0 control CQ (see ArmAhead).
  void Refill();

  rnic::RnicDevice& server_;
  kv::RdmaHashTable& table_;
  kv::ValueHeap& heap_;
  QueuePair* client_qp_;
  QueuePair* client_qp2_;
  Config cfg_;

  Program prog_;        // control queue #1 + chain queue M1
  Program prog2_;       // control queue #2 + chain queue M2 (parallel only)
  QueuePair* m1_;
  QueuePair* m2_ = nullptr;
  std::uint64_t armed_ = 0;
  // ArmAhead state: requests owed, whether a signaled WAIT will refill
  // them, and the response target they are armed with.
  std::uint64_t owed_ = 0;
  bool refill_pending_ = false;
  std::uint64_t refills_ = 0;
  std::uint64_t resp_addr_ = 0;
  std::uint32_t resp_rkey_ = 0;
};

}  // namespace redn::offloads
