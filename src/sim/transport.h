// Packetized reliable-connection transport over the shared fabric.
//
// sim::Fabric moves whole messages, in order, losslessly: a transfer is one
// pair of pipe reservations and one delivery instant. That is exact for a
// healthy RC connection but cannot express the paper's resilience story
// (fig16) on the wire — nothing is ever dropped, reordered relative to a
// retransmission, or late because of one.
//
// Transport adds the missing layer, modeled on an InfiniBand RC engine:
//
//  - MTU segmentation: a message of L bytes becomes ceil(L/kMtu) packets
//    of at most kMtu = 4096 payload bytes (min 1 — a header-only message
//    still crosses the wire), each carrying `kHeaderBytes` of overhead.
//    Every packet pays its own TX and RX pipe reservations, so packetized
//    flows contend on the fabric exactly where whole-message flows do,
//    plus header tax.
//  - Per-flow PSN sequencing: a flow is one direction of one QP connection.
//    Packets carry consecutive PSNs; delivery to the caller is always in
//    order and duplicates are filtered by design.
//  - Loss injection: each endpoint link has its own loss probability (the
//    config's by default; SetLinkFaults overrides it per link). A packet
//    eaten at the sender's egress reserves TX bandwidth only; one dropped
//    on ingress has burned both pipes.
//  - Loss recovery, two modes (TransportConfig::mode):
//      * go-back-N (default): the receiver buffers nothing and NAKs the
//        first out-of-order packet of a gap; the sender rewinds to the
//        lowest unacked PSN once per loss event.
//      * selective repeat: the receiver holds out-of-order packets in a
//        reassembly window and every NAK/ACK carries SACK ranges naming the
//        missing PSNs; the sender retransmits exactly those (once per SACK
//        event), so one lost packet costs one retransmission.
//    In both modes a retransmission timeout clocked off the simulator
//    covers tail losses and eaten ACKs; each flow keeps at most one
//    pending RTO event, which re-arms itself to the latest deadline when
//    progress pushed the deadline past it. Consecutive timeouts on the same
//    base PSN double the interval (bounded exponential backoff, the
//    D2TCP-instability lesson); cumulative progress resets the exponent.
//  - Retry budgets: `retry_count` bounds consecutive timeouts on one base
//    PSN and `rnr_retry_count` bounds consecutive RNR NAKs; exhausting
//    either fails the flow — every unacked message fires `on_failed`
//    (first with the exhaustion reason, the rest flushed), later sends
//    fail immediately, and only ResetFlow() revives the flow. 0 keeps the
//    legacy retry-forever behaviour.
//  - RNR NAK + backoff: a message whose `rnr_probe` reports the receiver
//    not-ready (no RECV posted) is not delivered — the receiver rewinds to
//    the message's first PSN and answers an RNR NAK; the requester backs
//    off 4096ns × 2^min_rnr_timer, doubling per consecutive NAK, then
//    retransmits. A late-posted RECV lets the retry complete normally.
//  - Send window: a flow keeps at most kWindow = 64 packets in flight
//    beyond its lowest unacked PSN.
//  - ACK coalescing: cumulative ACKs are sent on message boundaries, every
//    kAckEvery = 4 in-order packets, and after at most `kAckDelay` (the
//    delayed-ACK backstop that keeps a window-limited sender alive). ACKs
//    ride the reverse-direction pipes and are themselves subject to loss.
//    The packet size, window and coalescing count are fixed, like the RC
//    engine of the ConnectX-5 NICs the paper measures.
//
// Callers observe two instants per message: `on_deliver` fires when the
// last byte lands in order at the receiver, `on_acked` when the sender's
// cumulative ACK covers the message. The RNIC maps WRITE/SEND requester
// completions to on_acked and READ/receiver semantics to on_deliver — see
// RnicDevice::SendOverTransport / ReadOverTransport and docs/NET.md.
//
// --- One protocol, two halves ---------------------------------------------
//
// A flow's state machine is split into a SenderHalf (window/base, SACK
// retransmit bookkeeping, RTO + retry budgets, RNR backoff) and a
// ReceiverHalf (reassembly, duplicate discard, SACK/NAK generation,
// delayed-ACK timers). Each half lives on its endpoint's EventDomain — the
// domain its device attached the fabric port with — and draws its losses
// from its own seeded stream (keyed off cfg.seed and the
// flow id). A flow's draw order therefore depends only on its own packets:
// not on unrelated traffic, and not on the shard count.
//
// DATA, ACK/NAK, and reset-fence legs reach the far half through one
// crossing (Cross). When both halves share a domain, the far half's ingress
// runs inline at send time with the arrival instant as a parameter, so a
// packet still costs one event. Otherwise the leg posts a timestamped
// mailbox message due at that instant, on the sharded engine's
// (time, src_shard, seq) path (EventDomain::SendTo). The fabric guarantees
// OneWay(src,dst) ≥ the coordinator's lookahead for any cross-shard
// endpoint pair (the pair itself registered a lookahead floor at attach),
// which is exactly what makes every cross-domain SendTo legal.
//
// Ownership discipline (Debug builds assert it, mirroring EventDomain's
// tls check): sender-half state, the src endpoint's fabric pipes, and the
// src link's loss/delay entries are touched only on the sender's domain;
// likewise for the receiver half and dst. SendMessage/ResetFlow/
// FlowErrored are sender-half calls; SetLinkFaults/SetLinkDelay belong to
// the endpoint's owning shard. FailFlow/ResetFlow flush through a reset
// fence: the sender bumps its incarnation, parks unacked messages in a
// limbo queue, and fences the receiver half, which restarts and echoes
// back; only the echo fires their on_failed — guaranteeing no
// receiver-side delivery of the old incarnation can still be in flight
// when the caller reclaims message resources. Co-located halves run the
// fence and its echo inline, so their flush is synchronous; a cross-domain
// echo returns ≈ one RTT later.
//
// The transport is pure protocol + timing: like the fabric it moves no
// payload bytes (the device's pooled Payload carries them) and it knows
// nothing about verbs.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/fabric.h"
#include "sim/psn_set.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace redn::sim {

enum class TransportMode : std::uint8_t {
  kGoBackN,          // receiver buffers nothing; a gap rewinds the window
  kSelectiveRepeat,  // out-of-order reassembly + SACK-range retransmission
};

struct TransportConfig {
  // Base retransmission timeout; doubles per consecutive timeout on the
  // same PSN. The IB ibv_qp_attr::timeout encoding t is rto = 4096ns << t.
  Nanos rto = 50'000;
  double loss = 0.0;                // default per-link packet-loss probability
  std::uint64_t seed = 0x7a115eedULL;

  // --- RoCEv2-style reliability engine --------------------------------------
  TransportMode mode = TransportMode::kGoBackN;
  // Consecutive-RTO budget on one base PSN before the flow fails with
  // kRetryExceeded. 0 = unlimited (the legacy retry-forever default).
  std::uint32_t retry_count = 0;
  // Consecutive-RNR budget before kRnrRetryExceeded. 0 disables the RNR
  // NAK path entirely: rnr_probe is never consulted and SENDs racing an
  // empty RQ keep the legacy accept-as-dropped semantics.
  std::uint32_t rnr_retry_count = 0;
  // RNR backoff base: the requester waits 4096ns × 2^min_rnr_timer after an
  // RNR NAK, doubling per consecutive NAK on the same message.
  std::uint32_t min_rnr_timer = 5;
};

struct TransportCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_acked = 0;
  std::uint64_t messages_failed = 0;  // on_failed deliveries (incl. flushes)
  std::uint64_t payload_bytes_delivered = 0;  // goodput numerator
  std::uint64_t wire_bytes_sent = 0;  // headers + retransmits + acks included
  std::uint64_t data_packets = 0;     // first transmissions
  std::uint64_t retransmits = 0;      // resends of any kind
  std::uint64_t sack_retransmits = 0; // resends targeted by SACK ranges
  std::uint64_t timeouts = 0;         // RTO firings that resent something
  std::uint64_t rto_fires = 0;        // every RTO firing with unacked data
  std::uint64_t spurious_retransmits = 0;  // arrived but receiver had it
  std::uint64_t nak_gobacks = 0;      // NAK-triggered go-back-N rewinds
  std::uint64_t dropped_tx = 0;       // eaten at the sender's egress
  std::uint64_t dropped_rx = 0;       // eaten at the receiver's ingress
  std::uint64_t duplicates = 0;       // PSN below expected, discarded
  std::uint64_t out_of_order = 0;     // PSN above expected (a gap)
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_dropped = 0;
  std::uint64_t sacks_sent = 0;       // ACK/NAKs that carried SACK ranges
  std::uint64_t rnr_naks = 0;         // receiver-not-ready NAKs sent
  std::uint64_t rnr_backoffs = 0;     // requester backoff pauses taken
  std::uint64_t retry_exhausted = 0;  // flows failed: retry budget spent
  std::uint64_t rnr_exhausted = 0;    // flows failed: RNR budget spent
  std::uint64_t flow_resets = 0;      // ResetFlow() re-arms

  std::uint64_t PacketsLost() const { return dropped_tx + dropped_rx; }

  TransportCounters& operator+=(const TransportCounters& o);
  bool operator==(const TransportCounters&) const = default;
};

// Why a message failed (MessageOps::on_failed). The first unacked message
// of a failing flow carries the exhaustion reason; everything queued behind
// it flushes.
enum class MsgFailure : std::uint8_t {
  kRetryExceeded,     // consecutive-RTO budget spent (peer unreachable)
  kRnrRetryExceeded,  // consecutive-RNR budget spent (receiver never ready)
  kFlushed,           // queued behind a failure / sent on an errored flow
};

class Transport {
 public:
  // Fires with the simulated instant of the event (delivery or ack).
  using Callback = std::function<void(Nanos)>;

  // Flows one transport can open, in chunks of kFlowChunk.
  static constexpr std::size_t kFlowChunk = 256;
  static constexpr std::size_t kMaxFlows = 1024 * kFlowChunk;

  // Extended per-message hooks. `rnr_probe` (optional) is consulted before
  // delivery: returning false means "receiver not ready" — the message is
  // NAKed and retried after backoff instead of delivered. It is only ever
  // consulted when cfg.rnr_retry_count > 0. `on_failed` (optional) fires
  // exactly once if the flow's retry budget dies under the message;
  // a message fires either {on_deliver, on_acked} or on_failed, never both.
  //
  // Shard affinity: rnr_probe and on_deliver run on the RECEIVER half's
  // domain; on_acked and on_failed run on the SENDER half's domain.
  struct MessageOps {
    std::function<bool(Nanos)> rnr_probe;
    Callback on_deliver;
    Callback on_acked;
    std::function<void(Nanos, MsgFailure)> on_failed;
  };

  // `sim` is the transport's home domain: a flow half whose endpoint has
  // no domain of its own (no device attached it) runs there.
  Transport(Simulator& sim, Fabric& fabric, TransportConfig cfg = {});

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  Fabric& fabric() { return fabric_; }
  const TransportConfig& config() const { return cfg_; }

  // Aggregated counters over every flow (sender + receiver halves). Call
  // outside sharded rounds (setup, between RunUntil calls, or after a run):
  // the sum walks state owned by other shards.
  TransportCounters counters() const;

  // Per-flow snapshot (sender + receiver half of one flow) so tests can
  // assert retransmit/SACK/RNR behaviour per flow instead of globally.
  // Same visibility rule as counters().
  TransportCounters FlowCounters(int flow) const;

  // Opens a unidirectional reliable flow src_ep -> dst_ep (fabric endpoint
  // ids). An RC connection uses one flow per direction. Call at setup or
  // mid-run (a recovery path building a fresh connection inside a sharded
  // round): the table never moves an entry another domain reads. Throws
  // std::length_error past kMaxFlows.
  int OpenFlow(int src_ep, int dst_ep);

  // Queues a message of `bytes` payload on `flow`, transmissible from `t`
  // (clamped to now; messages on one flow go out in SendMessage order).
  // `on_deliver` fires when the last byte lands in order at the receiver;
  // `on_acked` (optional) when the sender's cumulative ACK covers it.
  // on_deliver always fires before on_acked. Both fire exactly once.
  // Must be called on the flow's sender-half domain.
  void SendMessage(int flow, Nanos t, std::uint64_t bytes,
                   Callback on_deliver, Callback on_acked = {});

  // SendMessage with the full hook set (RNR probe + failure notification).
  void SendMessageEx(int flow, Nanos t, std::uint64_t bytes, MessageOps ops);

  // True once the flow's retry budget died; only ResetFlow revives it.
  // Sender-half state: call on the sender's domain.
  bool FlowErrored(int flow) const {
    const Flow& f = FlowAt(flow);
    AssertOn(f.sdom);
    return f.snd.error;
  }

  // Tears the flow back to a fresh PSN space (the ibv_modify_qp →RESET
  // analogue): pending messages flush via on_failed(kFlushed), in-flight
  // packets and timers of the old incarnation die, and both the sender and
  // receiver halves restart from PSN 0. The flushes fire on the reset
  // fence's echo, after both halves restarted: synchronously when they
  // share a domain, ≈ one RTT later otherwise.
  // Must be called on the flow's sender-half domain.
  void ResetFlow(int flow);

  // Overrides the loss probability of one endpoint's link (both
  // directions); endpoints default to the config-wide value.
  // Owned by the endpoint's shard: call on the domain the endpoint's
  // device attached with (Debug builds assert, like EventDomain::At).
  void SetLinkFaults(int ep, double loss);

  // Gray-failure hook: adds `extra` one-way latency to every packet and ACK
  // that touches endpoint `ep` (either end of the flow), on top of the
  // fabric's propagation. 0 (the default for every endpoint) restores the
  // healthy path — and is exactly the pre-hook arithmetic, so configs that
  // never call this are bit-identical. Same shard-ownership rule as
  // SetLinkFaults.
  void SetLinkDelay(int ep, Nanos extra);

  // Deterministic fault hooks for tests: eat the next `n` data packets /
  // ACKs crossing the fabric, bypassing the probabilistic model (and
  // consuming no randomness). Atomic because the data budget is consumed
  // on sender shards and the ACK budget on receiver shards.
  void DropNextData(int n) {
    force_drop_data_.fetch_add(n, std::memory_order_relaxed);
  }
  void DropNextAcks(int n) {
    force_drop_acks_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  // ACK-leg flavours. kAck may still carry SACK ranges (selective repeat
  // acking around a hole); kNak is the go-back-N sequence-error NAK; kRnr
  // is receiver-not-ready, answered with backoff instead of retransmission.
  enum class AckKind : std::uint8_t { kAck, kNak, kRnr };

  static constexpr Nanos kNever = std::numeric_limits<Nanos>::max();

  // Receiver-half view of one message: what the delivery logic needs. It
  // rides every transmission of the message's first DATA packet — the
  // receiver cannot pass last_psn without taking first_psn — and the
  // receiver files it idempotently.
  struct RxDesc {
    std::uint64_t len = 0;
    std::uint64_t first_psn = 0;
    std::uint64_t last_psn = 0;
    std::function<bool(Nanos)> rnr_probe;
    Callback on_deliver;
  };

  // Sender-half view of one message.
  struct Message {
    std::uint64_t len = 0;
    std::uint64_t first_psn = 0;
    std::uint64_t last_psn = 0;
    Nanos ready = 0;  // earliest transmission instant (DMA/exec done)
    Callback on_acked;
    std::function<void(Nanos, MsgFailure)> on_failed;
    std::shared_ptr<RxDesc> desc;  // shipped with the first packet
    MsgFailure why = MsgFailure::kFlushed;  // limbo flush reason
  };

  struct SenderHalf {
    // Incarnation: bumped by ResetFlow/FailFlow; DATA carries it (the
    // receiver adopts higher, drops lower) and ACKs echo the receiver's
    // (the sender drops mismatches), so in-flight events of an old life
    // die on arrival.
    std::uint64_t gen = 0;
    bool error = false;  // budget exhausted; dead until ResetFlow
    std::uint64_t next_psn = 0;     // next PSN to assign
    std::uint64_t base = 0;         // lowest unacked PSN
    std::uint64_t send_cursor = 0;  // next PSN to (re)transmit
    std::uint64_t high_water = 0;   // PSNs transmitted at least once
    // One RTO event per flow: rto_timer is when the pending one is due
    // (kNever: none), rto_deadline when the RTO is due (kNever: disarmed),
    // and rto_epoch names the pending event so a superseded one dies.
    std::uint64_t rto_epoch = 0;
    Nanos rto_deadline = kNever;
    Nanos rto_timer = kNever;
    std::uint32_t consec_rtos = 0;  // RTO fires since last cumulative progress
    std::uint32_t rnr_attempts = 0; // consecutive RNR NAKs received
    bool goback_armed = false;      // one NAK rewind per loss event
    bool rnr_paused = false;        // backing off; transmit nothing
    PsnSet known_received;          // SACKed above base (SR)
    PsnSet retx_outstanding;        // SACK-resent, once per event
    std::deque<Message> msgs;       // FIFO, not yet fully acked
    // Unacked messages of a failed/reset incarnation, held until the reset
    // fence echoes back (no receiver-side event of the old life can still
    // fire), then flushed via on_failed.
    std::deque<Message> limbo;
    Rng rng{1};                     // egress-side draws (FlowSeed side 0)
    TransportCounters ctr;          // sender-half share of the counters
  };

  struct ReceiverHalf {
    std::uint64_t gen = 0;          // incarnation adopted from DATA/fences
    std::uint64_t expected = 0;     // next in-order PSN
    std::uint32_t rx_unacked = 0;   // in-order packets since the last ACK
    std::uint64_t ack_epoch = 0;    // invalidates superseded delayed ACKs
    bool ack_timer_armed = false;
    // Held out-of-order PSNs (SR only), all above `expected`.
    PsnSet rx_ooo;
    // Reassembly/delivery queue, sorted by first PSN.
    std::vector<std::shared_ptr<RxDesc>> rx_msgs;
    Rng rng{1};                     // ingress-side draws (FlowSeed side 1)
    TransportCounters ctr;          // receiver-half share of the counters
  };

  // One flow = one sender half + one receiver half + immutable routing.
  // unique_ptr keeps the address stable — in-flight events capture Flow*,
  // which is also what lets mailbox messages skip the flow-table lookup,
  // and reach the transport through `tr` instead of capturing `this`.
  struct Flow {
    Transport* tr = nullptr;
    int id = -1;
    int src = -1;
    int dst = -1;
    EventDomain* sdom = nullptr;  // sender half's event domain
    EventDomain* ddom = nullptr;  // receiver half's event domain
    SenderHalf snd;
    ReceiverHalf rcv;
  };

  struct PacketView {
    std::uint32_t bytes;  // payload bytes (wire adds kHeaderBytes)
    Nanos ready;
    const Message* msg;   // owning message (its first packet ships desc)
  };

  // Missing-PSN ranges [first, last] carried by a selective-repeat ACK.
  using SackRanges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  // Shard-affinity guard, mirroring EventDomain::AssertSameShard: while a
  // sharded round is executing, the touched half/endpoint must belong to
  // the running domain. No-op outside rounds and in release builds.
  static void AssertOn(const EventDomain* dom) {
    assert((EventDomain::Current() == nullptr ||
            EventDomain::Current() == dom) &&
           "transport state touched from a foreign shard; route the call "
           "to the owning endpoint's domain");
    (void)dom;
  }

  EventDomain* DomainOf(int ep) const {
    if (ep < 0 || static_cast<std::size_t>(ep) >= fabric_.endpoint_count()) {
      return &sim_;
    }
    EventDomain* d = fabric_.domain(ep);
    return d != nullptr ? d : &sim_;
  }
  Nanos SNow(const Flow& f) const { return f.sdom->now(); }
  Nanos DNow(const Flow& f) const { return f.ddom->now(); }
  // Hands one leg to the far half, arriving at `at`: `ingress(at)` runs
  // inline when both halves share a domain (the ingress schedules the
  // leg's one arrival event itself), else as a mailbox message due at
  // `at` on the far domain.
  template <class F>
  static void Cross(EventDomain* from, EventDomain* to, Nanos at,
                    F&& ingress) {
    if (from == to) {
      ingress(at);
      return;
    }
    from->SendTo(to->shard(), at,
                 [at, fn = std::forward<F>(ingress)]() mutable { fn(at); });
  }
  static bool Draw(Rng& rng, double p) {
    return p > 0.0 && rng.NextDouble() < p;
  }
  std::uint64_t FlowSeed(int flow, int side) const;

  PacketView PacketOf(const Flow& f, std::uint64_t psn) const;
  double LossAt(int ep) const {
    const std::size_t i = static_cast<std::size_t>(ep);
    return i < losses_.size() ? losses_[i] : cfg_.loss;
  }
  Nanos DelayAt(int ep) const {
    const std::size_t i = static_cast<std::size_t>(ep);
    return i < delays_.size() ? delays_[i] : 0;
  }
  static bool TakeForced(std::atomic<int>* budget) {
    int v = budget->load(std::memory_order_relaxed);
    while (v > 0) {
      if (budget->compare_exchange_weak(v, v - 1,
                                        std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
  bool Sr() const { return cfg_.mode == TransportMode::kSelectiveRepeat; }
  Nanos RnrDelay(std::uint32_t attempt) const;
  void EnsureLinkTables();

  // --- sender-half logic (runs on f.sdom) -----------------------------------
  void TrySend(Flow& f);
  void SendPacket(Flow& f, std::uint64_t psn, const PacketView& p);
  void MarkKnownReceived(Flow& f, std::uint64_t upto, std::uint64_t high,
                         const SackRanges& ranges);
  int SackRetransmit(Flow& f, const SackRanges& ranges);
  void OnAck(Flow& f, std::uint64_t upto, AckKind kind, std::uint64_t high,
             const SackRanges& ranges);
  // ACK-leg ingress at the sender's endpoint, reached through Cross at
  // the leg's arrival instant `at`.
  void OnAckIngress(Flow& f, Nanos at, std::uint64_t upto, AckKind kind,
                    std::uint64_t high, SackRanges ranges, std::uint64_t wire,
                    std::uint64_t gen);
  void RetransmitMissing(Flow& f);
  // Sets the RTO deadline one (backed-off) interval from now, or disarms
  // it when nothing is outstanding. Schedules an event only when none is
  // pending or the pending one is due after the new deadline; a pending
  // event that fires early re-arms itself to the deadline (OnRtoTimer).
  void ArmRto(Flow& f);
  void ScheduleRto(Flow& f);
  void OnRtoTimer(Flow& f, std::uint64_t epoch);
  // Disarms the RTO and forgets the pending event: the RNR backoff, a
  // failed flow and a reset incarnation own the clock instead.
  static void SilenceRto(SenderHalf& s);
  void OnRto(Flow& f);
  void OnRnrResume(Flow& f);
  void FailFlow(Flow& f, MsgFailure why);
  // Parks the unacked queue in limbo (the head message carries `why`,
  // the rest kFlushed) for the next reset fence's echo to flush.
  static void Park(SenderHalf& s, MsgFailure why);
  // Sends the reset fence for the sender's current incarnation: the
  // receiver half restarts on its arrival (OnFenceIngress) and echoes
  // back; the echo (OnFenceEcho) flushes the limbo.
  void Fence(Flow& f);
  void OnFenceIngress(Flow& f, Nanos at, std::uint64_t gen);
  void OnFenceEcho(Flow& f, std::uint64_t gen);
  // Protocol-state resets that preserve the half's counters and RNG stream.
  static void ResetSenderHalf(SenderHalf& s, std::uint64_t gen);
  static void ResetReceiverHalf(ReceiverHalf& r, std::uint64_t gen,
                                std::uint64_t ack_epoch);

  // --- receiver-half logic (runs on f.ddom) ---------------------------------
  // DATA-leg ingress at the receiver's endpoint, reached through Cross at
  // the leg's arrival instant `at`.
  void OnDataIngress(Flow& f, Nanos at, std::uint64_t psn, std::uint64_t wire,
                     std::uint64_t gen, std::shared_ptr<RxDesc> desc);
  // Files a message's descriptor in first-PSN order, once.
  static void FileDesc(ReceiverHalf& r, std::shared_ptr<RxDesc> desc);
  void OnData(Flow& f, std::uint64_t psn);
  // Delivers every fully-arrived message at the head of the queue; returns
  // false if an rnr_probe rejected one (expected already rewound to its
  // first PSN, arrived packets of the tail re-held when selective repeat).
  bool DeliverReady(Flow& f, bool* boundary);
  void SendAck(Flow& f, AckKind kind);
  SackRanges MissingRanges(const Flow& f) const;
  void ArmAckTimer(Flow& f);
  void OnAckTimer(Flow& f, std::uint64_t epoch);
  // Restarts the receiver half for incarnation `gen` (reset fence arrived,
  // or DATA of a newer life overtook it).
  void AdoptGen(Flow& f, std::uint64_t gen);

  Simulator& sim_;  // home domain
  Fabric& fabric_;
  TransportConfig cfg_;
  // The flow table: fixed-size chunks of flow pointers behind a directory
  // that never reallocates, so a flow opened mid-run relocates nothing a
  // domain resolving its own flow ids reads concurrently.
  Flow& FlowAt(int flow) const {
    const auto i = static_cast<std::size_t>(flow);
    return *flow_chunks_[i / kFlowChunk][i % kFlowChunk];
  }
  std::array<std::unique_ptr<std::unique_ptr<Flow>[]>, kMaxFlows / kFlowChunk>
      flow_chunks_;
  std::size_t flow_count_ = 0;
  std::vector<double> losses_;  // per-endpoint loss probability
  std::vector<Nanos> delays_;   // per-endpoint added latency (kSlow)
  std::atomic<int> force_drop_data_{0};
  std::atomic<int> force_drop_acks_{0};
};

}  // namespace redn::sim
