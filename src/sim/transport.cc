#include "sim/transport.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace redn::sim {

namespace {
// Bounds the exponential backoff shifts: 2^10 on a 50µs base is ~51ms,
// already far past any budget a test or bench configures.
constexpr std::uint32_t kMaxBackoffShift = 10;
// SACK ranges carried per ACK; holes past the cap wait for the next ACK
// or the RTO (the sender must never mis-learn an unreported hole as
// received, so `high` clamps to the last reported range).
constexpr std::size_t kMaxSackRanges = 8;
}  // namespace

TransportCounters& TransportCounters::operator+=(const TransportCounters& o) {
  messages_sent += o.messages_sent;
  messages_delivered += o.messages_delivered;
  messages_acked += o.messages_acked;
  messages_failed += o.messages_failed;
  payload_bytes_delivered += o.payload_bytes_delivered;
  wire_bytes_sent += o.wire_bytes_sent;
  data_packets += o.data_packets;
  retransmits += o.retransmits;
  sack_retransmits += o.sack_retransmits;
  timeouts += o.timeouts;
  rto_fires += o.rto_fires;
  spurious_retransmits += o.spurious_retransmits;
  nak_gobacks += o.nak_gobacks;
  dropped_tx += o.dropped_tx;
  dropped_rx += o.dropped_rx;
  corrupted += o.corrupted;
  duplicates += o.duplicates;
  out_of_order += o.out_of_order;
  acks_sent += o.acks_sent;
  acks_dropped += o.acks_dropped;
  sacks_sent += o.sacks_sent;
  rnr_naks += o.rnr_naks;
  rnr_backoffs += o.rnr_backoffs;
  retry_exhausted += o.retry_exhausted;
  rnr_exhausted += o.rnr_exhausted;
  flow_resets += o.flow_resets;
  return *this;
}

Transport::Transport(Simulator& sim, Fabric& fabric, TransportConfig cfg)
    : sim_(sim),
      fabric_(fabric),
      cfg_(cfg),
      default_fault_{cfg.loss, cfg.corrupt} {
  assert(cfg_.mtu > 0 && "mtu must be positive");
  assert(cfg_.window > 0 && "window must be positive");
}

TransportCounters Transport::counters() const {
  TransportCounters total;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    total += FlowCounters(static_cast<int>(i));
  }
  return total;
}

TransportCounters Transport::FlowCounters(int flow) const {
  const Flow& f = *flows_[static_cast<std::size_t>(flow)];
  // Mid-round, only a flow whose halves both live on the running domain
  // is readable; anything else spans shards — snapshot between runs.
  assert((EventDomain::Current() == nullptr ||
          (EventDomain::Current() == f.sdom &&
           EventDomain::Current() == f.ddom)) &&
         "a flow's counters span two shards; snapshot between runs");
  TransportCounters total = f.snd.ctr;
  total += f.rcv.ctr;
  return total;
}

std::uint64_t Transport::FlowSeed(int flow, int side) const {
  // splitmix64-style finalizer over (config seed, flow id, half): two
  // decorrelated streams per flow whose draw order depends only on that
  // half's own packet events — never on global event interleaving.
  std::uint64_t z =
      cfg_.seed ^ (0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(flow) * 2 +
                    static_cast<std::uint64_t>(side) + 1));
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

void Transport::EnsureLinkTables() {
  const std::size_t n = fabric_.endpoint_count();
  if (faults_.size() < n) {
    assert(EventDomain::Current() == nullptr &&
           "link tables grow only outside sharded rounds");
    faults_.resize(n, default_fault_);
  }
  if (delays_.size() < n) {
    assert(EventDomain::Current() == nullptr &&
           "link tables grow only outside sharded rounds");
    delays_.resize(n, 0);
  }
}

int Transport::OpenFlow(int src_ep, int dst_ep) {
  // Growing the table mid-round is legal only with ReserveFlows headroom:
  // a reallocation would move the vector's storage out from under foreign
  // shards resolving their own flow ids concurrently.
  assert((EventDomain::Current() == nullptr ||
          flows_.size() < flows_.capacity()) &&
         "mid-round OpenFlow without ReserveFlows headroom");
  auto fl = std::make_unique<Flow>();
  Flow& f = *fl;
  f.tr = this;
  f.id = static_cast<int>(flows_.size());
  f.src = src_ep;
  f.dst = dst_ep;
  f.sdom = DomainOf(src_ep);
  f.ddom = DomainOf(dst_ep);
  f.snd.rng = Rng(FlowSeed(f.id, 0));
  f.rcv.rng = Rng(FlowSeed(f.id, 1));
  // Size the per-endpoint fault/delay tables now, while single-threaded:
  // mid-round SetLinkFaults/SetLinkDelay then writes its own slot in place.
  EnsureLinkTables();
  flows_.push_back(std::move(fl));
  return f.id;
}

void Transport::SetLinkFaults(int ep, double loss, double corrupt) {
  AssertOn(DomainOf(ep));
  if (faults_.size() <= static_cast<std::size_t>(ep)) {
    assert(EventDomain::Current() == nullptr &&
           "link tables grow only outside sharded rounds");
    faults_.resize(static_cast<std::size_t>(ep) + 1, default_fault_);
  }
  faults_[static_cast<std::size_t>(ep)] = LinkFault{loss, corrupt};
}

void Transport::SetLinkDelay(int ep, Nanos extra) {
  AssertOn(DomainOf(ep));
  if (delays_.size() <= static_cast<std::size_t>(ep)) {
    assert(EventDomain::Current() == nullptr &&
           "link tables grow only outside sharded rounds");
    delays_.resize(static_cast<std::size_t>(ep) + 1, 0);
  }
  delays_[static_cast<std::size_t>(ep)] = extra;
}

const Transport::LinkFault& Transport::FaultAt(int ep) const {
  const auto i = static_cast<std::size_t>(ep);
  return i < faults_.size() ? faults_[i] : default_fault_;
}

Nanos Transport::RnrDelay(std::uint32_t attempt) const {
  const std::uint32_t shift =
      std::min(attempt > 0 ? attempt - 1 : 0u, kMaxBackoffShift);
  return (Nanos{4096} << cfg_.min_rnr_timer) << shift;
}

Transport::PacketView Transport::PacketOf(const Flow& f,
                                          std::uint64_t psn) const {
  // Linear from the front: the deque holds only unacked messages and
  // the sender never transmits below base, so the walk is bounded by the
  // window's message count.
  for (const Message& m : f.snd.msgs) {
    if (psn <= m.last_psn) {
      const std::uint64_t off = (psn - m.first_psn) *
                                static_cast<std::uint64_t>(cfg_.mtu);
      const std::uint64_t rem = m.len > off ? m.len - off : 0;
      const std::uint64_t take = rem < cfg_.mtu ? rem : cfg_.mtu;
      return PacketView{static_cast<std::uint32_t>(take), m.ready, &m};
    }
  }
  assert(false && "psn not covered by any queued message");
  return PacketView{0, 0, nullptr};
}

void Transport::SendMessage(int flow, Nanos t, std::uint64_t bytes,
                            Callback on_deliver, Callback on_acked) {
  MessageOps ops;
  ops.on_deliver = std::move(on_deliver);
  ops.on_acked = std::move(on_acked);
  SendMessageEx(flow, t, bytes, std::move(ops));
}

void Transport::SendMessageEx(int flow, Nanos t, std::uint64_t bytes,
                              MessageOps ops) {
  Flow& f = *flows_[static_cast<std::size_t>(flow)];
  AssertOn(f.sdom);
  SenderHalf& s = f.snd;
  ++s.ctr.messages_sent;
  if (s.error) {
    // The flow's budget already died: fail fast (asynchronously, so the
    // caller never re-enters itself) instead of queueing into a void.
    ++s.ctr.messages_failed;
    if (ops.on_failed) {
      f.sdom->At(SNow(f), [this, fp = &f, cb = std::move(ops.on_failed)] {
        cb(SNow(*fp), MsgFailure::kFlushed);
      });
    }
    return;
  }
  if (t < SNow(f)) t = SNow(f);
  const std::uint64_t segs =
      bytes == 0 ? 1 : (bytes + cfg_.mtu - 1) / cfg_.mtu;
  Message m;
  m.len = bytes;
  m.ready = t;
  m.first_psn = s.next_psn;
  m.last_psn = s.next_psn + segs - 1;
  m.on_acked = std::move(ops.on_acked);
  m.on_failed = std::move(ops.on_failed);
  m.desc = std::make_shared<RxDesc>();
  m.desc->len = bytes;
  m.desc->first_psn = m.first_psn;
  m.desc->last_psn = m.last_psn;
  m.desc->rnr_probe = std::move(ops.rnr_probe);
  m.desc->on_deliver = std::move(ops.on_deliver);
  const bool was_idle = s.base == s.next_psn;
  s.next_psn += segs;
  s.msgs.push_back(std::move(m));
  if (!s.rnr_paused) TrySend(f);
  // Only an idle->busy transition arms the timer: re-arming on every
  // enqueue would let a steady message stream postpone the RTO forever
  // while the base PSN sits unacked.
  if (was_idle && !s.rnr_paused) ArmRto(f);
}

void Transport::TrySend(Flow& f) {
  SenderHalf& s = f.snd;
  const std::uint64_t limit = s.base + cfg_.window;
  while (s.send_cursor < s.next_psn && s.send_cursor < limit) {
    SendPacket(f, s.send_cursor, PacketOf(f, s.send_cursor));
    ++s.send_cursor;
  }
}

void Transport::SendPacket(Flow& f, std::uint64_t psn, const PacketView& p) {
  SenderHalf& s = f.snd;
  const Nanos t = p.ready > SNow(f) ? p.ready : SNow(f);
  const std::uint64_t wire = p.bytes + cfg_.header_bytes;
  if (psn < s.high_water) {
    ++s.ctr.retransmits;
  } else {
    ++s.ctr.data_packets;
    s.high_water = psn + 1;
  }
  s.ctr.wire_bytes_sent += wire;
  // The packet serializes out of the sender's pipe whether or not anything
  // downstream eats it; losses only decide how far along the path the
  // bytes billed.
  const Nanos tx_done = fabric_.ReserveTx(f.src, t, wire);
  if (TakeForced(&force_drop_data_) || Draw(s.rng, FaultAt(f.src).loss)) {
    ++s.ctr.dropped_tx;
    return;
  }
  // The sender's half of the wire crossing ends here: the src-side
  // corruption verdict rides the leg, and the receiver half finishes the
  // path (its own delay, RX reservation, ingress loss/corruption).
  const bool src_corrupt = Draw(s.rng, FaultAt(f.src).corrupt);
  std::shared_ptr<RxDesc> desc;
  if (psn == p.msg->first_psn) desc = p.msg->desc;
  Cross(f.sdom, f.ddom,
        tx_done + fabric_.OneWay(f.src, f.dst) + DelayAt(f.src),
        [this, fp = &f, psn, wire, gen = s.gen, src_corrupt,
         desc = std::move(desc)](Nanos at) mutable {
          OnDataIngress(*fp, at, psn, wire, gen, src_corrupt,
                        std::move(desc));
        });
}

void Transport::OnDataIngress(Flow& f, Nanos at, std::uint64_t psn,
                              std::uint64_t wire, std::uint64_t gen,
                              bool src_corrupt, std::shared_ptr<RxDesc> desc) {
  ReceiverHalf& r = f.rcv;
  if (gen < r.gen) return;  // a dead incarnation's packet; never bill it
  if (gen > r.gen) {
    // DATA of a newer life overtook its reset fence: restart now.
    AdoptGen(f, gen);
  }
  const Nanos arrive = fabric_.ReserveRx(f.dst, at + DelayAt(f.dst), wire);
  if (Draw(r.rng, FaultAt(f.dst).loss)) {
    ++r.ctr.dropped_rx;
    return;
  }
  if (src_corrupt || Draw(r.rng, FaultAt(f.dst).corrupt)) {
    // Bad ICRC at the receiver: silently discarded, exactly like a loss
    // except the bytes crossed the whole path first.
    ++r.ctr.corrupted;
    return;
  }
  if (desc && desc->last_psn >= r.expected) {
    // Idempotent: every transmission of the first packet carries the
    // descriptor, and `expected` filters re-filing a delivered message.
    FileDesc(r, std::move(desc));
  }
  f.ddom->At(arrive, [this, fp = &f, psn, gen] {
    if (gen != fp->rcv.gen) return;
    OnData(*fp, psn);
  });
}

void Transport::FileDesc(ReceiverHalf& r, std::shared_ptr<RxDesc> desc) {
  // Almost always an append: first packets arrive in PSN order unless one
  // was lost and resent behind a later message's.
  auto& q = r.rx_msgs;
  auto at = q.end();
  while (at != q.begin() && (*(at - 1))->first_psn > desc->first_psn) --at;
  if (at != q.begin() && (*(at - 1))->first_psn == desc->first_psn) return;
  q.insert(at, std::move(desc));
}

void Transport::OnData(Flow& f, std::uint64_t psn) {
  ReceiverHalf& r = f.rcv;
  if (psn == r.expected) {
    ++r.expected;
    if (Sr()) {
      // Drain the reassembly window: contiguous held packets are as good
      // as arrived now. Every held PSN is above `expected`, so what the
      // drain passed is exactly what it consumed.
      r.expected = r.rx_ooo.NextAbsentAtOrAfter(r.expected);
      r.rx_ooo.EraseBelow(r.expected);
    }
    bool boundary = false;
    const bool ready = DeliverReady(f, &boundary);
    ++r.rx_unacked;
    if (!ready) {
      // An rnr_probe rejected the head message: expected has been rewound
      // to its first PSN; tell the sender to back off and retry.
      SendAck(f, AckKind::kRnr);
      return;
    }
    if (boundary || r.rx_unacked >= cfg_.ack_every) {
      SendAck(f, AckKind::kAck);
    } else {
      ArmAckTimer(f);
    }
  } else if (psn > r.expected) {
    ++r.ctr.out_of_order;
    if (Sr()) {
      if (!r.rx_ooo.Insert(psn)) {
        // Already held: the sender resent something we have.
        ++r.ctr.duplicates;
        ++r.ctr.spurious_retransmits;
      }
      // Either way the ACK carries the current missing ranges, so the
      // sender learns exactly which holes remain.
      SendAck(f, AckKind::kAck);
    } else {
      // Gap: a go-back-N receiver buffers nothing. NAK so the sender
      // rewinds without waiting out the RTO.
      SendAck(f, AckKind::kNak);
    }
  } else {
    // Duplicate from a spurious retransmit (e.g. an eaten ACK): discard —
    // this filter is what guarantees single delivery — and re-ACK so the
    // sender's base can advance.
    ++r.ctr.duplicates;
    ++r.ctr.spurious_retransmits;
    SendAck(f, AckKind::kAck);
  }
}

bool Transport::DeliverReady(Flow& f, bool* boundary) {
  ReceiverHalf& r = f.rcv;
  while (!r.rx_msgs.empty()) {
    RxDesc& d = *r.rx_msgs.front();
    if (d.last_psn >= r.expected) break;
    if (cfg_.rnr_retry_count > 0 && d.rnr_probe && !d.rnr_probe(DNow(f))) {
      // Receiver not ready (no RECV posted): rewind to the message start.
      // Selective repeat re-holds what already arrived past the first
      // packet; go-back-N discards it — the sender rewinds anyway.
      const std::uint64_t arrived_to = r.expected;
      r.expected = d.first_psn;
      if (Sr() && arrived_to > d.first_psn + 1) {
        r.rx_ooo.InsertRange(d.first_psn + 1, arrived_to - 1);
      }
      ++r.ctr.rnr_naks;
      return false;
    }
    ++r.ctr.messages_delivered;
    r.ctr.payload_bytes_delivered += d.len;
    *boundary = true;
    // Take the head out before the callback (keeping the descriptor alive
    // through it): the callback may file into the queue, and a delivered
    // message can never be re-filed — `expected` is past it.
    std::shared_ptr<RxDesc> keep = std::move(r.rx_msgs.front());
    r.rx_msgs.erase(r.rx_msgs.begin());
    if (keep->on_deliver) keep->on_deliver(DNow(f));
  }
  return true;
}

Transport::SackRanges Transport::MissingRanges(const Flow& f) const {
  SackRanges r;
  const PsnSet& held = f.rcv.rx_ooo;
  std::uint64_t need = f.rcv.expected;
  // One step per run of held PSNs: the gap before it is a missing range.
  for (std::uint64_t psn = held.NextAtOrAfter(need); psn != PsnSet::kNone;
       psn = held.NextAtOrAfter(need)) {
    if (psn > need) {
      if (r.size() == kMaxSackRanges) break;
      r.push_back({need, psn - 1});
    }
    need = held.NextAbsentAtOrAfter(psn);
  }
  return r;
}

void Transport::SendAck(Flow& f, AckKind kind) {
  ReceiverHalf& r = f.rcv;
  r.rx_unacked = 0;
  ++r.ack_epoch;  // cancels any pending delayed ACK
  ++r.ctr.acks_sent;
  SackRanges ranges;
  std::uint64_t high = 0;
  if (Sr() && !r.rx_ooo.empty()) {
    ranges = MissingRanges(f);
    if (!ranges.empty()) {
      ++r.ctr.sacks_sent;
      // Everything in [upto, high] not named missing is known-received at
      // the sender. When the range cap truncated the report, high clamps
      // to the last reported hole so unreported holes are not mis-learned.
      high = ranges.size() == kMaxSackRanges ? ranges.back().second
                                             : r.rx_ooo.Max();
    }
  }
  const std::uint64_t wire =
      cfg_.ack_bytes + ranges.size() * cfg_.sack_range_bytes;
  r.ctr.wire_bytes_sent += wire;
  const std::uint64_t upto = r.expected;
  const Nanos tx_done = fabric_.ReserveTx(f.dst, DNow(f), wire);
  if (TakeForced(&force_drop_acks_) || Draw(r.rng, FaultAt(f.dst).loss)) {
    ++r.ctr.acks_dropped;
    return;
  }
  // The sender half finishes the reverse path (src delay, RX reservation,
  // ingress loss) with its own stream.
  Cross(f.ddom, f.sdom,
        tx_done + fabric_.OneWay(f.dst, f.src) + DelayAt(f.dst),
        [this, fp = &f, upto, kind, high, wire, gen = r.gen,
         ranges = std::move(ranges)](Nanos at) mutable {
          OnAckIngress(*fp, at, upto, kind, high, std::move(ranges), wire,
                       gen);
        });
}

void Transport::OnAckIngress(Flow& f, Nanos at, std::uint64_t upto,
                             AckKind kind, std::uint64_t high,
                             SackRanges ranges, std::uint64_t wire,
                             std::uint64_t gen) {
  SenderHalf& s = f.snd;
  const Nanos arrive = fabric_.ReserveRx(f.src, at + DelayAt(f.src), wire);
  if (Draw(s.rng, FaultAt(f.src).loss)) {
    ++s.ctr.acks_dropped;
    return;
  }
  // The capture reaches the transport through the flow, so it fits the
  // event's inline slot (no heap allocation per ACK).
  f.sdom->At(arrive, [fp = &f, upto, kind, high, ranges = std::move(ranges),
                      gen] {
    if (gen != fp->snd.gen) return;  // echo of a dead incarnation
    fp->tr->OnAck(*fp, upto, kind, high, ranges);
  });
}

void Transport::MarkKnownReceived(Flow& f, std::uint64_t upto,
                                  std::uint64_t high,
                                  const SackRanges& ranges) {
  SenderHalf& s = f.snd;
  if (!Sr() || ranges.empty()) return;
  // Everything in [max(upto, base), high] outside the missing ranges
  // (ascending, disjoint) arrived.
  std::uint64_t from = std::max(upto, s.base);
  for (const auto& [first, last] : ranges) {
    if (from > high) return;
    if (first > from) {
      s.known_received.InsertRange(from, std::min(first - 1, high));
    }
    from = std::max(from, last + 1);
  }
  if (from <= high) s.known_received.InsertRange(from, high);
}

int Transport::SackRetransmit(Flow& f, const SackRanges& ranges) {
  SenderHalf& s = f.snd;
  int resent = 0;
  for (const auto& [first, last] : ranges) {
    const std::uint64_t lo = std::max(first, s.base);
    const std::uint64_t hi = std::min(last + 1, s.high_water);
    for (std::uint64_t psn = lo; psn < hi; ++psn) {
      if (s.known_received.Contains(psn)) continue;
      // Once per loss event: a hole named by several SACKs (every arrival
      // behind it generates one) is resent on the first report only; the
      // RTO clears the set and covers a lost retransmission.
      if (!s.retx_outstanding.Insert(psn)) continue;
      ++s.ctr.sack_retransmits;
      SendPacket(f, psn, PacketOf(f, psn));
      ++resent;
    }
  }
  return resent;
}

void Transport::OnAck(Flow& f, std::uint64_t upto, AckKind kind,
                      std::uint64_t high, const SackRanges& ranges) {
  SenderHalf& s = f.snd;
  if (s.error) return;
  bool progressed = false;
  if (upto > s.base) {
    progressed = true;
    s.base = upto;
    s.goback_armed = false;
    // Cumulative progress proves the path and the peer are alive: both
    // backoff ladders restart.
    s.consec_rtos = 0;
    s.rnr_attempts = 0;
    while (!s.msgs.empty() && s.msgs.front().last_psn < s.base) {
      // A cumulative ACK past last_psn implies the receiver delivered the
      // message (delivery precedes every ACK that covers it).
      Message m = std::move(s.msgs.front());
      s.msgs.pop_front();
      ++s.ctr.messages_acked;
      if (m.on_acked) m.on_acked(SNow(f));
    }
    if (s.send_cursor < s.base) s.send_cursor = s.base;
    if (Sr()) {
      s.known_received.EraseBelow(s.base);
      s.retx_outstanding.EraseBelow(s.base);
    }
  }
  if (kind == AckKind::kRnr) {
    // An ack_every/delayed ACK can advance base into a multi-segment SEND
    // before the rnr_probe rejects it at the message boundary; the RNR NAK
    // then carries the receiver's rewound expected (the message's first
    // PSN), below base. Take those PSNs back as unacked — every retransmit
    // path clamps at base, so without this rewind the receiver would wait
    // forever on packets the sender believes are acked. Nothing needs
    // un-popping: base never passes the blocked message's last PSN, so the
    // message (and everything behind it) is still queued.
    if (upto < s.base) s.base = upto;
    // Recorded even for deduped burst NAKs: their SACK ranges still teach
    // us what the receiver holds, so the resume resends only true holes.
    MarkKnownReceived(f, upto, high, ranges);
    if (s.rnr_attempts >= 1 && s.rnr_paused) return;  // NAK burst: one pause
    ++s.rnr_attempts;
    if (cfg_.rnr_retry_count > 0 &&
        s.rnr_attempts > cfg_.rnr_retry_count) {
      FailFlow(f, MsgFailure::kRnrRetryExceeded);
      return;
    }
    ++s.ctr.rnr_backoffs;
    s.rnr_paused = true;
    SilenceRto(s);  // the backoff owns the clock
    f.sdom->After(RnrDelay(s.rnr_attempts), [this, fp = &f, gen = s.gen] {
      if (gen != fp->snd.gen) return;
      OnRnrResume(*fp);
    });
    return;
  }
  if (s.rnr_paused) {
    // Stragglers during the backoff still teach us what arrived, but the
    // resume event owns all transmission.
    MarkKnownReceived(f, upto, high, ranges);
    return;
  }
  if (Sr()) {
    MarkKnownReceived(f, upto, high, ranges);
    const int resent = ranges.empty() ? 0 : SackRetransmit(f, ranges);
    if (progressed) TrySend(f);  // the window slid open
    if (progressed || resent > 0) ArmRto(f);
    return;
  }
  // Go-back-N. Decide the NAK rewind BEFORE transmitting anything: a NAK
  // that also carries cumulative progress must not first slide the window
  // forward (sending fresh packets the gapped receiver would only discard)
  // and rewind afterwards — that would transmit every post-gap packet
  // twice.
  if (kind == AckKind::kNak && upto == s.base && s.base < s.next_psn &&
      !s.goback_armed) {
    // The receiver reported a gap at our current base: rewind once per
    // loss event (repeated NAKs for the same gap are already answered by
    // the retransmission in flight).
    s.goback_armed = true;
    ++s.ctr.nak_gobacks;
    s.send_cursor = s.base;
    TrySend(f);
    ArmRto(f);
  } else if (progressed) {
    TrySend(f);  // the window slid open
    ArmRto(f);
  }
  // upto < base (and no gap at base): a stale ACK overtaken by progress.
}

void Transport::RetransmitMissing(Flow& f) {
  SenderHalf& s = f.snd;
  const std::uint64_t hi = std::min(s.high_water, s.base + cfg_.window);
  for (std::uint64_t psn = s.base; psn < hi; ++psn) {
    if (s.known_received.Contains(psn)) continue;
    SendPacket(f, psn, PacketOf(f, psn));
  }
}

void Transport::ArmRto(Flow& f) {
  SenderHalf& s = f.snd;
  if (s.base == s.next_psn || s.error) {  // nothing outstanding
    s.rto_deadline = kNever;
    return;
  }
  // Consecutive timeouts on one base PSN double the interval: a feedback
  // loop with a fixed period and a lossy channel otherwise retransmits in
  // lockstep with whatever is eating the packets.
  const std::uint32_t shift = std::min(s.consec_rtos, kMaxBackoffShift);
  s.rto_deadline = SNow(f) + (BaseRto() << shift);
  // A later deadline is caught up by the pending event; an earlier one
  // (progress reset the backoff) must not wait for it.
  if (s.rto_timer > s.rto_deadline) ScheduleRto(f);
}

void Transport::ScheduleRto(Flow& f) {
  SenderHalf& s = f.snd;
  s.rto_timer = s.rto_deadline;
  f.sdom->At(s.rto_timer, [fp = &f, epoch = ++s.rto_epoch] {
    fp->tr->OnRtoTimer(*fp, epoch);
  });
}

void Transport::OnRtoTimer(Flow& f, std::uint64_t epoch) {
  SenderHalf& s = f.snd;
  if (epoch != s.rto_epoch) return;  // superseded or silenced
  s.rto_timer = kNever;
  if (s.rto_deadline == kNever) return;  // disarmed since it was scheduled
  if (SNow(f) < s.rto_deadline) {
    ScheduleRto(f);  // progress pushed the deadline back
    return;
  }
  OnRto(f);
}

void Transport::SilenceRto(SenderHalf& s) {
  ++s.rto_epoch;
  s.rto_deadline = kNever;
  s.rto_timer = kNever;
}

void Transport::OnRto(Flow& f) {
  SenderHalf& s = f.snd;
  if (s.error || s.rnr_paused) return;
  if (s.base == s.next_psn) return;
  ++s.ctr.rto_fires;
  ++s.consec_rtos;
  if (cfg_.retry_count > 0 && s.consec_rtos > cfg_.retry_count) {
    FailFlow(f, MsgFailure::kRetryExceeded);
    return;
  }
  ++s.ctr.timeouts;
  s.goback_armed = false;
  if (Sr()) {
    // The timeout invalidates what we thought was in flight: every hole
    // may be resent again on the next SACK.
    s.retx_outstanding.Clear();
    RetransmitMissing(f);
  } else {
    s.send_cursor = s.base;
    TrySend(f);
  }
  ArmRto(f);
}

void Transport::OnRnrResume(Flow& f) {
  SenderHalf& s = f.snd;
  if (s.error || !s.rnr_paused) return;
  s.rnr_paused = false;
  if (s.base == s.next_psn) return;  // acked away during the pause
  if (Sr()) {
    s.retx_outstanding.Clear();
    RetransmitMissing(f);
    TrySend(f);
  } else {
    s.goback_armed = false;
    s.send_cursor = s.base;
    TrySend(f);
  }
  ArmRto(f);
}

void Transport::ArmAckTimer(Flow& f) {
  ReceiverHalf& r = f.rcv;
  if (r.ack_timer_armed) return;
  r.ack_timer_armed = true;
  const std::uint64_t epoch = r.ack_epoch;
  f.ddom->After(cfg_.ack_delay,
                [this, fp = &f, epoch] { OnAckTimer(*fp, epoch); });
}

void Transport::OnAckTimer(Flow& f, std::uint64_t epoch) {
  ReceiverHalf& r = f.rcv;
  r.ack_timer_armed = false;
  if (r.rx_unacked == 0) return;
  if (epoch != r.ack_epoch) {
    // An eager ACK superseded this timer but packets arrived since; cover
    // the current batch with a fresh delay.
    ArmAckTimer(f);
    return;
  }
  SendAck(f, AckKind::kAck);
}

void Transport::ResetSenderHalf(SenderHalf& s, std::uint64_t gen) {
  s.gen = gen;
  s.error = false;
  s.next_psn = 0;
  s.base = 0;
  s.send_cursor = 0;
  s.high_water = 0;
  SilenceRto(s);
  s.consec_rtos = 0;
  s.rnr_attempts = 0;
  s.goback_armed = false;
  s.rnr_paused = false;
  s.known_received.Clear();
  s.retx_outstanding.Clear();
  assert(s.msgs.empty() && "flush before resetting the sender half");
  // ctr, rng, and limbo survive: counters are cumulative, the RNG stream
  // continues, and limbo waits for its fence echo.
}

void Transport::ResetReceiverHalf(ReceiverHalf& r, std::uint64_t gen,
                                  std::uint64_t ack_epoch) {
  r.gen = gen;
  r.expected = 0;
  r.rx_unacked = 0;
  r.ack_epoch = ack_epoch;
  r.ack_timer_armed = false;
  r.rx_ooo.Clear();
  r.rx_msgs.clear();
}

void Transport::AdoptGen(Flow& f, std::uint64_t gen) {
  ResetReceiverHalf(f.rcv, gen, f.rcv.ack_epoch + 1);
}

void Transport::Park(SenderHalf& s, MsgFailure why) {
  bool first = true;
  while (!s.msgs.empty()) {
    Message m = std::move(s.msgs.front());
    s.msgs.pop_front();
    m.why = first ? why : MsgFailure::kFlushed;
    first = false;
    s.limbo.push_back(std::move(m));
  }
}

void Transport::Fence(Flow& f) {
  // Only the echo releases the limbo — by then no event of the old
  // incarnation can be alive anywhere (everything it could schedule is
  // bounded by one crossing, and the fence + echo is two), so the caller
  // may reclaim per-message resources in on_failed.
  Cross(f.sdom, f.ddom, SNow(f) + fabric_.OneWay(f.src, f.dst),
        [this, fp = &f, gen = f.snd.gen](Nanos at) {
          OnFenceIngress(*fp, at, gen);
        });
}

void Transport::OnFenceIngress(Flow& f, Nanos at, std::uint64_t gen) {
  if (gen > f.rcv.gen) AdoptGen(f, gen);
  // Echo unconditionally: the newest fence's echo must always come back to
  // flush the limbo, and stale echoes die on the gen check.
  Cross(f.ddom, f.sdom, at + fabric_.OneWay(f.dst, f.src),
        [this, fp = &f, gen](Nanos) { OnFenceEcho(*fp, gen); });
}

void Transport::OnFenceEcho(Flow& f, std::uint64_t gen) {
  SenderHalf& s = f.snd;
  if (gen != s.gen) return;  // a newer fence owns the flush
  // The message under an exhausted budget carries the reason; everything
  // queued behind it flushes. on_failed is the *only* hook fired — a
  // delivered-but-unacked message is indistinguishable from an undelivered
  // one at the requester, exactly the IB ambiguity ERROR state models.
  while (!s.limbo.empty()) {
    Message m = std::move(s.limbo.front());
    s.limbo.pop_front();
    ++s.ctr.messages_failed;
    if (m.on_failed) m.on_failed(SNow(f), m.why);
  }
}

void Transport::FailFlow(Flow& f, MsgFailure why) {
  SenderHalf& s = f.snd;
  if (s.error) return;
  s.error = true;
  ++s.gen;  // in-flight packets, ACKs, and timers of this life die
  SilenceRto(s);
  s.rnr_paused = false;
  s.goback_armed = false;
  s.known_received.Clear();
  s.retx_outstanding.Clear();
  if (why == MsgFailure::kRetryExceeded) {
    ++s.ctr.retry_exhausted;
  } else {
    ++s.ctr.rnr_exhausted;
  }
  Park(s, why);
  Fence(f);
}

void Transport::ResetFlow(int flow) {
  Flow& f = *flows_[static_cast<std::size_t>(flow)];
  AssertOn(f.sdom);
  SenderHalf& s = f.snd;
  // Park the queue (an errored flow parked everything in FailFlow), restart
  // the sender half now, and fence with the NEW incarnation — its echo
  // flushes the limbo, including anything parked by an earlier FailFlow
  // whose own echo lost the race. Epochs and the generation survive the
  // reset monotonically so events of the old incarnation never match.
  Park(s, MsgFailure::kFlushed);
  ResetSenderHalf(s, s.gen + 1);
  ++s.ctr.flow_resets;
  Fence(f);
}

}  // namespace redn::sim
