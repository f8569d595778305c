// Shared network fabric: named endpoints (NIC ports) attached to a switch
// through full-duplex bandwidth-modeled links.
//
// The per-QP constant `net_one_way` latency models an uncontended point-to-
// point cable: links never queue and experiments cannot scale past one
// client per QP pair. The fabric replaces that with a shared-bottleneck
// model in the spirit of RDMA traffic generators: every endpoint owns a TX
// and an RX pipe (BandwidthResource), and a transfer src -> dst
//
//   1. serializes out of src's TX pipe (queueing behind src's own traffic),
//   2. propagates src.prop + switch_latency + dst.prop, then
//   3. serializes into dst's RX pipe (queueing behind *everyone else's*
//      traffic to dst — the N-clients-one-server congestion point).
//
// Store-and-forward at the switch is deliberate: arrival is when the last
// byte lands, so both serialization terms appear in latency, and the
// reservation model keeps this exact for FIFO service with zero extra
// events (see sim/resource.h).
//
// The fabric is a pure timing layer: it moves no bytes and knows nothing
// about verbs. Devices reserve the two halves of a transfer (ReserveTx,
// ReserveRx) and schedule delivery themselves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/resource.h"
#include "sim/sharded.h"
#include "sim/time.h"

namespace redn::sim {

// One attachment point (a NIC port's cable into the switch).
struct LinkSpec {
  double gbps = 92.0;       // full-duplex: TX and RX each at this rate
  Nanos propagation = 125;  // port <-> switch one-way latency
};

class Fabric {
 public:
  explicit Fabric(Nanos switch_latency = 0)
      : switch_latency_(switch_latency) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Plugs a new endpoint into the switch; returns its id. `domain` is the
  // event domain (shard) the owning device schedules on; when two endpoints
  // of the same coordinator land on different shards, the pair's one-way
  // latency becomes a lookahead floor for the conservative sync — and a
  // zero-latency cross-shard pair is rejected right here, at attach time,
  // because no lookahead window could ever cover it.
  int Attach(const LinkSpec& spec, std::string name = {},
             EventDomain* domain = nullptr) {
    if (domain != nullptr && domain->coordinator() != nullptr) {
      for (const Endpoint& other : eps_) {
        if (other.domain == nullptr || other.domain == domain ||
            other.domain->coordinator() != domain->coordinator()) {
          continue;
        }
        domain->coordinator()->SetLookaheadFloor(spec.propagation +
                                                 switch_latency_ + other.prop);
      }
    }
    eps_.push_back(Endpoint{BandwidthResource(spec.gbps),
                            BandwidthResource(spec.gbps), spec.propagation,
                            std::move(name), domain});
    return static_cast<int>(eps_.size()) - 1;
  }

  // The event domain endpoint `ep` was attached with (nullptr for
  // pre-sharding callers).
  EventDomain* domain(int ep) const { return eps_[ep].domain; }

  std::size_t endpoint_count() const { return eps_.size(); }
  const std::string& name(int ep) const { return eps_[ep].name; }
  Nanos switch_latency() const { return switch_latency_; }

  // Zero-byte one-way latency src -> dst (acks, tiny control messages).
  Nanos OneWay(int src, int dst) const {
    return eps_[src].prop + switch_latency_ + eps_[dst].prop;
  }

  // Pure serialization delay through an endpoint's pipe (no queueing).
  Nanos SerializationDelay(int ep, std::uint64_t bytes) const {
    return eps_[ep].tx.SerializationDelay(bytes);
  }

  // --- one side of the path at a time ---------------------------------------
  // A transfer src -> dst leaving at `t` reserves ReserveTx(src, t, bytes),
  // propagates OneWay(src, dst), then reserves ReserveRx(dst, ...): both
  // pipes advance their horizons, so concurrent transfers queue exactly
  // where real traffic would. The halves are separate calls because each
  // runs on its own endpoint's event domain (the device's fabric path
  // reserves RX at port arrival, possibly on another shard), and so the
  // packetized transport can model partial traversals: a packet eaten at
  // the sender's egress reserves TX only and never occupies the receiver's
  // pipe, while one dropped or corrupted at the receiver has already burned
  // both pipes' bandwidth.
  Nanos ReserveTx(int ep, Nanos t, std::uint64_t bytes) {
    return eps_[ep].tx.Reserve(t, bytes);
  }
  Nanos ReserveRx(int ep, Nanos t, std::uint64_t bytes) {
    return eps_[ep].rx.Reserve(t, bytes);
  }

  // --- utilisation / accounting (bottleneck reporting) ---------------------
  double TxUtilisation(int ep, Nanos window) const {
    return Util(eps_[ep].tx, window);
  }
  double RxUtilisation(int ep, Nanos window) const {
    return Util(eps_[ep].rx, window);
  }

 private:
  struct Endpoint {
    BandwidthResource tx;
    BandwidthResource rx;
    Nanos prop;
    std::string name;
    EventDomain* domain = nullptr;  // shard affinity of the owning device
  };

  // Fraction of [0, window] the pipe spent busy. A reservation extending
  // past `window` is truncated at the boundary (busy_time_before), and the
  // result is clamped to 1.0: a raw busy_time() / window quotient exceeds
  // 1.0 whenever the measurement window is shorter than the accumulated
  // busy time (e.g. a warmup-excluded window), which is a meaningless
  // utilisation.
  static double Util(const BandwidthResource& r, Nanos window) {
    if (window <= 0) return 0.0;
    const double u = static_cast<double>(r.busy_time_before(window)) /
                     static_cast<double>(window);
    return u > 1.0 ? 1.0 : u;
  }

  std::vector<Endpoint> eps_;
  Nanos switch_latency_;
};

}  // namespace redn::sim
