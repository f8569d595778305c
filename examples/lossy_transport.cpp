// Lossy-transport quickstart: one connection, a packet-eating wire, and
// loss recovery in either transport mode.
//
//   $ ./examples/lossy_transport               # go-back-N (the default)
//   $ ./examples/lossy_transport --mode sr     # selective repeat + SACK
//
// Walks through:
//   1. building a sim::Transport over a fabric and connecting QPs with
//      ConnectOverTransport (MTU packets + PSN sequencing + retransmission)
//   2. a clean 64 KiB write — segmentation and ACK coalescing only
//   3. the same write with the loss injector eating packets — the
//      completion arrives late but the data arrives exactly once, and the
//      transport counters show what the recovery cost (under --mode sr the
//      sack rtx column shows resends targeted at the missing PSN ranges
//      instead of window rewinds)
//   4. a stalled receiver: a SEND arrives before the responder is ready,
//      bounces as RNR NAKs, and lands once the requester's backed-off
//      retries outlast the stall — the counter trail shows each round
#include <cstdio>
#include <cstring>
#include <memory>

#include "rnic/device.h"
#include "sim/fabric.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "verbs/verbs.h"

using namespace redn;

namespace {

struct Bed {
  sim::Simulator sim;
  sim::Fabric fabric;
  std::unique_ptr<sim::Transport> transport;
  std::unique_ptr<rnic::RnicDevice> server;
  std::unique_ptr<rnic::RnicDevice> client;
  rnic::QueuePair* cq = nullptr;  // client side
  rnic::QueuePair* sq = nullptr;  // server side

  explicit Bed(const sim::TransportConfig& tcfg) {
    transport = std::make_unique<sim::Transport>(sim, fabric, tcfg);
    server = std::make_unique<rnic::RnicDevice>(
        sim, rnic::NicConfig::ConnectX5(), rnic::Calibration{}, "server");
    client = std::make_unique<rnic::RnicDevice>(
        sim, rnic::NicConfig::ConnectX5(), rnic::Calibration{}, "client");
    const sim::LinkSpec link{25.0, 125};
    server->AttachPort(0, fabric, link);
    client->AttachPort(0, fabric, link);
    auto make_qp = [](rnic::RnicDevice& dev) {
      rnic::QpConfig cfg;
      cfg.send_cq = dev.CreateCq();
      cfg.recv_cq = dev.CreateCq();
      return dev.CreateQp(cfg);
    };
    cq = make_qp(*client);
    sq = make_qp(*server);
    rnic::ConnectOverTransport(cq, sq, *transport);
  }
};

struct Run {
  double complete_us = 0;
  bool data_ok = false;
  sim::TransportCounters counters;
};

Run WriteOnce(double loss, sim::TransportMode mode) {
  sim::TransportConfig tcfg;
  tcfg.loss = loss;  // every link drops packets with this probability
  tcfg.rto = 50'000;
  tcfg.mode = mode;
  Bed bed(tcfg);

  constexpr std::size_t kLen = 64 << 10;  // 16 packets of 4096 B
  auto src = std::make_unique<std::byte[]>(kLen);
  auto dst = std::make_unique<std::byte[]>(kLen);
  std::memset(src.get(), 0x42, kLen);
  const auto ms = bed.client->pd().Register(src.get(), kLen, rnic::kAccessAll);
  const auto md = bed.server->pd().Register(dst.get(), kLen, rnic::kAccessAll);

  verbs::PostSendNow(bed.cq, verbs::MakeWrite(ms.addr, kLen, ms.lkey, md.addr,
                                              md.rkey));
  verbs::Cqe cqe;
  verbs::AwaitCqe(bed.sim, *bed.client, bed.cq->send_cq, &cqe);

  Run r;
  r.complete_us = sim::ToMicros(cqe.completed_at);
  r.data_ok = cqe.status == rnic::WcStatus::kSuccess &&
              std::memcmp(src.get(), dst.get(), kLen) == 0;
  r.counters = bed.transport->counters();
  return r;
}

// A SEND into a responder whose RECV processing is stalled: the transport
// bounces it with RNR NAKs and the requester backs off 4096ns << min_rnr_timer
// (doubling each consecutive NAK) until the receiver comes back.
bool StalledReceiverDemo(sim::TransportMode mode) {
  sim::TransportConfig tcfg;
  tcfg.mode = mode;
  tcfg.rnr_retry_count = 7;   // budget: consecutive NAKs before RNR_RETRY_EXC
  tcfg.min_rnr_timer = 4;     // first backoff 4096ns << 4 = 65.5 us
  Bed bed(tcfg);

  constexpr std::size_t kLen = 1024;
  auto src = std::make_unique<std::byte[]>(kLen);
  auto dst = std::make_unique<std::byte[]>(kLen);
  std::memset(src.get(), 0x5a, kLen);
  const auto ms = bed.client->pd().Register(src.get(), kLen, rnic::kAccessAll);
  const auto md = bed.server->pd().Register(dst.get(), kLen, rnic::kAccessAll);

  verbs::RecvWr rwr;
  rwr.local_addr = md.addr;
  rwr.length = kLen;
  rwr.lkey = md.lkey;
  verbs::PostRecv(bed.sq, rwr);
  // Fault injection: the next 2 inbound deliveries find the responder not
  // ready even though the RECV is posted.
  bed.server->StallRecvsFor(bed.sq, 2);

  verbs::PostSendNow(bed.cq, verbs::MakeSend(ms.addr, kLen, ms.lkey));
  verbs::Cqe cqe;
  verbs::AwaitCqe(bed.sim, *bed.client, bed.cq->send_cq, &cqe);

  const auto c = bed.transport->counters();
  std::printf("  stalled for 2 deliveries, rnr budget 7, min_rnr_timer 4:\n");
  std::printf("  %12s %12s %12s %12s %12s\n", "rnr naks", "backoffs",
              "rexmits", "complete us", "status");
  std::printf("  %12llu %12llu %12llu %12.2f %12s\n",
              static_cast<unsigned long long>(c.rnr_naks),
              static_cast<unsigned long long>(c.rnr_backoffs),
              static_cast<unsigned long long>(c.retransmits),
              sim::ToMicros(cqe.completed_at),
              cqe.status == rnic::WcStatus::kSuccess ? "ok" : "ERROR");
  const bool landed = cqe.status == rnic::WcStatus::kSuccess &&
                      std::memcmp(src.get(), dst.get(), kLen) == 0;
  return landed && c.rnr_naks == 2 && c.rnr_backoffs == 2;
}

}  // namespace

int main(int argc, char** argv) {
  sim::TransportMode mode = sim::TransportMode::kGoBackN;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = std::strcmp(argv[++i], "sr") == 0
                 ? sim::TransportMode::kSelectiveRepeat
                 : sim::TransportMode::kGoBackN;
    }
  }
  const char* mode_name =
      mode == sim::TransportMode::kSelectiveRepeat ? "sr" : "gbn";

  std::printf("64 KiB RDMA WRITE over the packetized transport "
              "(mtu 4096 -> 16 packets, 25 Gbps links, mode %s)\n\n",
              mode_name);
  std::printf("  %8s %12s %8s %10s %10s %10s %10s\n", "loss", "complete us",
              "data ok", "packets", "rexmits", "sack rtx", "timeouts");
  bool ok = true;
  double clean_us = 0;
  for (double loss : {0.0, 0.05, 0.20}) {
    const Run r = WriteOnce(loss, mode);
    if (loss == 0.0) clean_us = r.complete_us;
    ok = ok && r.data_ok;
    std::printf("  %7.0f%% %12.2f %8s %10llu %10llu %10llu %10llu\n",
                100.0 * loss, r.complete_us, r.data_ok ? "yes" : "NO",
                static_cast<unsigned long long>(r.counters.data_packets),
                static_cast<unsigned long long>(r.counters.retransmits),
                static_cast<unsigned long long>(r.counters.sack_retransmits),
                static_cast<unsigned long long>(r.counters.timeouts));
    if (loss > 0.0) {
      ok = ok && r.complete_us > clean_us && r.counters.PacketsLost() > 0;
    }
  }
  std::printf("\nEvery run lands the same bytes exactly once; loss only "
              "costs time (%s recovery + RTO tails).\n\n",
              mode == sim::TransportMode::kSelectiveRepeat
                  ? "SACK-targeted retransmission"
                  : "go-back-N retransmission");

  std::printf("Receiver-not-ready: SEND vs a stalled responder\n");
  ok = StalledReceiverDemo(mode) && ok;
  std::printf("\nThe SEND bounced twice (one RNR NAK per stalled delivery), "
              "backed off 65.5 then 131 us,\nand landed on the third try — "
              "with budget left from rnr_retry_count.\n");
  return ok ? 0 : 1;
}
