// Shared test fixture: a simulator, two back-to-back nodes, and helpers for
// registering buffers and connecting QPs — the shape of the paper's testbed.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "rnic/device.h"
#include "sim/simulator.h"
#include "verbs/verbs.h"

namespace redn::test {

using rnic::Calibration;
using rnic::CompletionQueue;
using rnic::NicConfig;
using rnic::QueuePair;
using rnic::QpConfig;
using rnic::RnicDevice;

struct Buffer {
  std::unique_ptr<std::byte[]> data;
  rnic::MemoryRegion mr;

  std::uint64_t addr() const { return rnic::dma::AddrOf(data.get()); }
  std::uint32_t lkey() const { return mr.lkey; }
  std::uint32_t rkey() const { return mr.rkey; }
  std::byte* bytes() { return data.get(); }

  void Fill(std::uint8_t v, std::size_t n) { std::memset(data.get(), v, n); }
  std::uint64_t U64(std::size_t i = 0) const {
    return rnic::dma::ReadU64(addr() + i * 8);
  }
  void SetU64(std::size_t i, std::uint64_t v) {
    rnic::dma::WriteU64(addr() + i * 8, v);
  }
};

class TestBed {
 public:
  explicit TestBed(NicConfig cfg = NicConfig::ConnectX5(),
                   Calibration cal = Calibration{})
      : client(sim, cfg, cal, "client"), server(sim, cfg, cal, "server") {}

  sim::Simulator sim;
  RnicDevice client;
  RnicDevice server;

  Buffer Alloc(RnicDevice& dev, std::size_t size,
               std::uint32_t access = rnic::kAccessAll) {
    Buffer b;
    b.data = std::make_unique<std::byte[]>(size);
    std::memset(b.data.get(), 0, size);
    b.mr = dev.pd().Register(b.data.get(), size, access);
    return b;
  }

  // Copies `sges` into a buffer registered on `dev` and points `wr` (a
  // SendWr or RecvWr) at it: the table, its entry count and its lkey. The
  // caller keeps the returned buffer alive until the WR has executed.
  template <class Wr>
  Buffer SetSgeTable(Wr& wr, RnicDevice& dev,
                     const std::vector<rnic::Sge>& sges) {
    Buffer table = Alloc(dev, sges.size() * sizeof(rnic::Sge));
    std::memcpy(table.bytes(), sges.data(), sges.size() * sizeof(rnic::Sge));
    wr.sge_table = reinterpret_cast<const rnic::Sge*>(table.bytes());
    wr.sge_count = static_cast<std::uint32_t>(sges.size());
    wr.lkey = table.lkey();
    return table;
  }

  // A connected pair of QPs across the wire (client-side first).
  std::pair<QueuePair*, QueuePair*> ConnectedPair(bool server_managed = false,
                                                  std::uint32_t depth = 256) {
    QpConfig c;
    c.sq_depth = depth;
    c.rq_depth = depth;
    c.send_cq = client.CreateCq();
    c.recv_cq = client.CreateCq();
    QueuePair* cq = client.CreateQp(c);
    QpConfig s;
    s.sq_depth = depth;
    s.rq_depth = depth;
    s.managed = server_managed;
    s.send_cq = server.CreateCq();
    s.recv_cq = server.CreateCq();
    QueuePair* sq = server.CreateQp(s);
    rnic::Connect(cq, sq, Calibration{}.net_one_way);
    return {cq, sq};
  }

  // A loopback QP on `dev` (RedN chain style).
  QueuePair* Loopback(RnicDevice& dev, bool managed = false,
                      std::uint32_t depth = 256) {
    QpConfig c;
    c.sq_depth = depth;
    c.rq_depth = depth;
    c.managed = managed;
    c.send_cq = dev.CreateCq();
    c.recv_cq = dev.CreateCq();
    QueuePair* qp = dev.CreateQp(c);
    rnic::ConnectSelf(qp);
    return qp;
  }
};

}  // namespace redn::test
