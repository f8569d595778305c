#include "offloads/rpc.h"

#include <cassert>
#include <cstring>

#include "verbs/verbs.h"

namespace redn::offloads {

using rnic::Opcode;
using rnic::WqeField;

EchoRpcOffload::EchoRpcOffload(rnic::RnicDevice& server, QueuePair* client_qp,
                               std::uint32_t msg_bytes, int n,
                               std::uint64_t resp_addr, std::uint32_t resp_rkey)
    : prog_(server, 0, /*control_depth=*/4u * n + 64) {
  assert(client_qp->sq.managed());
  bufs_ = std::make_unique<std::byte[]>(std::size_t(n) * msg_bytes);
  mr_ = server.pd().Register(bufs_.get(), std::size_t(n) * msg_bytes,
                             rnic::kAccessAll);

  for (int r = 0; r < n; ++r) {
    const std::uint64_t echo_buf = mr_.addr + std::uint64_t(r) * msg_bytes;
    // RECV drops the request payload into this request's echo buffer.
    verbs::RecvWr rwr;
    rwr.local_addr = echo_buf;
    rwr.length = msg_bytes;
    rwr.lkey = mr_.lkey;
    verbs::PostRecv(client_qp, rwr);

    // Pre-posted response: WRITE_IMM the echo buffer back.
    verbs::SendWr resp;
    resp.opcode = Opcode::kWriteImm;
    resp.signaled = false;
    resp.local_addr = echo_buf;
    resp.length = msg_bytes;
    resp.lkey = mr_.lkey;
    resp.remote_addr = resp_addr;
    resp.rkey = resp_rkey;
    resp.imm = static_cast<std::uint32_t>(r + 1);
    WrRef ref = prog_.Post(client_qp, resp);

    // Release on trigger arrival.
    prog_.Wait(client_qp->recv_cq, static_cast<std::uint64_t>(r + 1));
    prog_.Release(ref);
  }
  prog_.Launch();
}

void CondRpcOffload::BuildTrigger(std::uint64_t x, std::byte* out) {
  const std::uint64_t packed = rnic::PackCtrl(Opcode::kNoop, x);
  std::memcpy(out, &packed, 8);
}

CondRpcOffload::CondRpcOffload(rnic::RnicDevice& server, QueuePair* client_qp,
                               std::uint64_t y, int n, std::uint64_t resp_addr,
                               std::uint32_t resp_rkey)
    : prog_(server, 0, /*control_depth=*/8u * n + 64) {
  assert(client_qp->sq.managed());
  chain_ = prog_.NewChainQueue(2u * n + 16);
  // Per request: one answer word (starts 0); plus one shared constant 1.
  bufs_ = std::make_unique<std::byte[]>(std::size_t(n) * 8 + 8);
  std::memset(bufs_.get(), 0, std::size_t(n) * 8 + 8);
  mr_ = server.pd().Register(bufs_.get(), std::size_t(n) * 8 + 8,
                             rnic::kAccessAll);
  const std::uint64_t one_addr = mr_.addr + std::uint64_t(n) * 8;
  rnic::dma::WriteU64(one_addr, 1);

  for (int r = 0; r < n; ++r) {
    const std::uint64_t ans = mr_.addr + std::uint64_t(r) * 8;

    // R2: NOOP -> (on x == y) WRITE of the constant 1 over the answer word.
    // The trigger RECV injects PackCtrl(NOOP, x) into its ctrl word.
    verbs::SendWr r2 = verbs::MakeWrite(one_addr, 8, mr_.lkey, ans, mr_.rkey);
    r2.opcode = Opcode::kNoop;
    WrRef cond = prog_.Post(chain_, r2);

    // R3: the response — sends the answer word either way.
    verbs::SendWr r3 = verbs::MakeWrite(ans, 8, mr_.lkey, resp_addr, resp_rkey,
                                        /*signaled=*/false);
    r3.opcode = Opcode::kWriteImm;
    r3.imm = static_cast<std::uint32_t>(r + 1);
    WrRef resp = prog_.Post(client_qp, r3);

    // Trigger RECV injects x into the conditional WR's id field.
    const rnic::Sge x_field = cond.FieldSge(WqeField::kCtrl);
    prog_.TriggerRecv(client_qp, {&x_field, 1});

    // Glue: trigger -> CAS(flip) -> conditional -> response.
    prog_.EmitEqualIf(client_qp->recv_cq, static_cast<std::uint64_t>(r + 1),
                      cond, y, Opcode::kWrite);
    prog_.WaitFor(cond);
    prog_.Release(resp);
  }
  prog_.Launch();
}

}  // namespace redn::offloads
