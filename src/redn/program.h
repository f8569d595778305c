// RedN program builder: the paper's Turing-complete abstractions (§3).
//
// A RedN program is a set of RDMA chains pre-posted across work queues:
//  - one non-managed, loopback *control* queue carrying the orchestration
//    verbs (WAIT / ENABLE / CAS / ADD) — these are never self-modified, so
//    prefetch staleness cannot hurt them;
//  - one or more *managed* (doorbell-ordered) chain queues holding the WRs
//    that get rewritten at runtime (by RECV scatter, READ scatter, WRITEs,
//    or CAS on their ctrl words). Managed queues are fetched one WQE at a
//    time, only when ENABLEd, so modifications are always honoured.
//
// Every RedN construct is emitted here, and the offloads are built from
// them. Costs count C copy, A atomic and E WAIT/ENABLE verbs, as Table 2
// does; "all four" are the hash get (Fig 9), the array search (Figs 5/6),
// the list traversal (Fig 12) and the conditional RPC (Fig 4).
//
//   construct        what it posts                        cost        used by
//   ---------------  -----------------------------------  ----------  ----------
//   conditional      CAS {NOOP, x} -> {op, x} on a WR's   1A          all four
//   (OpcodeCas)      ctrl word, on the control queue or
//                    a chain queue
//   step (Steps,     ENABLE the first WR; per later WR,   1E, +2E     all four,
//   WaitFor,         WAIT until the one before it         per later   MovMachine
//   Release)         retired, then ENABLE it              WR
//   if               WAIT(trigger); CAS; WAIT(CAS);       1A + 3E     Fig 4 RPC
//   (EmitEqualIf)    ENABLE(target)                       + 1C target
//   break (Break)    a NOOP a CAS turns into a WRITE of   1C          Figs 6, 12
//                    a 24-byte header over a response WR
//   trigger inject   a RECV whose scatter list drops the  1 RECV      all four
//   (TriggerRecv)    trigger message into WR fields
//   unrolled loop    per iteration: response, READ, CAS,  2C+1A+5E,   Figs 5/6,
//   (UnrolledLoop)   [break WR], gate, steps; the first   3C+1A+8E    12
//                    gates on the trigger (+1E)           with break
//
// Conditionals (§3.3) follow Fig 4: a CAS compares the 64-bit ctrl word of a
// chain WQE — {opcode=NOOP, id=x} — against {NOOP, y} and, on equality,
// swaps in {WRITE, y}.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "rnic/device.h"
#include "verbs/verbs.h"

namespace redn::core {

using rnic::CompletionQueue;
using rnic::Opcode;
using rnic::QueuePair;
using rnic::Sge;
using rnic::WqeField;

// Handle to a posted (not yet executed) work request; exposes the field
// addresses other verbs use to rewrite it.
struct WrRef {
  QueuePair* qp = nullptr;
  std::uint64_t idx = 0;
  // The count `qp`'s send CQ reaches when this WR retires (Program::Post
  // records it); 0 for an unsignaled WR, whose retirement no WAIT can see.
  std::uint64_t retired_at = 0;

  std::uint64_t FieldAddr(WqeField f) const { return qp->sq.SlotAddr(idx, f); }
  // A scatter entry that drops `bytes` into field `f` of this WR.
  Sge FieldSge(WqeField f, std::uint32_t bytes = 8) const {
    return Sge{FieldAddr(f), bytes, qp->sq_mr.lkey};
  }
  std::uint32_t CodeRkey() const { return qp->sq_mr.rkey; }
  bool valid() const { return qp != nullptr; }
};

// WR budget of a program, in the units of Table 2: C copy verbs, A atomic
// verbs, E WAIT/ENABLE verbs.
struct WrBudget {
  int copy = 0;
  int atomics = 0;
  int sync = 0;
  int total() const { return copy + atomics + sync; }
};

class Program {
 public:
  // `control_depth` must hold every orchestration WR the program has posted
  // but not yet executed: a chain armed for its whole run needs them all,
  // one refilled from a window (HashGetOffload::ArmAhead) only the window's.
  explicit Program(rnic::RnicDevice& dev, int port = 0,
                   std::uint32_t control_depth = 4096);

  rnic::RnicDevice& dev() { return dev_; }
  QueuePair* control() { return control_; }
  CompletionQueue* control_cq() { return control_->send_cq; }

  // Creates a managed, loopback chain queue with its own send CQ.
  QueuePair* NewChainQueue(std::uint32_t depth = 256) {
    return NewQueue(depth, true);
  }
  // Creates a non-managed loopback queue (for parallel un-modified workers).
  QueuePair* NewPlainQueue(std::uint32_t depth = 256) {
    return NewQueue(depth, false);
  }

  // Posts a WR (no doorbell), tracks the WR budget and per-CQ signal
  // count, and records a signaled WR's retired_at.
  WrRef Post(QueuePair* q, const verbs::SendWr& wr);

  // Points `wr` (a SendWr or RecvWr) at an arena copy of the SGE table
  // `sges`, stable storage the NIC reads late, and sets wr.lkey to the key
  // it is registered under for local read. Tables are carved from fixed
  // chunks, so a pre-armed chain costs no heap allocation per table.
  template <class Wr>
  void SetSgeTable(Wr& wr, std::span<const Sge> sges) {
    wr.sge_table = CarveSgeTable(sges, &wr.lkey);
    wr.sge_count = static_cast<std::uint32_t>(sges.size());
  }

  // --- control-queue emitters ----------------------------------------------
  // A signaled WAIT also delivers a CQE to the control CQ when it
  // completes, for a host hook there to wake on. It reserves no more NIC
  // time than an unsignaled one.
  WrRef Wait(CompletionQueue* cq, std::uint64_t count, bool signaled = false);
  WrRef Enable(QueuePair* q, std::uint64_t limit);
  // The conditional: CAS on `target`'s ctrl word, {from, operand} ->
  // {to, operand}, posted signaled on `q` (default: the control queue), so
  // a WAIT can order the ENABLE of `target` after it. On a managed chain
  // queue the CAS itself waits for an ENABLE, and a trigger RECV can still
  // patch its compare word (operand 0 leaves that word for the RECV).
  WrRef OpcodeCas(WrRef target, std::uint64_t operand, Opcode from, Opcode to,
                  QueuePair* q = nullptr);
  // ADD on an arbitrary 8-byte word (e.g. a WAIT threshold field, for WQ
  // recycling).
  WrRef FetchAdd(std::uint64_t addr, std::uint32_t rkey, std::uint64_t delta);

  // WAIT until `wr` retires. Throws std::invalid_argument for an
  // unsignaled WR: no completion count ever reflects it.
  WrRef WaitFor(WrRef wr);
  // ENABLE `wr`'s managed queue up to and including `wr`.
  WrRef Release(WrRef wr) { return Enable(wr.qp, wr.idx + 1); }
  // Doorbell-ordered steps: releases each WR only once the one before it
  // retired, so each sees every rewrite its predecessors made.
  void Steps(std::initializer_list<WrRef> wrs);

  // The canonical `if` glue (Table 2: 1A + 3E around the 1C target):
  //   WAIT(trigger);  CAS(target.ctrl);  WAIT(cas done);  ENABLE(target+1)
  // Returns the CAS ref.
  WrRef EmitEqualIf(CompletionQueue* trigger_cq, std::uint64_t trigger_count,
                    WrRef target, std::uint64_t operand, Opcode then_op);

  // The break WR (Fig 6): a signaled NOOP on `q` that a CAS may promote to
  // a WRITE of the 24-byte header template it writes to `tmpl` over
  // `target`'s header: ctrl {then_op, 0}, `target`'s own remote address
  // and rkey, flags 0. `target` then fires as then_op and, now unsignaled,
  // never feeds a gate that waits for it to retire.
  WrRef Break(QueuePair* q, WrRef target, Opcode then_op, const Sge& tmpl);

  // Trigger injection: posts on `q`'s RQ a RECV whose scatter list (an
  // arena table) drops the trigger message into `injections`, in order.
  void TriggerRecv(QueuePair* q, std::span<const Sge> injections,
                   std::uint64_t wr_id = 0);

  // Rings the control queue's doorbell (programs pre-posted on managed
  // queues start executing only when the control chain reaches them).
  void Launch();

  // The count `cq` reaches once every signaled WR this program posted to
  // it retired: its hardware count when the program first posted a
  // signaled WR there (every earlier WR on it must have retired by then),
  // plus the signaled WRs posted since. RECV completions are tracked by
  // the caller.
  std::uint64_t SignalsPosted(const CompletionQueue* cq) const;

  const WrBudget& budget() const { return budget_; }
  // Resets budget accounting (to measure one construct in isolation).
  void ResetBudget() { budget_ = WrBudget{}; }

  // Tags every queue this program owns (control + chains) with an owning
  // process id, for the §5.6 resource-reclamation experiments.
  void SetOwner(int pid);

  // Tears the program down: every owned queue dies (RnicDevice::Kill) and
  // stops executing, the way a real chain dies when its QPs are destroyed.
  // Stalled WAITs are abandoned rather than left to resurrect when shared
  // CQ counts move.
  void Abort();

 private:
  // A loopback queue with its own CQs, owned by this program.
  QueuePair* NewQueue(std::uint32_t depth, bool managed);
  // Copies `sges` into the arena and returns the copy; `*lkey` gets the key
  // of the chunk holding it.
  const Sge* CarveSgeTable(std::span<const Sge> sges, std::uint32_t* lkey);
  // `cq`'s entry in signals_, created at its hardware count on first use.
  std::uint64_t& SignalCount(const CompletionQueue* cq);

  rnic::RnicDevice& dev_;
  int port_;
  std::vector<QueuePair*> owned_;
  QueuePair* control_;
  // SGE table arena: chunks never move and a table never straddles two.
  static constexpr std::size_t kSgeChunk = 1024;
  std::vector<std::unique_ptr<Sge[]>> sge_chunks_;
  std::size_t sge_used_ = 0;   // entries taken from the newest chunk
  std::size_t sge_cap_ = 0;    // entries in the newest chunk
  std::uint32_t sge_lkey_ = 0;  // the newest chunk's key
  // Signaled WRs posted per CQ. A program touches only a few CQs, so a
  // linear scan beats hashing.
  std::vector<std::pair<const CompletionQueue*, std::uint64_t>> signals_;
  WrBudget budget_;
};

// The unrolled search loop of Figs 5, 6 and 12: iteration i runs
//   if (x == key_i) { respond_i; [break;] }
// on the NIC. Iteration i posts, in order:
//   resp_qp : its response, a NOOP a hit promotes to WRITE_IMM (imm 1) of
//             the iteration's payload to the loop's response target;
//             signaled only with break, where a miss feeds the next gate;
//   chain   : a READ of key_i that scatters its first 8 bytes into the
//             ctrl word the CAS tests (the response's, or the break WR's),
//             then the rest over the caller's scatter entries;
//             the CAS {NOOP, x} -> WRITE_IMM (WRITE for the break WR);
//             with break, the break WR over the response (Program::Break);
//   control : the gate, then Steps(READ, CAS, [break WR], response).
//             Iteration 0 gates on the trigger RECV; with break each later
//             one gates on its predecessor's response retiring as a miss,
//             so a hit stops the loop.
// The trigger RECV (PostTrigger) injects x into every CAS compare word.
class UnrolledLoop {
 public:
  // With `break_templates` (24 bytes per iteration) the loop breaks.
  UnrolledLoop(Program& prog, QueuePair* chain, QueuePair* resp_qp,
               std::uint64_t resp_addr, std::uint32_t resp_rkey,
               const Sge* break_templates = nullptr);

  // The chain slot iteration `i`'s READ takes (for a scatter entry that
  // patches a later READ).
  WrRef ReadSlot(int i) const {
    return WrRef{chain_, first_read_ + static_cast<std::uint64_t>(i) *
                                           (templates_.length > 0 ? 3u : 2u)};
  }

  // Posts the next iteration. Its response sends `payload`; its READ
  // fetches `read_len` bytes from (read_addr, read_rkey) — 0 when a RECV
  // or an earlier READ patches the address in — and scatters all but the
  // key word over `scatter`.
  void Iterate(const Sge& payload, std::uint64_t read_addr,
               std::uint32_t read_rkey, std::uint32_t read_len,
               std::span<const Sge> scatter = {});

  // Posts the trigger RECV: x into every iteration's CAS compare word, in
  // order, then into `tail`.
  void PostTrigger(std::span<const Sge> tail = {});

 private:
  Program& prog_;
  QueuePair* chain_;
  QueuePair* resp_qp_;
  std::uint64_t resp_addr_;
  std::uint32_t resp_rkey_;
  Sge templates_;  // length 0: no break
  std::uint64_t first_read_;
  int iterations_ = 0;
  WrRef prev_response_;
  Sge injections_[rnic::kMaxSges];  // the CAS compare words, in order
};

}  // namespace redn::core
