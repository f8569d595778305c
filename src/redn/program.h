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
// Conditionals (§3.3) follow Fig 4: a CAS compares the 64-bit ctrl word of a
// chain WQE — {opcode=NOOP, id=x} — against {NOOP, y} and, on equality,
// swaps in {WRITE, y}. The construct costs 1 copy + 1 atomic + 3
// WAIT/ENABLE verbs, matching Table 2.
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

  std::uint64_t FieldAddr(WqeField f) const { return qp->sq.SlotAddr(idx, f); }
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
  QueuePair* NewChainQueue(std::uint32_t depth = 256);
  // Creates a non-managed loopback queue (for parallel un-modified workers).
  QueuePair* NewPlainQueue(std::uint32_t depth = 256);

  // Posts a WR (no doorbell) and tracks the WR budget + per-CQ signal count.
  WrRef Post(QueuePair* q, const verbs::SendWr& wr);

  // Arena-owned copy of a scatter/gather table (stable storage the NIC reads
  // late). Tables are carved from fixed chunks, so posting a pre-armed chain
  // costs no heap allocation per table.
  const Sge* MakeSgeTable(std::span<const Sge> sges);
  const Sge* MakeSgeTable(std::initializer_list<Sge> sges) {
    return MakeSgeTable(std::span<const Sge>(sges.begin(), sges.size()));
  }

  // --- control-queue emitters ----------------------------------------------
  // A signaled WAIT also delivers a CQE to the control CQ when it
  // completes, for a host hook there to wake on. It reserves no more NIC
  // time than an unsignaled one.
  WrRef Wait(CompletionQueue* cq, std::uint64_t count, bool signaled = false);
  WrRef Enable(QueuePair* q, std::uint64_t limit);
  // CAS on `target`'s ctrl word: {from, operand} -> {to, operand}. The
  // signaled completion lands on the control CQ so a WAIT can order the
  // ENABLE of `target` after it.
  WrRef OpcodeCas(WrRef target, std::uint64_t operand, Opcode from, Opcode to);
  // ADD on an arbitrary 8-byte word (e.g. a WAIT threshold field, for WQ
  // recycling).
  WrRef FetchAdd(std::uint64_t addr, std::uint32_t rkey, std::uint64_t delta);

  // The canonical `if` glue (Table 2: 1A + 3E around the 1C target):
  //   WAIT(trigger);  CAS(target.ctrl);  WAIT(cas done);  ENABLE(target+1)
  // Returns the CAS ref.
  WrRef EmitEqualIf(CompletionQueue* trigger_cq, std::uint64_t trigger_count,
                    WrRef target, std::uint64_t operand, Opcode then_op);

  // Rings the control queue's doorbell (programs pre-posted on managed
  // queues start executing only when the control chain reaches them).
  void Launch();

  // Number of signaled WRs posted so far whose completion lands on `cq`
  // (i.e. the threshold the *next* WAIT on that CQ should use, counting
  // from program start). RECV completions are tracked by the caller.
  std::uint64_t SignalsPosted(const CompletionQueue* cq) const;

  const WrBudget& budget() const { return budget_; }
  // Resets budget accounting (to measure one construct in isolation).
  void ResetBudget() { budget_ = WrBudget{}; }

  // Tags every queue this program owns (control + chains) with an owning
  // process id, for the §5.6 resource-reclamation experiments.
  void SetOwner(int pid);

  // Tears the program down: every owned queue stops executing (the way a
  // real chain dies when its QPs are destroyed). Stalled WAITs are
  // abandoned rather than left to resurrect when shared CQ counts move.
  void Abort();

 private:
  // `cq`'s entry in signals_, created at zero on first use.
  std::uint64_t& SignalCount(const CompletionQueue* cq);

  rnic::RnicDevice& dev_;
  int port_;
  QueuePair* control_ = nullptr;
  std::vector<QueuePair*> owned_;
  // SGE table arena: chunks never move and a table never straddles two.
  static constexpr std::size_t kSgeChunk = 1024;
  std::vector<std::unique_ptr<Sge[]>> sge_chunks_;
  std::size_t sge_used_ = 0;  // entries taken from the newest chunk
  std::size_t sge_cap_ = 0;   // entries in the newest chunk
  // Signaled WRs posted per CQ. A program touches only a few CQs, so a
  // linear scan beats hashing.
  std::vector<std::pair<const CompletionQueue*, std::uint64_t>> signals_;
  WrBudget budget_;
};

}  // namespace redn::core
