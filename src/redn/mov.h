// x86 `mov` emulation over RDMA verbs (paper Appendix A, Table 7).
//
// Dolan showed the x86 mov instruction alone is Turing complete; the paper
// completes its proof sketch by emulating every addressing mode Dolan needs
// with RDMA chains. This module implements those addressing modes as
// NIC-executed programs:
//
//   immediate  mov Rdst, C            WRITE from a constant pool
//   reg-to-reg mov Rdst, Rsrc         WRITE Rsrc -> Rdst
//   indirect   mov Rdst, [Rsrc]       WRITE #1 patches the source-address
//                                     attribute of WRITE #2 with the value
//                                     in Rsrc (doorbell ordering), then
//                                     WRITE #2 moves [Rsrc] into Rdst
//   indexed    mov Rdst, [Rsrc+Roff]  as indirect, plus an ADD that patches
//                                     the offset into the source address
//   stores     mov [Rdst], Rsrc       same patching on the destination side
//
// The machine owns a single registered memory arena holding the register
// file, the constant pool, and all data cells. One arena = one lkey/rkey,
// which is exactly the constraint real RDMA puts on patched addresses: a
// WQE's lkey is fixed at post time, so every address a register can point
// at must live inside the same memory region. (Dolan's machine has the
// same property — one flat address space.)
//
// Note: the paper lists WRITE-with-immediate for the immediate mode; in
// ibverbs the immediate travels to the remote CQE rather than to memory, so
// we use a WRITE from a per-instruction constant pool slot, which has the
// same effect (a constant reaching Rdst) with the same WR count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "redn/program.h"

namespace redn::core {

class MovMachine {
 public:
  // `registers` = number of 64-bit architectural registers; `cells` = data
  // memory words available through AllocCells.
  MovMachine(rnic::RnicDevice& dev, int registers, std::size_t cells = 4096);

  // --- register file access (host side; used for setup and inspection) ----
  std::uint64_t RegAddr(int r) const;
  std::uint64_t Reg(int r) const;
  void SetReg(int r, std::uint64_t v);

  // --- data memory (one flat registered arena) -----------------------------
  // Allocates `count` contiguous 64-bit cells; returns the address of the
  // first. Addresses are valid targets for indirect/indexed addressing.
  std::uint64_t AllocCells(std::size_t count);
  std::uint64_t Cell(std::uint64_t addr) const { return rnic::dma::ReadU64(addr); }
  void SetCell(std::uint64_t addr, std::uint64_t v) { rnic::dma::WriteU64(addr, v); }

  // --- instruction emitters (pre-posted; nothing executes until Run) ------
  void MovImmediate(int rdst, std::uint64_t constant);
  void MovReg(int rdst, int rsrc);
  void MovIndirectLoad(int rdst, int rsrc);           // Rdst = [Rsrc]
  void MovIndexedLoad(int rdst, int rsrc, int roff);  // Rdst = [Rsrc+Roff]
  void MovIndirectStore(int rdst_ptr, int rsrc);      // [Rdst_ptr] = Rsrc

  // Number of instructions emitted.
  int instruction_count() const { return instructions_; }
  const WrBudget& budget() const { return prog_.budget(); }

  // Launches everything emitted since the last Run and executes it on the
  // NIC; returns simulated execution time. Resumable: more instructions may
  // be emitted and Run called again.
  sim::Nanos Run();

 private:
  // Emits the ENABLE glue that releases chain WQEs up to `upto`, one by
  // one, each gated on the completion of the previous chain WQE.
  void ReleaseChain(std::uint64_t upto);
  // Completion-order barrier between dependent instructions.
  void Sequence();
  std::uint64_t PoolSlot(std::uint64_t value);

  rnic::RnicDevice& dev_;
  Program prog_;
  QueuePair* chain_;  // managed queue holding the patched WRITE/ADD WQEs
  std::unique_ptr<std::uint64_t[]> arena_;
  std::size_t arena_words_;
  std::size_t arena_used_ = 0;  // allocation cursor (words)
  int n_regs_;
  rnic::MemoryRegion arena_mr_;
  std::uint64_t released_ = 0;
  int instructions_ = 0;
};

}  // namespace redn::core
