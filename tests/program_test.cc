// Tests for the RedN program builder and the `if` construct (Fig 4).
#include <gtest/gtest.h>

#include <stdexcept>

#include "redn/program.h"
#include "testbed.h"

namespace redn::test {
namespace {

using core::Program;
using core::WrRef;
using rnic::Opcode;
using verbs::MakeNoop;
using verbs::MakeWrite;
using verbs::PostSend;

class ProgramTest : public ::testing::Test {
 protected:
  TestBed bed;
};

// Builds the Fig 4 `if (x == y) send(1) else send(0)` offload and runs it.
// `x` arrives injected into the target WR's id field; `y` is baked into the
// CAS compare operand at build time. Returns the value the "client" sees.
std::uint64_t RunEqualIf(TestBed& bed, std::uint64_t x, std::uint64_t y) {
  Program prog(bed.server);
  rnic::QueuePair* chain = prog.NewChainQueue();
  Buffer one = bed.Alloc(bed.server, 8);
  Buffer reply = bed.Alloc(bed.server, 8);
  one.SetU64(0, 1);
  reply.SetU64(0, 0);

  // R2: NOOP that the CAS may flip into a WRITE of 1 into `reply`.
  verbs::SendWr r2 =
      MakeWrite(one.addr(), 8, one.lkey(), reply.addr(), reply.rkey());
  r2.opcode = Opcode::kNoop;
  r2.wr_id = x;  // "injected" argument: the id field stores x
  WrRef target = prog.Post(chain, r2);

  // Trigger: a signaled NOOP on a plain queue stands in for the RPC RECV.
  rnic::QueuePair* trig = prog.NewPlainQueue();
  verbs::PostSend(trig, MakeNoop());

  prog.EmitEqualIf(trig->send_cq, 1, target, y, Opcode::kWrite);
  prog.Launch();
  verbs::RingDoorbell(trig);
  bed.sim.Run();
  return reply.U64(0);
}

TEST_F(ProgramTest, EqualIfTakenBranch) {
  EXPECT_EQ(RunEqualIf(bed, 5, 5), 1u);
}

TEST_F(ProgramTest, EqualIfNotTakenBranch) {
  EXPECT_EQ(RunEqualIf(bed, 5, 7), 0u);
}

TEST_F(ProgramTest, EqualIfBudgetMatchesTable2) {
  // Table 2: if = 1 copy + 1 atomic + 3 WAIT/ENABLE.
  Program prog(bed.server);
  rnic::QueuePair* chain = prog.NewChainQueue();
  Buffer buf = bed.Alloc(bed.server, 16);
  prog.ResetBudget();
  verbs::SendWr r2 = MakeWrite(buf.addr(), 8, buf.lkey(), buf.addr() + 8,
                               buf.rkey());
  r2.opcode = Opcode::kNoop;
  WrRef target = prog.Post(chain, r2);
  prog.EmitEqualIf(prog.control_cq(), 0, target, 42, Opcode::kWrite);
  EXPECT_EQ(prog.budget().copy, 1);
  EXPECT_EQ(prog.budget().atomics, 1);
  EXPECT_EQ(prog.budget().sync, 3);
}

TEST_F(ProgramTest, EqualIfOperandBoundary48Bits) {
  // Operands are 48-bit (§3.5); the top bits share the word with the opcode.
  const std::uint64_t max_operand = (1ULL << 48) - 1;
  EXPECT_EQ(RunEqualIf(bed, max_operand, max_operand), 1u);
  EXPECT_EQ(RunEqualIf(bed, max_operand, max_operand - 1), 0u);
}

TEST_F(ProgramTest, EqualIfZeroOperand) {
  EXPECT_EQ(RunEqualIf(bed, 0, 0), 1u);
}

TEST_F(ProgramTest, ChainedCasExtendsOperandWidth) {
  // §3.5: operands wider than 48 bits are handled by chaining CAS verbs.
  // 96-bit equality via two 48-bit comparisons with AND semantics: the
  // first CAS promotes the *second CAS itself* from NOOP to CAS, so a
  // low-word mismatch leaves stage 2 inert and the WRITE never fires.
  auto run = [&](std::uint64_t x_lo, std::uint64_t x_hi, std::uint64_t y_lo,
                 std::uint64_t y_hi) {
    Program prog(bed.server);
    rnic::QueuePair* chain = prog.NewChainQueue();
    Buffer one = bed.Alloc(bed.server, 8);
    Buffer reply = bed.Alloc(bed.server, 8);
    one.SetU64(0, 1);

    // Final stage: NOOP(id = x_hi) that CAS2 may flip into the reply WRITE.
    // Posted second (chain slot 1) but constructed first conceptually.
    // Stage 2's CAS (chain slot 0) starts life as a NOOP(id = x_lo) carrying
    // full CAS operands; CAS1 promotes its opcode when x_lo == y_lo.
    const WrRef t2_future{chain, chain->sq.posted + 1};
    verbs::SendWr cas2 = verbs::MakeCas(
        t2_future.FieldAddr(rnic::WqeField::kCtrl), chain->sq_mr.rkey,
        rnic::PackCtrl(Opcode::kNoop, y_hi), rnic::PackCtrl(Opcode::kWrite, y_hi));
    cas2.opcode = Opcode::kNoop;  // inert until promoted by CAS1
    cas2.wr_id = x_lo;
    WrRef t1 = prog.Post(chain, cas2);

    verbs::SendWr r2 =
        MakeWrite(one.addr(), 8, one.lkey(), reply.addr(), reply.rkey());
    r2.opcode = Opcode::kNoop;
    r2.wr_id = x_hi;
    WrRef t2 = prog.Post(chain, r2);
    EXPECT_EQ(t2.idx, t2_future.idx);

    rnic::QueuePair* trig = prog.NewPlainQueue();
    verbs::PostSend(trig, MakeNoop());

    prog.Wait(trig->send_cq, 1);
    prog.OpcodeCas(t1, y_lo, Opcode::kNoop, Opcode::kCompSwap);
    prog.Wait(prog.control_cq(), prog.SignalsPosted(prog.control_cq()));
    prog.Enable(chain, 1);               // run stage-2 CAS (or inert NOOP)
    prog.Wait(chain->send_cq, 1);        // it completes either way
    prog.Enable(chain, 2);               // run the final WRITE (or NOOP)
    prog.Launch();
    verbs::RingDoorbell(trig);
    bed.sim.Run();
    return reply.U64(0);
  };
  EXPECT_EQ(run(1, 2, 1, 2), 1u);  // full 96-bit match fires
  EXPECT_EQ(run(1, 2, 1, 3), 0u);  // high-word mismatch blocked by CAS2
  EXPECT_EQ(run(9, 2, 1, 2), 0u);  // low-word mismatch blocks CAS2 itself
}

TEST_F(ProgramTest, WrBudgetCountsAllClasses) {
  Program prog(bed.server);
  rnic::QueuePair* chain = prog.NewChainQueue();
  Buffer buf = bed.Alloc(bed.server, 64);
  prog.ResetBudget();
  prog.Post(chain, MakeWrite(buf.addr(), 8, buf.lkey(), buf.addr() + 8,
                             buf.rkey()));
  prog.Post(chain, verbs::MakeRead(buf.addr(), 8, buf.lkey(), buf.addr() + 8,
                                   buf.rkey()));
  prog.FetchAdd(buf.addr(), buf.rkey(), 1);
  prog.Wait(prog.control_cq(), 1);
  prog.Enable(chain, 1);
  EXPECT_EQ(prog.budget().copy, 2);
  EXPECT_EQ(prog.budget().atomics, 1);
  EXPECT_EQ(prog.budget().sync, 2);
  EXPECT_EQ(prog.budget().total(), 5);
}

TEST_F(ProgramTest, SignalsPostedTracksPerCq) {
  Program prog(bed.server);
  rnic::QueuePair* chain = prog.NewChainQueue();
  EXPECT_EQ(prog.SignalsPosted(prog.control_cq()), 0u);
  prog.Post(prog.control(), MakeNoop());
  prog.Post(prog.control(), MakeNoop());
  prog.Post(chain, MakeNoop());
  EXPECT_EQ(prog.SignalsPosted(prog.control_cq()), 2u);
  EXPECT_EQ(prog.SignalsPosted(chain->send_cq), 1u);
}

TEST_F(ProgramTest, WaitForNeedsASignaledWr) {
  Program prog(bed.server);
  rnic::QueuePair* chain = prog.NewChainQueue();
  const WrRef silent = prog.Post(chain, MakeNoop(/*signaled=*/false));
  const WrRef loud = prog.Post(chain, MakeNoop());
  EXPECT_EQ(silent.retired_at, 0u);
  EXPECT_EQ(loud.retired_at, 1u);
  EXPECT_THROW(prog.WaitFor(silent), std::invalid_argument);
  prog.ResetBudget();
  prog.WaitFor(loud);
  EXPECT_EQ(prog.budget().sync, 1);
}

TEST_F(ProgramTest, RetirementCountsStartAtTheCqsHardwareCount) {
  // A queue the program did not create may already have completions.
  Program prog(bed.server);
  rnic::QueuePair* q = prog.NewPlainQueue();
  verbs::PostSendNow(q, MakeNoop());
  bed.sim.Run();
  ASSERT_EQ(q->send_cq->hw_count(), 1u);
  EXPECT_EQ(prog.Post(q, MakeNoop()).retired_at, 2u);
  EXPECT_EQ(prog.SignalsPosted(q->send_cq), 2u);
}

TEST_F(ProgramTest, WaitAndEnableAreUnsignaledByDefault) {
  Program prog(bed.server);
  rnic::QueuePair* chain = prog.NewChainQueue();
  prog.Wait(prog.control_cq(), 0);
  prog.Enable(chain, 0);
  EXPECT_EQ(prog.SignalsPosted(prog.control_cq()), 0u);
}

}  // namespace
}  // namespace redn::test
