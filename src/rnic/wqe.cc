#include "rnic/wqe.h"

#include <cstring>

namespace redn::rnic {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kNoop: return "NOOP";
    case Opcode::kWrite: return "WRITE";
    case Opcode::kWriteImm: return "WRITE_IMM";
    case Opcode::kRead: return "READ";
    case Opcode::kSend: return "SEND";
    case Opcode::kSendImm: return "SEND_IMM";
    case Opcode::kRecv: return "RECV";
    case Opcode::kCompSwap: return "CAS";
    case Opcode::kFetchAdd: return "ADD";
    case Opcode::kCalcMax: return "MAX";
    case Opcode::kCalcMin: return "MIN";
    case Opcode::kWait: return "WAIT";
    case Opcode::kEnable: return "ENABLE";
    default: return "INVALID";
  }
}

void WqeView::Clear() {
  pd_->BeforeStore(addr(), kWqeSize);
  std::memset(base_, 0, kWqeSize);
}

}  // namespace redn::rnic
