#include "rnic/queues.h"

#include <algorithm>

namespace redn::rnic {

const char* WcStatusName(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess: return "SUCCESS";
    case WcStatus::kLocalAccessError: return "LOCAL_ACCESS_ERROR";
    case WcStatus::kRemoteAccessError: return "REMOTE_ACCESS_ERROR";
    case WcStatus::kRnrError: return "RNR_ERROR";
    case WcStatus::kAlignmentError: return "ALIGNMENT_ERROR";
    case WcStatus::kBadOpcode: return "BAD_OPCODE";
    case WcStatus::kRetryExcError: return "RETRY_EXC_ERR";
    case WcStatus::kRnrRetryExcError: return "RNR_RETRY_EXC_ERR";
    case WcStatus::kWrFlushError: return "WR_FLUSH_ERR";
  }
  return "UNKNOWN";
}

namespace {
// Min-heap on (threshold, seq): std::*_heap are max-heaps, so "later" wins.
struct WaiterLater {
  bool operator()(const CompletionQueue::Waiter& a,
                  const CompletionQueue::Waiter& b) const {
    if (a.threshold != b.threshold) return a.threshold > b.threshold;
    return a.seq > b.seq;
  }
};
}  // namespace

void CompletionQueue::AddWaiter(WorkQueue* wq, std::uint64_t threshold) {
  waiters_.push_back(Waiter{threshold, next_waiter_seq_++, wq});
  std::push_heap(waiters_.begin(), waiters_.end(), WaiterLater{});
}

const std::vector<WorkQueue*>& CompletionQueue::BumpHwCount() {
  ++hw_count_;
  ready_scratch_.clear();  // keeps capacity: no allocation in steady state
  while (!waiters_.empty() && waiters_.front().threshold <= hw_count_) {
    std::pop_heap(waiters_.begin(), waiters_.end(), WaiterLater{});
    ready_scratch_.push_back(waiters_.back().wq);
    waiters_.pop_back();
  }
  return ready_scratch_;
}

int CompletionQueue::Poll(sim::Nanos now, int max, Cqe* out) {
  int n = 0;
  while (n < max && !host_entries_.empty() && host_entries_.front().first <= now) {
    out[n++] = host_entries_.front().second;
    host_entries_.pop_front();
  }
  return n;
}

void WorkQueue::Init(QueuePair* qp, bool is_send, std::byte* slots,
                     std::uint32_t capacity, bool managed, CompletionQueue* cq,
                     int pu_index, ProtectionDomain& pd) {
  qp_ = qp;
  is_send_ = is_send;
  slots_ = slots;
  pd_ = &pd;
  capacity_ = capacity;
  managed_ = managed;
  cq_ = cq;
  pu_index_ = pu_index;
  // Receive WQEs are loaded live at consumption (RnicDevice::AcceptSend),
  // never fetched or snapshotted, so only send queues keep decoded images.
  if (is_send) images_.assign(capacity, WqeImage{});
}

}  // namespace redn::rnic
