// gtest printers for the workload result structs. A failed whole-result
// EXPECT_EQ then prints every field by name (doubles at full precision),
// so a rerun that diverges shows which field moved instead of two raw
// byte dumps.
#pragma once

#include <ostream>

#include "workload/experiments.h"
#include "workload/kv_service.h"

namespace redn::workload {

#define REDN_PRINT_FIELD(f) *os << " " #f "=" << r.f

inline void PrintTo(const FabricScaleResult& r, std::ostream* os) {
  os->precision(17);
  *os << "{";
  REDN_PRINT_FIELD(gets);
  REDN_PRINT_FIELD(duration_us);
  REDN_PRINT_FIELD(gets_per_sec);
  REDN_PRINT_FIELD(avg_us);
  REDN_PRINT_FIELD(p50_us);
  REDN_PRINT_FIELD(p99_us);
  REDN_PRINT_FIELD(p999_us);
  REDN_PRINT_FIELD(server_tx_util);
  REDN_PRINT_FIELD(server_rx_util);
  REDN_PRINT_FIELD(events);
  REDN_PRINT_FIELD(heap_fallbacks);
  REDN_PRINT_FIELD(data_packets);
  REDN_PRINT_FIELD(retransmits);
  REDN_PRINT_FIELD(timeouts);
  REDN_PRINT_FIELD(packets_lost);
  REDN_PRINT_FIELD(acks);
  REDN_PRINT_FIELD(goodput_gbps);
  REDN_PRINT_FIELD(rto_fires);
  REDN_PRINT_FIELD(spurious_retransmits);
  REDN_PRINT_FIELD(sack_retransmits);
  REDN_PRINT_FIELD(error_cqes);
  REDN_PRINT_FIELD(qp_errors);
  REDN_PRINT_FIELD(qp_rearms);
  REDN_PRINT_FIELD(shards);
  REDN_PRINT_FIELD(mailbox_sends);
  REDN_PRINT_FIELD(sync_rounds);
  *os << " }";
}

inline void PrintTo(const KvTenantStats& r, std::ostream* os) {
  os->precision(17);
  *os << "{";
  REDN_PRINT_FIELD(gets);
  REDN_PRINT_FIELD(puts);
  REDN_PRINT_FIELD(detour_responses);
  REDN_PRINT_FIELD(reroutes);
  REDN_PRINT_FIELD(host_reissues);
  REDN_PRINT_FIELD(avg_us);
  REDN_PRINT_FIELD(p50_us);
  REDN_PRINT_FIELD(p99_us);
  REDN_PRINT_FIELD(p999_us);
  REDN_PRINT_FIELD(max_blip_us);
  *os << " }";
}

inline void PrintTo(const KvServiceResult& r, std::ostream* os) {
  os->precision(17);
  *os << "{";
  REDN_PRINT_FIELD(gets);
  REDN_PRINT_FIELD(unanswered);
  REDN_PRINT_FIELD(detour_responses);
  REDN_PRINT_FIELD(host_reissues);
  REDN_PRINT_FIELD(probes_sent);
  REDN_PRINT_FIELD(reroutes);
  REDN_PRINT_FIELD(heal_reissues);
  REDN_PRINT_FIELD(stale_responses);
  REDN_PRINT_FIELD(faults_applied);
  REDN_PRINT_FIELD(heals_applied);
  REDN_PRINT_FIELD(keys_visible);
  REDN_PRINT_FIELD(puts);
  REDN_PRINT_FIELD(acked_puts_full);
  REDN_PRINT_FIELD(degraded_acks);
  REDN_PRINT_FIELD(chain_forwards);
  REDN_PRINT_FIELD(put_retries);
  REDN_PRINT_FIELD(lost_acked_writes);
  REDN_PRINT_FIELD(ryw_violations);
  REDN_PRINT_FIELD(value_divergence);
  REDN_PRINT_FIELD(put_avg_us);
  REDN_PRINT_FIELD(put_p50_us);
  REDN_PRINT_FIELD(put_p99_us);
  REDN_PRINT_FIELD(put_p999_us);
  REDN_PRINT_FIELD(rejoins);
  REDN_PRINT_FIELD(resyncs_started);
  REDN_PRINT_FIELD(resync_keys_scanned);
  REDN_PRINT_FIELD(resync_keys_applied);
  REDN_PRINT_FIELD(resync_keys_kept);
  REDN_PRINT_FIELD(resync_bytes);
  REDN_PRINT_FIELD(resync_failures);
  REDN_PRINT_FIELD(degraded_window_us);
  REDN_PRINT_FIELD(duration_us);
  REDN_PRINT_FIELD(gets_per_sec);
  REDN_PRINT_FIELD(avg_us);
  REDN_PRINT_FIELD(p50_us);
  REDN_PRINT_FIELD(p99_us);
  REDN_PRINT_FIELD(p999_us);
  REDN_PRINT_FIELD(max_blip_us);
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    *os << " tenants[" << t << "]=";
    PrintTo(r.tenants[t], os);
  }
  REDN_PRINT_FIELD(data_packets);
  REDN_PRINT_FIELD(retransmits);
  REDN_PRINT_FIELD(rto_fires);
  REDN_PRINT_FIELD(rnr_naks);
  REDN_PRINT_FIELD(sack_retransmits);
  REDN_PRINT_FIELD(error_cqes);
  REDN_PRINT_FIELD(qp_errors);
  REDN_PRINT_FIELD(qp_rearms);
  REDN_PRINT_FIELD(events);
  REDN_PRINT_FIELD(sim_shards);
  *os << " }";
}

#undef REDN_PRINT_FIELD

}  // namespace redn::workload
