// The one topology every workload here builds: each NIC (client, tenant,
// server or shard) plugs one port into a single sim::Fabric switch with no
// switching latency, over a 25 Gbps link 125 ns away (sim::LinkSpec's
// propagation default).
#pragma once

#include "sim/fabric.h"

namespace redn::workload {

inline constexpr sim::LinkSpec kPortLink{.gbps = 25.0};

}  // namespace redn::workload
