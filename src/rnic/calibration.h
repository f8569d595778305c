// Timing and capacity calibration for the simulated RNIC.
//
// The simulator implements RDMA *semantics* exactly (ordering, prefetch
// staleness, completion counting, managed-queue gating). The *timing*
// constants below are free parameters, tuned once so that the
// microbenchmarks land on the values the paper measured on ConnectX-5
// hardware (Fig 7, Fig 8, Tables 1 and 3). The macro experiments
// (Figs 10-16, Tables 4-5) then fall out of the same model.
//
// Paper anchor points used for tuning:
//  - remote NOOP 1.21 us, local-remote delta 0.25 us        (Fig 7/8)
//  - WRITE 1.6 us, READ/CAS ~1.8 us, ADD ~1.79, MAX ~1.85   (Fig 7)
//  - chain slopes: WQ order 0.17 us/WR, completion order
//    0.19 us/WR, doorbell order 0.54 us/WR                  (Fig 8)
//  - WRITE 63M/s, READ 65M/s, CAS/ADD 8.4M/s per port       (Table 3)
//  - generation scaling 15M / 63M / 112M verbs/s            (Table 1)
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace redn::rnic {

struct Calibration {
  // --- Host-side / fetch costs ---------------------------------------------
  // MMIO write that rings the doorbell register.
  sim::Nanos doorbell_mmio = 300;
  // DMA latency for the initial WQE batch fetch after a doorbell.
  sim::Nanos first_fetch = 340;
  // Requester-side acknowledgment turnaround charged per wire-crossing op
  // (RC acks; calibrates remote verbs onto the paper's measured values).
  sim::Nanos remote_ack_extra = 240;
  // Serialized per-WQE fetch for managed (no-prefetch) queues, charged on
  // the per-port fetch unit. 490 ns + WAIT/ENABLE overheads reproduce the
  // paper's 0.54 us-per-WR doorbell-order slope.
  sim::Nanos managed_fetch = 490;

  // --- Per-opcode processing-unit occupancy (pipelined issue rate) ---------
  // A single WQ is bound to one PU; consecutive WQEs issue back-to-back at
  // these intervals. 170 ns reproduces the paper's NOOP chain slope; 127 ns
  // reproduces 63M WRITEs/s across 8 PUs.
  sim::Nanos pu_noop = 170;
  sim::Nanos pu_write = 127;
  sim::Nanos pu_read = 123;   // 65M/s across 8 PUs
  sim::Nanos pu_send = 127;
  sim::Nanos pu_calc = 127;   // MAX/MIN: 63M/s
  sim::Nanos pu_atomic = 119;
  sim::Nanos pu_wait = 10;    // completion-order extra: 0.19 us slope
  sim::Nanos pu_enable = 10;
  // Issue cost for WQEs that were individually fetched in managed mode: the
  // batched-prefetch amortisation baked into the costs above does not apply
  // when the explicit fetch was already charged.
  sim::Nanos pu_managed_issue = 20;

  // --- Execution path (issue -> remote effect -> completion) ---------------
  // One-way wire latency between back-to-back nodes (0.25 us RTT in Fig 7).
  // Loopback connections use zero.
  sim::Nanos net_one_way = 125;
  // Extra latency past issue for each verb's data path (PCIe gather /
  // non-posted read / atomic round trip), excluding size-dependent terms.
  sim::Nanos exec_noop = 0;    // NOP completes inside the NIC
  sim::Nanos exec_write = 175;
  sim::Nanos exec_send = 575;
  sim::Nanos exec_read = 370;
  sim::Nanos exec_cas = 270;
  sim::Nanos exec_add = 250;
  sim::Nanos exec_calc = 310;
  // Responder-side RECV consumption (WQE read + scatter setup), plus a cost
  // per scatter entry actually written.
  sim::Nanos recv_processing = 550;
  sim::Nanos recv_scatter_per_sge = 300;
  // Atomic-unit service time: 8.4M CAS/s per port.
  sim::Nanos atomic_unit_service = 119;

  // --- Completion path ------------------------------------------------------
  // Delay until a completion is visible to WAIT verbs inside the NIC.
  sim::Nanos cq_internal = 10;
  // Extra delay until the CQE is DMAed to host memory and pollable.
  sim::Nanos completion_write = 150;
  // Latency for a WAIT-blocked queue to resume after its CQ fires.
  sim::Nanos wait_resume = 0;

  // --- Variability ----------------------------------------------------------
  // Uniform +/- fraction applied to per-verb execution costs. Zero keeps the
  // simulation deterministic (unit tests); benches that report percentiles
  // enable a small value to model NIC/PCIe timing noise.
  double jitter_frac = 0.0;

  // --- Bandwidths (size-dependent store-and-forward + occupancy) -----------
  // Effective InfiniBand data bandwidth per port (paper: ~92 Gbps).
  double link_gbps = 92.0;
  // Effective PCIe 3.0 x16 data bandwidth, shared by both ports.
  double pcie_gbps = 100.0;
  // Host memory subsystem bandwidth seen by NIC DMA.
  double mem_gbps = 150.0;
};

// Per-generation capacity parameters (Table 1). PUs are per port.
struct NicConfig {
  std::string name = "ConnectX-5";
  int ports = 1;
  int pus_per_port = 8;
  // Copy-verb PU service time; scales the generation's verb throughput.
  sim::Nanos pu_copy_service = 127;

  static NicConfig ConnectX3(int ports = 1) {
    return NicConfig{"ConnectX-3", ports, 2, 133};
  }
  static NicConfig ConnectX5(int ports = 1) {
    return NicConfig{"ConnectX-5", ports, 8, 127};
  }
  static NicConfig ConnectX6(int ports = 1) {
    return NicConfig{"ConnectX-6", ports, 16, 143};
  }

  // Applies the generation's copy-verb service time to a calibration.
  Calibration Calibrated(Calibration base = {}) const {
    base.pu_write = pu_copy_service;
    base.pu_send = pu_copy_service;
    base.pu_calc = pu_copy_service;
    base.pu_read = pu_copy_service > 4 ? pu_copy_service - 4 : pu_copy_service;
    return base;
  }
};

}  // namespace redn::rnic
