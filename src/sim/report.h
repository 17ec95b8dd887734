#pragma once
// Simulation result structures: per-op, per-graph, and stage-level rollups
// with the group breakdown the paper's Fig. 6 bars report.

#include <map>
#include <string>
#include <vector>

#include "common/units.h"

namespace cimtpu::sim {

/// Result of one operator execution.
struct OpResult {
  std::string name;
  std::string group;
  bool on_mxu = false;
  std::string mapping_strategy;
  int units_used = 0;

  Seconds latency = 0;       ///< overlapped op latency
  Seconds compute_time = 0;  ///< MXU/VPU busy time
  Seconds memory_time = 0;   ///< streaming time (slowest channel)

  double useful_macs = 0;
  double utilization = 0;    ///< busy-time array utilization (matmul only)

  Joules mxu_busy_energy = 0;
  Joules mxu_idle_energy = 0;     ///< idle clocking during this op
  Joules mxu_leakage_energy = 0;  ///< leakage over this op's latency
  Joules vpu_energy = 0;
  Joules memory_energy = 0;

  /// Total MXU energy attributable to this op.
  Joules mxu_energy() const {
    return mxu_busy_energy + mxu_idle_energy + mxu_leakage_energy;
  }
};

/// Latency/energy attributed to one reporting group ("QKV Gen", ...).
struct GroupSummary {
  Seconds latency = 0;
  Joules mxu_energy = 0;
  Joules total_energy = 0;

  GroupSummary& operator+=(const GroupSummary& other) {
    latency += other.latency;
    mxu_energy += other.mxu_energy;
    total_energy += other.total_energy;
    return *this;
  }

  /// Adds one op's latency and energies (Simulator::run's group rollup).
  void add_op(const OpResult& op);

  /// Scales every field by `factor` (e.g. layer count).
  GroupSummary& scale(double factor);
};

/// Result of a graph (one layer, one block, one stage...).
struct GraphResult {
  std::string name;
  std::vector<OpResult> ops;  ///< single-instance detail (unscaled)

  Seconds latency = 0;
  Seconds mxu_busy_time = 0;
  Joules mxu_busy_energy = 0;
  Joules mxu_idle_energy = 0;
  Joules mxu_leakage_energy = 0;
  Joules vpu_energy = 0;
  Joules memory_energy = 0;
  double useful_macs = 0;
  std::map<std::string, GroupSummary> groups;

  /// Total MXU energy (the quantity the paper's Fig. 6/7 energy bars show).
  Joules mxu_energy() const {
    return mxu_busy_energy + mxu_idle_energy + mxu_leakage_energy;
  }
  /// Total modeled energy.
  Joules total_energy() const {
    return mxu_energy() + vpu_energy + memory_energy;
  }
  /// Average MXU power over the graph's execution.
  Watts mxu_power() const { return latency > 0 ? mxu_energy() / latency : 0; }

  /// Adds one op's latency, energies, MACs and MXU busy time to the totals
  /// (Simulator::run's per-op rollup); neither `ops` nor `groups` changes.
  void add_op_totals(const OpResult& op);

  /// Scales all totals by `factor` (e.g. layer count); per-op detail keeps
  /// single-instance values.
  GraphResult& scale(double factor);

  /// Accumulates another stage's totals (sequential composition).
  GraphResult& operator+=(const GraphResult& other);
};

}  // namespace cimtpu::sim
