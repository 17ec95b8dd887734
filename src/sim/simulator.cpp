#include "sim/simulator.h"

#include <algorithm>

#include "common/status.h"

namespace cimtpu::sim {

Simulator::Simulator(const arch::TpuChip& chip)
    : chip_(&chip), mapper_(chip.mxu(), chip.mxu_count()) {}

OpResult Simulator::run_matmul(const ir::Op& op) const {
  const mapping::GemmMapping mapping = mapper_.best_mapping(op);
  const mapping::StreamingPlan plan =
      mapping::Mapper::plan_streaming(op, chip_->memory().spec());

  OpResult result;
  result.name = op.name;
  result.group = op.group;
  result.on_mxu = true;
  result.mapping_strategy = mapping.strategy;
  result.units_used = mapping.units_used;
  result.useful_macs = op.macs();
  result.utilization = mapping.unit_cost.utilization();

  result.compute_time = mapping.busy_cycles / chip_->clock();
  result.memory_time = plan.memory_time(chip_->memory().spec());
  // Double-buffered overlap: steady state is bounded by the slower stream;
  // the first tile's staging is exposed.
  result.latency = std::max(result.compute_time, result.memory_time) +
                   result.memory_time / plan.tiles;

  result.mxu_busy_energy = mapping.busy_energy;
  result.memory_energy = plan.memory_energy(chip_->memory());
  charge_background_power(op, result);
  return result;
}

OpResult Simulator::run_vector_op(const ir::Op& op) const {
  const vpu::VpuCost cost = chip_->vpu().evaluate(op);
  const mapping::StreamingPlan plan =
      mapping::Mapper::plan_streaming(op, chip_->memory().spec());

  OpResult result;
  result.name = op.name;
  result.group = op.group;
  result.on_mxu = false;
  result.compute_time = cost.busy_cycles / chip_->clock();
  result.memory_time = plan.memory_time(chip_->memory().spec());
  result.latency = std::max(result.compute_time, result.memory_time) +
                   result.memory_time / plan.tiles;
  result.vpu_energy = cost.busy_energy;
  result.memory_energy = plan.memory_energy(chip_->memory());
  charge_background_power(op, result);
  return result;
}

void Simulator::charge_background_power(const ir::Op& op,
                                        OpResult& result) const {
  const int units = chip_->mxu_count();
  // Busy MXUs are charged through busy_energy; the rest idle-clock.
  const Seconds busy_unit_time =
      result.on_mxu ? result.compute_time * result.units_used : 0.0;
  const Seconds idle_unit_time =
      std::max(0.0, static_cast<double>(units) * result.latency -
                        busy_unit_time);
  result.mxu_idle_energy =
      idle_unit_time * chip_->mxu().idle_power(op.dtype);
  result.mxu_leakage_energy =
      static_cast<double>(units) * result.latency *
      chip_->mxu().leakage_power();
  // VPU leakage rides along in vpu_energy.
  result.vpu_energy += chip_->vpu().leakage_power() * result.latency;
}

OpResult Simulator::run_op(const ir::Op& op) const {
  return op.is_matmul() ? run_matmul(op) : run_vector_op(op);
}

GraphResult Simulator::run(const ir::Graph& graph) const {
  GraphResult result;
  result.name = graph.name();
  result.ops.reserve(graph.size());
  for (const ir::Op& op : graph.ops()) {
    OpResult op_result = run_op(op);
    result.add_op_totals(op_result);
    result.groups[op_result.group].add_op(op_result);
    result.ops.push_back(std::move(op_result));
  }
  return result;
}

void GroupSummary::add_op(const OpResult& op) {
  latency += op.latency;
  mxu_energy += op.mxu_energy();
  total_energy += op.mxu_energy() + op.vpu_energy + op.memory_energy;
}

GroupSummary& GroupSummary::scale(double factor) {
  latency *= factor;
  mxu_energy *= factor;
  total_energy *= factor;
  return *this;
}

void GraphResult::add_op_totals(const OpResult& op) {
  latency += op.latency;
  useful_macs += op.useful_macs;
  mxu_busy_energy += op.mxu_busy_energy;
  mxu_idle_energy += op.mxu_idle_energy;
  mxu_leakage_energy += op.mxu_leakage_energy;
  vpu_energy += op.vpu_energy;
  memory_energy += op.memory_energy;
  if (op.on_mxu) {
    mxu_busy_time += op.compute_time;
  }
}

GraphResult& GraphResult::scale(double factor) {
  latency *= factor;
  mxu_busy_time *= factor;
  mxu_busy_energy *= factor;
  mxu_idle_energy *= factor;
  mxu_leakage_energy *= factor;
  vpu_energy *= factor;
  memory_energy *= factor;
  useful_macs *= factor;
  for (auto& [key, group] : groups) {
    group.scale(factor);
  }
  return *this;
}

GraphResult& GraphResult::operator+=(const GraphResult& other) {
  latency += other.latency;
  mxu_busy_time += other.mxu_busy_time;
  mxu_busy_energy += other.mxu_busy_energy;
  mxu_idle_energy += other.mxu_idle_energy;
  mxu_leakage_energy += other.mxu_leakage_energy;
  vpu_energy += other.vpu_energy;
  memory_energy += other.memory_energy;
  useful_macs += other.useful_macs;
  for (const auto& [key, group] : other.groups) {
    groups[key] += group;
  }
  return *this;
}

}  // namespace cimtpu::sim
