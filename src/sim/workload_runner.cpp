#include "sim/workload_runner.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/status.h"

namespace cimtpu::sim {
namespace {

// The decode stage of one run_llm_inference call, through a decode-layer
// plan.  A decode step differs from the last only inside the attention
// block (models::build_decode_attention), so every other op of the layer
// is costed once and each step re-costs just that block, at its own KV
// length and its own kv_residency_for choice: a KV cache that outgrows
// CMEM mid-generation flips to HBM at exactly the step it would.  Each
// step's totals and group sums are added in Simulator::run's op order,
// then scaled and summed as run_decode_layer + scale + operator+= would,
// so the result is bit-identical to evaluating every step in full.  Groups
// sit in dense slots (first-appearance order) during the loop and become
// the string-keyed map once, at the end.  Nothing outlives the call.
GraphResult run_decode_steps(const Simulator& simulator,
                             const LlmScenario& scenario) {
  const models::TransformerConfig& model = scenario.model;
  const std::int64_t batch = scenario.batch;
  GraphResult decode;
  decode.name = model.name + "-decode";
  if (scenario.output_len == 0) return decode;

  const auto residency = [&](std::int64_t kv_len) {
    return kv_residency_for(simulator.chip(), model, batch, kv_len);
  };
  const std::int64_t first_kv_len = scenario.input_len + 1;
  models::OpSpan attention;
  const ir::Graph layer = models::build_decode_layer(
      model, batch, first_kv_len, residency(first_kv_len), &attention);
  const std::vector<std::string> groups = layer.groups();

  std::vector<OpResult> ops(layer.size());
  std::vector<std::size_t> slot_of(layer.size());
  for (std::size_t i = 0; i < layer.size(); ++i) {
    const ir::Op& op = layer.op(i);
    slot_of[i] = static_cast<std::size_t>(
        std::find(groups.begin(), groups.end(), op.group) - groups.begin());
    if (i < attention.begin || i >= attention.begin + attention.size) {
      ops[i] = simulator.run_op(op);
    }
  }

  const double layers = static_cast<double>(model.num_layers);
  std::vector<GroupSummary> step_groups(groups.size());
  std::vector<GroupSummary> decode_groups(groups.size());
  for (std::int64_t t = 1; t <= scenario.output_len; ++t) {
    const std::int64_t kv_len = scenario.input_len + t;
    const ir::Graph block = models::build_decode_attention(
        model, batch, kv_len, residency(kv_len));
    for (std::size_t i = 0; i < block.size(); ++i) {
      ops[attention.begin + i] = simulator.run_op(block.op(i));
    }
    GraphResult step;
    std::fill(step_groups.begin(), step_groups.end(), GroupSummary{});
    for (std::size_t i = 0; i < ops.size(); ++i) {
      step.add_op_totals(ops[i]);
      step_groups[slot_of[i]].add_op(ops[i]);
    }
    step.scale(layers);
    decode += step;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      decode_groups[g] += step_groups[g].scale(layers);
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    decode.groups.emplace(groups[g], decode_groups[g]);
  }
  return decode;
}

}  // namespace

ir::Residency kv_residency_for(const arch::TpuChip& chip,
                               const models::TransformerConfig& model,
                               std::int64_t batch, std::int64_t kv_len) {
  // One attention operand (K or V): [batch, kv_len, d_model].
  const Bytes operand = static_cast<double>(batch) * kv_len * model.d_model *
                        ir::dtype_bytes(model.dtype);
  // Reserve a slice of CMEM for streaming weight tiles.
  const Bytes reserved = chip.memory().spec().cmem.capacity / 8;
  return models::choose_kv_residency(operand,
                                     chip.memory().spec().cmem.capacity,
                                     reserved);
}

GraphResult run_prefill_layer(const Simulator& simulator,
                              const models::TransformerConfig& model,
                              std::int64_t batch, std::int64_t seq_len) {
  const ir::Residency kv =
      kv_residency_for(simulator.chip(), model, batch, seq_len);
  return simulator.run(models::build_prefill_layer(model, batch, seq_len, kv));
}

GraphResult run_decode_layer(const Simulator& simulator,
                             const models::TransformerConfig& model,
                             std::int64_t batch, std::int64_t kv_len) {
  const ir::Residency kv =
      kv_residency_for(simulator.chip(), model, batch, kv_len);
  return simulator.run(models::build_decode_layer(model, batch, kv_len, kv));
}

GraphResult run_dit_block(const Simulator& simulator,
                          const models::TransformerConfig& model,
                          const models::DitGeometry& geometry,
                          std::int64_t batch) {
  return simulator.run(models::build_dit_block(model, geometry, batch));
}

LlmRunResult run_llm_inference(const Simulator& simulator,
                               const LlmScenario& scenario) {
  CIMTPU_CONFIG_CHECK(scenario.input_len > 0,
                      "LLM scenario needs a positive input length");
  CIMTPU_CONFIG_CHECK(scenario.output_len >= 0,
                      "LLM scenario needs a non-negative output length");
  CIMTPU_CONFIG_CHECK(scenario.batch >= 1, "LLM scenario needs batch >= 1");
  LlmRunResult result;

  GraphResult prefill_layer = run_prefill_layer(
      simulator, scenario.model, scenario.batch, scenario.input_len);
  result.prefill_latency_per_layer = prefill_layer.latency;
  result.prefill = prefill_layer;
  result.prefill.scale(static_cast<double>(scenario.model.num_layers));
  result.prefill.name = scenario.model.name + "-prefill";

  // Decode steps with growing KV length, one step per output token: the
  // plan in run_decode_steps re-costs only each step's attention block.
  result.decode = run_decode_steps(simulator, scenario);
  // output_len == 0 (prefill-only scoring) must not divide by zero.
  result.decode_latency_per_token =
      scenario.output_len > 0
          ? result.decode.latency / static_cast<double>(scenario.output_len)
          : 0.0;

  result.total = result.prefill;
  result.total += result.decode;
  result.total.name = scenario.model.name + "-total";
  return result;
}

GraphResult run_dit_inference(const Simulator& simulator,
                              const DitScenario& scenario) {
  GraphResult block = run_dit_block(simulator, scenario.model,
                                    scenario.geometry, scenario.batch);
  block.scale(static_cast<double>(scenario.model.num_layers));

  GraphResult pre = simulator.run(models::build_dit_preprocess(
      scenario.model, scenario.geometry, scenario.batch));
  GraphResult post = simulator.run(models::build_dit_postprocess(
      scenario.model, scenario.geometry, scenario.batch));

  GraphResult total = pre;
  total += block;
  total += post;
  total.scale(static_cast<double>(scenario.sampling_steps));
  total.name = scenario.model.name + "-forward";
  return total;
}

BreakdownResult run_llm_breakdown(const Simulator& simulator,
                                  const LlmScenario& scenario) {
  BreakdownResult result;
  result.pre = simulator.run(models::build_token_embedding(
      scenario.model, scenario.batch * scenario.input_len));

  LlmRunResult run = run_llm_inference(simulator, scenario);
  result.core = run.total;

  // The prediction head runs once per generated token on batch rows.
  GraphResult head = simulator.run(
      models::build_prediction_head(scenario.model, scenario.batch));
  head.scale(static_cast<double>(scenario.output_len));
  result.post = head;
  return result;
}

BreakdownResult run_dit_breakdown(const Simulator& simulator,
                                  const DitScenario& scenario) {
  BreakdownResult result;
  result.pre = simulator.run(models::build_dit_preprocess(
      scenario.model, scenario.geometry, scenario.batch));
  GraphResult block = run_dit_block(simulator, scenario.model,
                                    scenario.geometry, scenario.batch);
  block.scale(static_cast<double>(scenario.model.num_layers));
  result.core = block;
  result.post = simulator.run(models::build_dit_postprocess(
      scenario.model, scenario.geometry, scenario.batch));
  if (scenario.sampling_steps > 1) {
    const double steps = scenario.sampling_steps;
    result.pre.scale(steps);
    result.core.scale(steps);
    result.post.scale(steps);
  }
  return result;
}

}  // namespace cimtpu::sim
