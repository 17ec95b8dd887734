// Simulator tests: per-op latency composition, group rollups, result
// algebra, and the workload runners.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "arch/chip.h"
#include "arch/tpu_config.h"
#include "sim/simulator.h"
#include "sim/workload_runner.h"

namespace cimtpu::sim {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : baseline_(arch::tpu_v4i_baseline()),
        cim_(arch::cim_tpu_default()),
        base_sim_(baseline_),
        cim_sim_(cim_) {}

  arch::TpuChip baseline_;
  arch::TpuChip cim_;
  Simulator base_sim_;
  Simulator cim_sim_;
};

TEST_F(SimulatorTest, OpLatencyAtLeastMaxOfComputeAndMemory) {
  for (const ir::Op& op :
       {ir::make_weight_gemm("g", "G", 8192, 7168, 7168, ir::DType::kInt8),
        ir::make_weight_gemm("v", "G", 8, 7168, 7168, ir::DType::kInt8),
        ir::make_softmax("s", "A", 1024, 1024, ir::DType::kInt8)}) {
    const OpResult result = base_sim_.run_op(op);
    EXPECT_GE(result.latency,
              std::max(result.compute_time, result.memory_time));
    EXPECT_LE(result.latency,
              result.compute_time + 2 * result.memory_time + 1e-12);
  }
}

TEST_F(SimulatorTest, ComputeBoundVsMemoryBoundRegimes) {
  // Big square GEMM: compute-bound.  Skinny GEMV on HBM weights:
  // memory-bound.
  const OpResult gemm = base_sim_.run_op(
      ir::make_weight_gemm("g", "G", 8192, 7168, 7168, ir::DType::kInt8));
  EXPECT_GT(gemm.compute_time, gemm.memory_time);
  const OpResult gemv = base_sim_.run_op(
      ir::make_weight_gemm("v", "G", 1, 7168, 7168, ir::DType::kInt8));
  EXPECT_GT(gemv.memory_time, 0.0);
}

TEST_F(SimulatorTest, MatmulUsesMxuVectorOpsUseVpu) {
  const OpResult matmul = base_sim_.run_op(
      ir::make_weight_gemm("g", "G", 64, 128, 128, ir::DType::kInt8));
  EXPECT_TRUE(matmul.on_mxu);
  EXPECT_GT(matmul.mxu_busy_energy, 0);
  EXPECT_GT(matmul.units_used, 0);

  const OpResult softmax =
      base_sim_.run_op(ir::make_softmax("s", "A", 64, 128, ir::DType::kInt8));
  EXPECT_FALSE(softmax.on_mxu);
  EXPECT_DOUBLE_EQ(softmax.mxu_busy_energy, 0);
  EXPECT_GT(softmax.vpu_energy, 0);
}

TEST_F(SimulatorTest, BackgroundPowerChargedForWholeOp) {
  const OpResult softmax = base_sim_.run_op(
      ir::make_softmax("s", "A", 8192, 1024, ir::DType::kInt8));
  // All 4 MXUs idle during a VPU op.
  const Joules expected_idle =
      4.0 * softmax.latency * baseline_.mxu().idle_power(ir::DType::kInt8);
  EXPECT_NEAR(softmax.mxu_idle_energy, expected_idle, expected_idle * 1e-9);
  EXPECT_GT(softmax.mxu_leakage_energy, 0);
}

TEST_F(SimulatorTest, IdleEnergyNonNegativeForMatmuls) {
  for (std::int64_t m : {1, 8, 128, 8192}) {
    const OpResult result = base_sim_.run_op(
        ir::make_weight_gemm("g", "G", m, 7168, 7168, ir::DType::kInt8));
    EXPECT_GE(result.mxu_idle_energy, 0.0) << "m=" << m;
  }
}

TEST_F(SimulatorTest, GraphRollupConsistent) {
  const ir::Graph graph = models::build_decode_layer(
      models::gpt3_30b(), 8, 1280, ir::Residency::kCmem);
  const GraphResult result = base_sim_.run(graph);
  ASSERT_EQ(result.ops.size(), graph.size());
  Seconds latency = 0;
  Joules busy = 0;
  for (const OpResult& op : result.ops) {
    latency += op.latency;
    busy += op.mxu_busy_energy;
  }
  EXPECT_NEAR(result.latency, latency, latency * 1e-12);
  EXPECT_NEAR(result.mxu_busy_energy, busy, busy * 1e-12);
}

TEST_F(SimulatorTest, GroupSummariesPartitionTotals) {
  const ir::Graph graph = models::build_dit_block(
      models::dit_xl_2(), models::dit_geometry_512(), 8);
  const GraphResult result = base_sim_.run(graph);
  Seconds group_latency = 0;
  Joules group_energy = 0;
  for (const auto& [name, group] : result.groups) {
    group_latency += group.latency;
    group_energy += group.mxu_energy;
  }
  EXPECT_NEAR(group_latency, result.latency, result.latency * 1e-9);
  EXPECT_NEAR(group_energy, result.mxu_energy(), result.mxu_energy() * 1e-9);
}

TEST_F(SimulatorTest, ScaleMultipliesTotals) {
  const ir::Graph graph = models::build_decode_layer(
      models::gpt3_30b(), 8, 1280, ir::Residency::kCmem);
  GraphResult result = base_sim_.run(graph);
  const Seconds latency = result.latency;
  const Joules energy = result.total_energy();
  result.scale(48.0);
  EXPECT_NEAR(result.latency, 48 * latency, latency * 1e-9);
  EXPECT_NEAR(result.total_energy(), 48 * energy, energy * 1e-9);
}

TEST_F(SimulatorTest, AccumulateAddsStages) {
  const ir::Graph graph = models::build_decode_layer(
      models::gpt3_30b(), 8, 1280, ir::Residency::kCmem);
  GraphResult a = base_sim_.run(graph);
  const GraphResult b = base_sim_.run(graph);
  const Seconds single = a.latency;
  a += b;
  EXPECT_NEAR(a.latency, 2 * single, single * 1e-9);
  EXPECT_EQ(a.groups.size(), b.groups.size());
}

// --- Workload runners ----------------------------------------------------------------

TEST_F(SimulatorTest, KvResidencySelection) {
  // GPT3-30B batch 8: kv 1280 fits one operand in CMEM; batch 32 does not.
  EXPECT_EQ(kv_residency_for(baseline_, models::gpt3_30b(), 8, 1280),
            ir::Residency::kCmem);
  EXPECT_EQ(kv_residency_for(baseline_, models::gpt3_30b(), 32, 1280),
            ir::Residency::kHbm);
}

TEST_F(SimulatorTest, DecodeLatencyGrowsWithKv) {
  const auto short_kv =
      run_decode_layer(base_sim_, models::gpt3_30b(), 8, 1025);
  const auto long_kv =
      run_decode_layer(base_sim_, models::gpt3_30b(), 8, 1536);
  EXPECT_GT(long_kv.latency, short_kv.latency);
}

TEST_F(SimulatorTest, LlmInferenceComposition) {
  LlmScenario scenario;
  scenario.model = models::gpt3_30b();
  scenario.model.num_layers = 4;  // keep the test fast
  scenario.batch = 8;
  scenario.input_len = 128;
  scenario.output_len = 16;
  const LlmRunResult run = run_llm_inference(base_sim_, scenario);
  EXPECT_NEAR(run.total.latency, run.prefill.latency + run.decode.latency,
              run.total.latency * 1e-9);
  EXPECT_GT(run.decode_latency_per_token, 0);
  EXPECT_GT(run.prefill_latency_per_layer, 0);
  // Decode ran output_len steps over num_layers layers.
  EXPECT_NEAR(run.decode.latency,
              run.decode_latency_per_token * scenario.output_len,
              run.decode.latency * 1e-9);
}

// The decode loop run_llm_inference ran before its decode-layer plan:
// every step evaluated in full through run_decode_layer, scaled by the layer
// count and summed.  The reference the plan must match bit for bit.
LlmRunResult per_step_oracle(const Simulator& simulator,
                             const LlmScenario& scenario) {
  LlmRunResult result;
  GraphResult prefill_layer = run_prefill_layer(
      simulator, scenario.model, scenario.batch, scenario.input_len);
  result.prefill_latency_per_layer = prefill_layer.latency;
  result.prefill = prefill_layer;
  result.prefill.scale(static_cast<double>(scenario.model.num_layers));
  result.prefill.name = scenario.model.name + "-prefill";
  result.decode.name = scenario.model.name + "-decode";
  for (std::int64_t t = 1; t <= scenario.output_len; ++t) {
    GraphResult step = run_decode_layer(simulator, scenario.model,
                                        scenario.batch, scenario.input_len + t);
    step.scale(static_cast<double>(scenario.model.num_layers));
    result.decode += step;
  }
  result.decode_latency_per_token =
      scenario.output_len > 0
          ? result.decode.latency / static_cast<double>(scenario.output_len)
          : 0.0;
  result.total = result.prefill;
  result.total += result.decode;
  result.total.name = scenario.model.name + "-total";
  return result;
}

void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what << ": " << a << " vs "
                                              << b;
}

void expect_identical(const GraphResult& a, const GraphResult& b,
                      const std::string& where) {
  EXPECT_EQ(a.name, b.name) << where;
  expect_same_bits(a.latency, b.latency, where + " latency");
  expect_same_bits(a.mxu_busy_time, b.mxu_busy_time, where + " mxu_busy_time");
  expect_same_bits(a.mxu_busy_energy, b.mxu_busy_energy,
                   where + " mxu_busy_energy");
  expect_same_bits(a.mxu_idle_energy, b.mxu_idle_energy,
                   where + " mxu_idle_energy");
  expect_same_bits(a.mxu_leakage_energy, b.mxu_leakage_energy,
                   where + " mxu_leakage_energy");
  expect_same_bits(a.vpu_energy, b.vpu_energy, where + " vpu_energy");
  expect_same_bits(a.memory_energy, b.memory_energy, where + " memory_energy");
  expect_same_bits(a.useful_macs, b.useful_macs, where + " useful_macs");
  ASSERT_EQ(a.ops.size(), b.ops.size()) << where;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].name, b.ops[i].name) << where;
    expect_same_bits(a.ops[i].latency, b.ops[i].latency,
                     where + " op " + a.ops[i].name);
  }
  ASSERT_EQ(a.groups.size(), b.groups.size()) << where;
  for (auto ia = a.groups.begin(), ib = b.groups.begin(); ia != a.groups.end();
       ++ia, ++ib) {
    const std::string group = where + " group " + ia->first;
    EXPECT_EQ(ia->first, ib->first) << where;
    expect_same_bits(ia->second.latency, ib->second.latency,
                     group + " latency");
    expect_same_bits(ia->second.mxu_energy, ib->second.mxu_energy,
                     group + " mxu_energy");
    expect_same_bits(ia->second.total_energy, ib->second.total_energy,
                     group + " total_energy");
  }
}

// Largest KV length whose K/V operand still stays in CMEM (0 if none does).
std::int64_t last_cmem_kv_len(const arch::TpuChip& chip,
                              const models::TransformerConfig& model,
                              std::int64_t batch) {
  const auto in_cmem = [&](std::int64_t kv_len) {
    return kv_residency_for(chip, model, batch, kv_len) ==
           ir::Residency::kCmem;
  };
  if (!in_cmem(1)) return 0;
  std::int64_t lo = 1, hi = std::int64_t{1} << 30;  // in_cmem(lo), !in_cmem(hi)
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (in_cmem(mid) ? lo : hi) = mid;
  }
  return lo;
}

// Exhaustive: every Table IV design x four paper models x batch {1, 8, 32},
// at output lengths 0 and 1, the paper's 1024 in / 512 out, and a run whose
// KV cache leaves CMEM partway through the generation.  The decode-layer
// plan must reproduce the per-step loop bit for bit.
TEST(DecodePlanTest, MatchesPerStepLoopOnTableIvGrid) {
  const std::pair<int, int> grids[] = {{8, 8}, {16, 8}, {16, 16}};
  std::vector<arch::TpuChipConfig> designs = {arch::tpu_v4i_baseline()};
  for (int count : {2, 4, 8}) {
    for (const auto& [rows, cols] : grids) {
      designs.push_back(arch::cim_tpu(count, rows, cols));
    }
  }
  const std::vector<models::TransformerConfig> models_under_test = {
      models::llama2_7b(), models::llama2_13b(), models::gpt3_30b(),
      models::gpt3_175b()};
  int cases = 0, crossing = 0;
  for (const arch::TpuChipConfig& design : designs) {
    const arch::TpuChip chip(design);
    const Simulator simulator(chip);
    for (const models::TransformerConfig& model : models_under_test) {
      for (std::int64_t batch : {1, 8, 32}) {
        std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
            {1024, 0}, {1024, 1}, {1024, 512}, {7, 5}};
        const std::int64_t last_cmem = last_cmem_kv_len(chip, model, batch);
        if (last_cmem > 4) shapes.push_back({last_cmem - 4, 9});
        for (const auto& [input_len, output_len] : shapes) {
          LlmScenario scenario;
          scenario.model = model;
          scenario.batch = batch;
          scenario.input_len = input_len;
          scenario.output_len = output_len;
          const std::string where = design.name + "/" + model.name + "/b" +
                                    std::to_string(batch) + "/" +
                                    std::to_string(input_len) + "+" +
                                    std::to_string(output_len);
          const LlmRunResult plan = run_llm_inference(simulator, scenario);
          const LlmRunResult oracle = per_step_oracle(simulator, scenario);
          expect_identical(plan.prefill, oracle.prefill, where + " prefill");
          expect_identical(plan.decode, oracle.decode, where + " decode");
          expect_identical(plan.total, oracle.total, where + " total");
          expect_same_bits(plan.prefill_latency_per_layer,
                           oracle.prefill_latency_per_layer, where);
          expect_same_bits(plan.decode_latency_per_token,
                           oracle.decode_latency_per_token, where);
          ++cases;
          if (output_len > 0 &&
              kv_residency_for(chip, model, batch, input_len + 1) !=
                  kv_residency_for(chip, model, batch,
                                   input_len + output_len)) {
            ++crossing;
          }
        }
      }
    }
  }
  EXPECT_GE(cases, 10 * 4 * 3 * 4);
  EXPECT_GT(crossing, 0) << "no case crossed the KV residency threshold";
}

TEST_F(SimulatorTest, DecodeDominatesLongGenerations) {
  LlmScenario scenario;
  scenario.model = models::gpt3_30b();
  scenario.model.num_layers = 2;
  scenario.input_len = 1024;
  scenario.output_len = 512;
  const LlmRunResult run = run_llm_inference(base_sim_, scenario);
  EXPECT_GT(run.decode.latency, run.prefill.latency);
}

TEST_F(SimulatorTest, DitInferenceIncludesPrePost) {
  DitScenario scenario;
  scenario.model = models::dit_xl_2();
  scenario.geometry = models::dit_geometry_512();
  scenario.batch = 8;
  const GraphResult run = run_dit_inference(base_sim_, scenario);
  const GraphResult block =
      run_dit_block(base_sim_, scenario.model, scenario.geometry, 8);
  EXPECT_GT(run.latency, block.latency * scenario.model.num_layers);
}

TEST_F(SimulatorTest, SamplingStepsScaleDit) {
  DitScenario one;
  one.model = models::dit_xl_2();
  one.geometry = models::dit_geometry_512();
  one.batch = 1;
  DitScenario ten = one;
  ten.sampling_steps = 10;
  EXPECT_NEAR(run_dit_inference(base_sim_, ten).latency,
              10 * run_dit_inference(base_sim_, one).latency, 1e-6);
}

TEST_F(SimulatorTest, BreakdownCoreDominates) {
  // Fig. 2(d): transformer layers must dominate end-to-end latency.
  LlmScenario scenario;
  scenario.model = models::llama2_13b();
  scenario.batch = 1;
  scenario.input_len = 128;
  scenario.output_len = 32;
  const BreakdownResult result = run_llm_breakdown(base_sim_, scenario);
  EXPECT_GT(result.core.latency / result.total(), 0.90);
}

}  // namespace
}  // namespace cimtpu::sim

namespace cimtpu::sim {
namespace {

TEST(Int4WorkloadTest, DecodeFasterAtInt4) {
  // INT4 halves weight traffic: HBM-bound decode speeds up ~2x on the CIM
  // chip (where weight ingest is already hidden).
  arch::TpuChip chip(arch::cim_tpu_default());
  Simulator simulator(chip);
  models::TransformerConfig int8_model = models::gpt3_30b();
  models::TransformerConfig int4_model = models::gpt3_30b();
  int4_model.dtype = ir::DType::kInt4;
  const auto int8_run = run_decode_layer(simulator, int8_model, 8, 1280);
  const auto int4_run = run_decode_layer(simulator, int4_model, 8, 1280);
  EXPECT_LT(int4_run.latency, int8_run.latency * 0.7);
  EXPECT_LT(int4_run.mxu_energy(), int8_run.mxu_energy());
}

}  // namespace
}  // namespace cimtpu::sim
