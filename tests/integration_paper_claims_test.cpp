// Integration tests pinning the reproduction to the paper's published
// results.  Each claim is asserted within a tolerance band stated in its
// test, with a comment wherever the model departs from the published
// number (src/tech/calibration.h documents the tuned factors behind these
// ratios); a regression that silently drifts the model away from the paper
// fails here.

#include <gtest/gtest.h>

#include "arch/chip.h"
#include "arch/tpu_config.h"
#include "common/math_util.h"
#include "sim/workload_runner.h"

namespace cimtpu {
namespace {

class PaperClaimsTest : public ::testing::Test {
 protected:
  PaperClaimsTest()
      : baseline_(arch::tpu_v4i_baseline()),
        cim_(arch::cim_tpu_default()),
        base_sim_(baseline_),
        cim_sim_(cim_),
        gpt3_(models::gpt3_30b()),
        dit_(models::dit_xl_2()),
        geometry_(models::dit_geometry_512()) {}

  arch::TpuChip baseline_;
  arch::TpuChip cim_;
  sim::Simulator base_sim_;
  sim::Simulator cim_sim_;
  models::TransformerConfig gpt3_;
  models::TransformerConfig dit_;
  models::DitGeometry geometry_;
};

// --- Table II -------------------------------------------------------------------

TEST_F(PaperClaimsTest, TableII_MacroEnergyEfficiency943x) {
  const double ratio =
      cim_.mxu().tops_per_watt(ir::DType::kInt8, 1 * GHz) /
      baseline_.mxu().tops_per_watt(ir::DType::kInt8, 1 * GHz);
  EXPECT_NEAR(ratio, 9.43, 0.02);
}

TEST_F(PaperClaimsTest, TableII_MacroAreaEfficiency202x) {
  const double ratio = cim_.mxu().tops_per_mm2(1 * GHz) /
                       baseline_.mxu().tops_per_mm2(1 * GHz);
  EXPECT_NEAR(ratio, 2.02, 0.02);
}

TEST_F(PaperClaimsTest, TableII_SameMacsPerCycle) {
  EXPECT_DOUBLE_EQ(baseline_.mxu().macs_per_cycle(),
                   cim_.mxu().macs_per_cycle());
}

TEST_F(PaperClaimsTest, CimMxuHalfAreaSamePeak) {
  // Sec. IV-B: "the same peak performance as the baseline MXU with only
  // 50% area".
  EXPECT_NEAR(cim_.mxu().area() / baseline_.mxu().area(), 0.5, 0.02);
}

// --- Fig. 6: LLM prefill ----------------------------------------------------------

TEST_F(PaperClaimsTest, Fig6_PrefillLatencyWithin5Pct) {
  // Paper: +2.43% (CIM marginally slower on compute-bound prefill).
  const auto base = sim::run_prefill_layer(base_sim_, gpt3_, 8, 1024);
  const auto cim = sim::run_prefill_layer(cim_sim_, gpt3_, 8, 1024);
  const double delta = cim.latency / base.latency - 1.0;
  EXPECT_GT(delta, 0.0) << "CIM must be slightly slower in prefill";
  EXPECT_LT(delta, 0.05);
}

TEST_F(PaperClaimsTest, Fig6_PrefillEnergyNear921x) {
  const auto base = sim::run_prefill_layer(base_sim_, gpt3_, 8, 1024);
  const auto cim = sim::run_prefill_layer(cim_sim_, gpt3_, 8, 1024);
  const double ratio = base.mxu_energy() / cim.mxu_energy();
  EXPECT_TRUE(within_band(ratio, 8.0, 11.0)) << ratio << " vs paper 9.21";
}

TEST_F(PaperClaimsTest, Fig6_PrefillLinearLayersDominate) {
  // Paper Sec. IV-B: QKV/Proj/FFN take 84.9% of prefill latency.
  const auto base = sim::run_prefill_layer(base_sim_, gpt3_, 8, 1024);
  Seconds linear = 0;
  for (const char* group : {"QKV Gen", "Proj.", "FFN1", "FFN2"}) {
    linear += base.groups.at(group).latency;
  }
  EXPECT_TRUE(within_band(linear / base.latency, 0.75, 0.95));
}

// --- Fig. 6: LLM decode ------------------------------------------------------------

TEST_F(PaperClaimsTest, Fig6_DecodeLatencyReductionNear299) {
  // Paper: -29.9%.
  const auto base = sim::run_decode_layer(base_sim_, gpt3_, 8, 1280);
  const auto cim = sim::run_decode_layer(cim_sim_, gpt3_, 8, 1280);
  const double delta = 1.0 - cim.latency / base.latency;
  EXPECT_TRUE(within_band(delta, 0.22, 0.38)) << delta << " vs paper 0.299";
}

TEST_F(PaperClaimsTest, Fig6_DecodeEnergyNear134x) {
  const auto base = sim::run_decode_layer(base_sim_, gpt3_, 8, 1280);
  const auto cim = sim::run_decode_layer(cim_sim_, gpt3_, 8, 1280);
  const double ratio = base.mxu_energy() / cim.mxu_energy();
  EXPECT_TRUE(within_band(ratio, 11.0, 16.0)) << ratio << " vs paper 13.4";
}

TEST_F(PaperClaimsTest, Fig6_DecodeAttentionShareSignificant) {
  // Paper: attention = 33.7% of baseline decode latency.  Our model lands
  // lower (the baseline ramp amortizes per instance); assert the
  // qualitative claim: attention is a first-order contributor.
  const auto base = sim::run_decode_layer(base_sim_, gpt3_, 8, 1280);
  const double share = base.groups.at("Attention").latency / base.latency;
  EXPECT_TRUE(within_band(share, 0.15, 0.40)) << share << " vs paper 0.337";
}

TEST_F(PaperClaimsTest, Fig6_DecodeAttentionGemvSpeedup) {
  // Paper: Q*K^T / S*V^T GEMV layers accelerate by ~72.7%.
  const auto base = sim::run_decode_layer(base_sim_, gpt3_, 8, 1280);
  const auto cim = sim::run_decode_layer(cim_sim_, gpt3_, 8, 1280);
  const double reduction = 1.0 - cim.groups.at("Attention").latency /
                                     base.groups.at("Attention").latency;
  EXPECT_TRUE(within_band(reduction, 0.55, 0.85))
      << reduction << " vs paper 0.727";
}

// --- Fig. 6: DiT -------------------------------------------------------------------

TEST_F(PaperClaimsTest, Fig6_DitLatencyCimWins) {
  // Paper: -6.67%; our model lands at a smaller win (anywhere in 0-12%
  // passes), but the sign and the mechanism must hold.
  const auto base = sim::run_dit_block(base_sim_, dit_, geometry_, 8);
  const auto cim = sim::run_dit_block(cim_sim_, dit_, geometry_, 8);
  const double delta = 1.0 - cim.latency / base.latency;
  EXPECT_TRUE(within_band(delta, 0.0, 0.12)) << delta << " vs paper 0.0667";
}

TEST_F(PaperClaimsTest, Fig6_DitEnergyNear104x) {
  const auto base = sim::run_dit_block(base_sim_, dit_, geometry_, 8);
  const auto cim = sim::run_dit_block(cim_sim_, dit_, geometry_, 8);
  const double ratio = base.mxu_energy() / cim.mxu_energy();
  EXPECT_TRUE(within_band(ratio, 8.5, 12.5)) << ratio << " vs paper 10.4";
}

TEST_F(PaperClaimsTest, Fig6_DitAttentionGemmImprovement) {
  // Paper: 30.3% improvement on Q*K^T / S*V^T in DiT.  Compare the
  // attention-GEMM ops directly (softmax excluded).
  const auto base = sim::run_dit_block(base_sim_, dit_, geometry_, 8);
  const auto cim = sim::run_dit_block(cim_sim_, dit_, geometry_, 8);
  auto attention_gemm_latency = [](const sim::GraphResult& result) {
    Seconds total = 0;
    for (const auto& op : result.ops) {
      if (op.on_mxu && op.group == "Attention") total += op.latency;
    }
    return total;
  };
  const double reduction =
      1.0 - attention_gemm_latency(cim) / attention_gemm_latency(base);
  EXPECT_TRUE(within_band(reduction, 0.20, 0.40))
      << reduction << " vs paper 0.303";
}

TEST_F(PaperClaimsTest, Fig6_DitSoftmaxIsMajorContributor) {
  // Paper: softmax takes up to 36.9% of DiT latency.
  const auto base = sim::run_dit_block(base_sim_, dit_, geometry_, 8);
  Seconds softmax = 0;
  for (const auto& op : base.ops) {
    if (!op.on_mxu && op.group == "Attention") softmax += op.latency;
  }
  EXPECT_TRUE(within_band(softmax / base.latency, 0.20, 0.45));
}

// --- Fig. 7 -------------------------------------------------------------------------

TEST_F(PaperClaimsTest, Fig7_SmallestConfigEnergyNear273x) {
  // Paper: 2x(8x8) saves 27.3x MXU energy on LLM inference.
  sim::LlmScenario scenario;
  scenario.model = gpt3_;
  scenario.model.num_layers = 2;  // ratios are layer-count invariant
  scenario.batch = 8;
  scenario.input_len = 1024;
  scenario.output_len = 512;  // paper Fig. 7 scenario (layers reduced instead)
  arch::TpuChip small(arch::cim_tpu(2, 8, 8));
  sim::Simulator small_sim(small);
  const auto base = sim::run_llm_inference(base_sim_, scenario);
  const auto cim = sim::run_llm_inference(small_sim, scenario);
  const double ratio = base.total.mxu_energy() / cim.total.mxu_energy();
  EXPECT_TRUE(within_band(ratio, 20.0, 36.0)) << ratio << " vs paper 27.3";
}

TEST_F(PaperClaimsTest, Fig7_DoublingBigConfigBarelyHelpsLlm) {
  // Paper: 8x(16x16) has 2x the peak of 8x(16x8) but only ~2.5% better
  // LLM performance, at ~+95% energy.
  sim::LlmScenario scenario;
  scenario.model = gpt3_;
  scenario.model.num_layers = 2;
  scenario.batch = 8;
  scenario.input_len = 1024;
  scenario.output_len = 512;
  arch::TpuChip big(arch::cim_tpu(8, 16, 8));
  arch::TpuChip bigger(arch::cim_tpu(8, 16, 16));
  sim::Simulator big_sim(big), bigger_sim(bigger);
  const auto a = sim::run_llm_inference(big_sim, scenario);
  const auto b = sim::run_llm_inference(bigger_sim, scenario);
  const double perf_gain = 1.0 - b.total.latency / a.total.latency;
  EXPECT_TRUE(within_band(perf_gain, 0.0, 0.10)) << perf_gain;
  const double energy_increase =
      b.total.mxu_energy() / a.total.mxu_energy() - 1.0;
  EXPECT_TRUE(within_band(energy_increase, 0.60, 1.10))
      << energy_increase << " vs paper 0.95";
}

TEST_F(PaperClaimsTest, Fig7_DitLatencyOrderingByPeak) {
  // Compute-bound DiT: more/larger CIM-MXUs -> lower latency (paper:
  // -25.3% at 4x(16x16), -33.8% at 8x(16x16)).
  sim::DitScenario scenario;
  scenario.model = dit_;
  scenario.geometry = geometry_;
  scenario.batch = 8;
  auto latency_of = [&](const arch::TpuChipConfig& config) {
    arch::TpuChip chip(config);
    sim::Simulator simulator(chip);
    return sim::run_dit_inference(simulator, scenario).latency;
  };
  const Seconds base = latency_of(arch::tpu_v4i_baseline());
  const Seconds small = latency_of(arch::cim_tpu(2, 8, 8));
  const Seconds mid = latency_of(arch::cim_tpu(4, 16, 16));
  const Seconds big = latency_of(arch::cim_tpu(8, 16, 16));
  EXPECT_GT(small, base);  // +100% in the paper
  EXPECT_LT(mid, base);
  EXPECT_LT(big, mid);
  EXPECT_TRUE(within_band(1.0 - mid / base, 0.15, 0.35)) << 1.0 - mid / base;
  EXPECT_TRUE(within_band(1.0 - big / base, 0.25, 0.45)) << 1.0 - big / base;
}

TEST_F(PaperClaimsTest, Fig7_DesignTradeoffsHold) {
  // Design A: large energy savings at modest-to-no latency cost for LLM.
  sim::LlmScenario llm;
  llm.model = gpt3_;
  llm.model.num_layers = 2;
  llm.batch = 8;
  llm.input_len = 1024;
  llm.output_len = 512;
  arch::TpuChip a(arch::design_a());
  sim::Simulator a_sim(a);
  const auto base = sim::run_llm_inference(base_sim_, llm);
  const auto design_a = sim::run_llm_inference(a_sim, llm);
  EXPECT_LT(design_a.total.latency, base.total.latency * 1.05);
  EXPECT_GT(base.total.mxu_energy() / design_a.total.mxu_energy(), 15.0);
}

// --- Headline ------------------------------------------------------------------------

TEST_F(PaperClaimsTest, Headline_MaxLlmImprovementOrder44Pct) {
  // Abstract: up to 44.2% LLM performance improvement across explored
  // designs.  Check the best design reaches a >30% improvement.
  sim::LlmScenario scenario;
  scenario.model = gpt3_;
  scenario.model.num_layers = 2;
  scenario.batch = 8;
  scenario.input_len = 1024;
  scenario.output_len = 512;
  arch::TpuChip best(arch::cim_tpu(8, 16, 16));
  sim::Simulator best_sim(best);
  const auto base = sim::run_llm_inference(base_sim_, scenario);
  const auto cim = sim::run_llm_inference(best_sim, scenario);
  EXPECT_GT(1.0 - cim.total.latency / base.total.latency, 0.30);
}

TEST_F(PaperClaimsTest, Headline_MaxDitImprovementOrder338Pct) {
  sim::DitScenario scenario;
  scenario.model = dit_;
  scenario.geometry = geometry_;
  scenario.batch = 8;
  arch::TpuChip best(arch::cim_tpu(8, 16, 16));
  sim::Simulator best_sim(best);
  const auto base = sim::run_dit_inference(base_sim_, scenario);
  const auto cim = sim::run_dit_inference(best_sim, scenario);
  EXPECT_TRUE(
      within_band(1.0 - cim.latency / base.latency, 0.25, 0.45));
}

}  // namespace
}  // namespace cimtpu
