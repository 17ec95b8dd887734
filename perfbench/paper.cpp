// The paper's published callouts, reproduced through the simulator's public
// entry points at the paper's own shapes (GPT3-30B, batch 8, 1024 in /
// 512 out; DiT-XL/2 at 512x512), with the acceptance bands
// tests/integration_paper_claims_test.cpp applies to each.

#include <algorithm>

#include "arch/chip.h"
#include "arch/tpu_config.h"
#include "models/model_zoo.h"
#include "sim/workload_runner.h"
#include "workloads.h"

namespace perfbench {

namespace cm = cimtpu::models;
namespace cs = cimtpu::sim;
namespace ca = cimtpu::arch;

namespace {

struct CalloutSpec {
  const char* name;
  double paper;
  double lo;
  double hi;
};

// Published value and paper-claims-test band of each callout.
const CalloutSpec kCallouts[] = {
    // Abstract: up to 44.2% LLM improvement; the test requires > 30%.
    {"paper.llm_best_gain", 0.442, 0.30, 1.0},
    // Fig. 7: DiT latency -33.8% at 8x(16x16).
    {"paper.dit_8x16x16_gain", 0.338, 0.25, 0.45},
    // Fig. 7: 2x(8x8) saves 27.3x MXU energy on LLM inference.
    {"paper.mxu_energy_2x8x8", 27.3, 20.0, 36.0},
    // Fig. 6 decode: -29.9% latency, 13.4x MXU energy, 72.7% faster
    // attention GEMVs.
    {"paper.decode_latency_gain", 0.299, 0.22, 0.38},
    {"paper.decode_mxu_energy", 13.4, 11.0, 16.0},
    {"paper.attention_gemv_gain", 0.727, 0.55, 0.85},
};

struct GroupName {
  const char* graph_group;  ///< the IR's reporting group label
  const char* metric;       ///< sim.group_gain.<metric>
};

const GroupName kGroups[] = {
    {"QKV Gen", "qkv_gen"}, {"Attention", "attention"}, {"Proj.", "proj"},
    {"FFN1", "ffn1"},       {"FFN2", "ffn2"},           {"LayerNorm", "layernorm"},
};

double total_latency(const ca::TpuChipConfig& config,
                     const cs::LlmScenario& scenario) {
  ca::TpuChip chip(config);
  cs::Simulator simulator(chip);
  return cs::run_llm_inference(simulator, scenario).total.latency;
}

}  // namespace

SimOutputs paper_outputs() {
  SimOutputs out;
  ca::TpuChip base_chip(ca::tpu_v4i_baseline());
  ca::TpuChip cim_chip(ca::cim_tpu_default());
  cs::Simulator base(base_chip);
  cs::Simulator cim(cim_chip);

  cs::LlmScenario llm;
  llm.model = cm::gpt3_30b();
  const cs::LlmRunResult base_llm = cs::run_llm_inference(base, llm);

  double best_gain = -1;
  for (int count : {2, 4, 8}) {
    for (const auto& [rows, cols] :
         {std::pair{8, 8}, std::pair{16, 8}, std::pair{16, 16}}) {
      best_gain = std::max(
          best_gain, 1.0 - total_latency(ca::cim_tpu(count, rows, cols), llm) /
                               base_llm.total.latency);
    }
  }
  out["paper.llm_best_gain"] = best_gain;

  {
    ca::TpuChip small_chip(ca::cim_tpu(2, 8, 8));
    cs::Simulator small(small_chip);
    out["paper.mxu_energy_2x8x8"] =
        base_llm.total.mxu_energy() /
        cs::run_llm_inference(small, llm).total.mxu_energy();
  }

  cs::DitScenario dit;
  dit.model = cm::dit_xl_2();
  dit.geometry = cm::dit_geometry_512();
  {
    ca::TpuChip big_chip(ca::cim_tpu(8, 16, 16));
    cs::Simulator big(big_chip);
    out["paper.dit_8x16x16_gain"] =
        1.0 - cs::run_dit_inference(big, dit).latency /
                  cs::run_dit_inference(base, dit).latency;
  }

  const cs::GraphResult base_decode =
      cs::run_decode_layer(base, llm.model, 8, 1280);
  const cs::GraphResult cim_decode =
      cs::run_decode_layer(cim, llm.model, 8, 1280);
  out["paper.decode_latency_gain"] =
      1.0 - cim_decode.latency / base_decode.latency;
  out["paper.decode_mxu_energy"] =
      base_decode.mxu_energy() / cim_decode.mxu_energy();
  out["paper.attention_gemv_gain"] =
      1.0 - cim_decode.groups.at("Attention").latency /
                base_decode.groups.at("Attention").latency;

  for (const GroupName& group : kGroups) {
    const auto b = base_decode.groups.find(group.graph_group);
    const auto c = cim_decode.groups.find(group.graph_group);
    // A group the decode layer does not have reads 0.
    out[std::string("sim.group_gain.") + group.metric] =
        b == base_decode.groups.end() || c == cim_decode.groups.end()
            ? 0.0
            : c->second.latency / b->second.latency;
  }
  return out;
}

std::vector<Callout> paper_callouts(const SimOutputs& outputs) {
  std::vector<Callout> callouts;
  for (const CalloutSpec& spec : kCallouts) {
    const auto it = outputs.find(spec.name);
    callouts.push_back(Callout{spec.name,
                               it == outputs.end() ? -1.0 : it->second,
                               spec.paper, spec.lo, spec.hi});
  }
  return callouts;
}

}  // namespace perfbench
