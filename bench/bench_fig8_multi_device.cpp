// Reproduces Fig. 8: multi-TPU inference throughput with pipeline
// parallelism over a ring of 1, 2, and 4 chips, comparing the baseline
// TPUv4i against the optimized CIM designs:
//   Design A (4x 8x8)  — paper: avg +28% LLM throughput, 24.2x MXU energy
//   Design B (8x 16x8) — paper: +33% LLM throughput, 6.34x MXU energy
//
// The paper scales batch size up for multi-device serving ("to accommodate
// large batch sizes") without stating the batch; this bench uses batch 32.

#include <vector>

#include "arch/tpu_config.h"
#include "bench/bench_util.h"
#include "parallel/multi_chip.h"

using namespace cimtpu;

namespace {

struct Design {
  std::string label;
  arch::TpuChipConfig config;
};

std::vector<Design> designs() {
  return {{"baseline", arch::tpu_v4i_baseline()},
          {"Design A", arch::design_a()},
          {"Design B", arch::design_b()}};
}

}  // namespace


namespace {
void BM_llm_pipeline_eval(benchmark::State& state) {
  sim::LlmScenario llm;
  llm.model = models::gpt3_30b();
  llm.batch = 32;
  llm.input_len = 128;
  llm.output_len = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel::evaluate_llm_pipeline(arch::design_a(), llm, 4));
  }
}
BENCHMARK(BM_llm_pipeline_eval);
}  // namespace

int main(int argc, char** argv) {
  bench::banner("Fig. 8", "multi-TPU pipeline-parallel inference throughput");

  CsvWriter csv(bench::output_dir() + "/fig8_multi_device.csv");
  csv.write_header({"workload", "design", "chips", "throughput",
                    "mxu_energy_per_item_j"});

  // --- LLM (GPT3-30B) ---------------------------------------------------------
  sim::LlmScenario llm;
  llm.model = models::gpt3_30b();
  llm.batch = 32;
  llm.input_len = 1024;
  llm.output_len = 512;

  AsciiTable llm_table("Fig. 8 — GPT3-30B serving throughput (tokens/s)");
  llm_table.set_header({"Design", "1 TPU", "2 TPUs", "4 TPUs",
                        "avg speedup", "MXU energy ratio"});
  std::vector<double> base_tps;
  std::vector<double> base_energy;
  for (const Design& design : designs()) {
    std::vector<double> tps;
    double energy_per_request = 0;
    for (int chips : {1, 2, 4}) {
      const auto result =
          parallel::evaluate_llm_pipeline(design.config, llm, chips);
      tps.push_back(result.tokens_per_second);
      energy_per_request = result.mxu_energy_per_request;
      csv.write_row({"gpt3-30b", design.label, cell_i(chips),
                     cell_f(result.tokens_per_second, 2),
                     cell_f(result.mxu_energy_per_request, 6)});
    }
    if (design.label == "baseline") {
      base_tps = tps;
      base_energy.push_back(energy_per_request);
    }
    double speedup = 0;
    for (std::size_t i = 0; i < tps.size(); ++i) speedup += tps[i] / base_tps[i];
    speedup /= tps.size();
    llm_table.add_row({design.label, cell_f(tps[0], 1), cell_f(tps[1], 1),
                       cell_f(tps[2], 1),
                       format_percent_delta(speedup - 1.0),
                       format_ratio(base_energy[0] / energy_per_request)});
  }
  llm_table.print();
  std::printf("  paper: Design A avg +28%% (24.2x MXU energy), "
              "Design B +33%% (6.34x)\n\n");

  // --- DiT (DiT-XL/2) ---------------------------------------------------------
  sim::DitScenario dit;
  dit.model = models::dit_xl_2();
  dit.geometry = models::dit_geometry_512();
  dit.batch = 32;

  AsciiTable dit_table("Fig. 8 — DiT-XL/2 throughput (images/s, one pass)");
  dit_table.set_header({"Design", "1 TPU", "2 TPUs", "4 TPUs",
                        "avg speedup", "MXU energy ratio"});
  std::vector<double> dit_base_ips;
  double dit_base_energy = 0;
  for (const Design& design : designs()) {
    std::vector<double> ips;
    double energy_per_image = 0;
    for (int chips : {1, 2, 4}) {
      const auto result =
          parallel::evaluate_dit_pipeline(design.config, dit, chips);
      ips.push_back(result.images_per_second);
      energy_per_image = result.mxu_energy_per_image;
      csv.write_row({"dit-xl/2", design.label, cell_i(chips),
                     cell_f(result.images_per_second, 3),
                     cell_f(result.mxu_energy_per_image, 6)});
    }
    if (design.label == "baseline") {
      dit_base_ips = ips;
      dit_base_energy = energy_per_image;
    }
    double speedup = 0;
    for (std::size_t i = 0; i < ips.size(); ++i) {
      speedup += ips[i] / dit_base_ips[i];
    }
    speedup /= ips.size();
    dit_table.add_row({design.label, cell_f(ips[0], 2), cell_f(ips[1], 2),
                       cell_f(ips[2], 2), format_percent_delta(speedup - 1.0),
                       format_ratio(dit_base_energy / energy_per_image)});
  }
  dit_table.print();
  std::printf("  paper: CIM-MXU energy reduction up to 24.2x (A) / 6.34x (B)\n");

  return bench::run_microbenchmarks(argc, argv);
}
