// Ablation: sequence-length balance.  The CIM-based TPU's end-to-end win
// depends on the prefill:decode ratio — long generations amplify the
// decode advantage, long prompts dilute it.  This sweep contextualizes the
// paper's Fig. 7 (1024 in / 512 out) choice; the Fig. 7 bands this
// reproduction holds are pinned in tests/integration_paper_claims_test.cpp.

#include "arch/chip.h"
#include "arch/tpu_config.h"
#include "bench/bench_util.h"
#include "sim/workload_runner.h"

using namespace cimtpu;

namespace {

void BM_llm_sweep_point(benchmark::State& state) {
  arch::TpuChip chip(arch::cim_tpu_default());
  sim::Simulator simulator(chip);
  sim::LlmScenario scenario;
  scenario.model = models::gpt3_30b();
  scenario.model.num_layers = 2;
  scenario.input_len = 1024;
  scenario.output_len = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_llm_inference(simulator, scenario));
  }
}
BENCHMARK(BM_llm_sweep_point)->Arg(64)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Ablation: sequence lengths",
                "CIM benefit vs prompt and generation length");

  CsvWriter csv(bench::output_dir() + "/ablation_seqlen.csv");
  csv.write_header({"input_len", "output_len", "design", "latency_s",
                    "mxu_energy_j"});

  auto evaluate = [&](const arch::TpuChipConfig& config, std::int64_t in,
                      std::int64_t out) {
    arch::TpuChip chip(config);
    sim::Simulator simulator(chip);
    sim::LlmScenario scenario;
    scenario.model = models::gpt3_30b();
    scenario.model.num_layers = 2;  // ratios are layer-invariant
    scenario.batch = 8;
    scenario.input_len = in;
    scenario.output_len = out;
    const auto run = sim::run_llm_inference(simulator, scenario);
    csv.write_row({cell_i(in), cell_i(out), config.name,
                   cell_f(run.total.latency, 9),
                   cell_f(run.total.mxu_energy(), 9)});
    return run;
  };

  AsciiTable out_sweep(
      "Output-length sweep (input 1024): CIM-TPU & Design A vs baseline");
  out_sweep.set_header({"output len", "decode share (base)", "CIM latency",
                        "Design A latency", "Design A energy"});
  for (std::int64_t out : {32, 128, 512, 2048}) {
    const auto base = evaluate(arch::tpu_v4i_baseline(), 1024, out);
    const auto cim = evaluate(arch::cim_tpu_default(), 1024, out);
    const auto a = evaluate(arch::design_a(), 1024, out);
    out_sweep.add_row(
        {cell_i(out),
         cell_f(100.0 * base.decode.latency / base.total.latency, 1) + "%",
         format_percent_delta(cim.total.latency / base.total.latency - 1.0),
         format_percent_delta(a.total.latency / base.total.latency - 1.0),
         format_ratio(base.total.mxu_energy() / a.total.mxu_energy())});
  }
  out_sweep.print();
  std::printf("  longer generations -> bigger decode share -> bigger CIM win\n\n");

  AsciiTable in_sweep("Prompt-length sweep (output 512)");
  in_sweep.set_header({"input len", "prefill share (base)", "CIM latency",
                       "Design A latency"});
  for (std::int64_t in : {128, 512, 1024, 4096}) {
    const auto base = evaluate(arch::tpu_v4i_baseline(), in, 512);
    const auto cim = evaluate(arch::cim_tpu_default(), in, 512);
    const auto a = evaluate(arch::design_a(), in, 512);
    in_sweep.add_row(
        {cell_i(in),
         cell_f(100.0 * base.prefill.latency / base.total.latency, 1) + "%",
         format_percent_delta(cim.total.latency / base.total.latency - 1.0),
         format_percent_delta(a.total.latency / base.total.latency - 1.0)});
  }
  in_sweep.print();

  return bench::run_microbenchmarks(argc, argv);
}
