// design_sweep: the paper's Table IV / Fig. 7 design grid — TPUv4i plus
// cim_tpu(count in {2,4,8}, grid in {8x8, 16x8, 16x16}), which includes
// Designs A (4x(8x8)) and B (8x(16x8)) — evaluated with
// sim::run_llm_inference on llama2-7b, llama2-13b and gpt3-30b at seeded
// (batch, in, out) shapes around the paper's 8/1024/512, and with
// sim::run_dit_inference on DiT-XL/2 at 512x512 at seeded batches.  Host
// time goes to graph building, the mapper and the operator simulator; the
// serving stack is not touched.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "arch/chip.h"
#include "arch/tpu_config.h"
#include "common/rng.h"
#include "mapping/mapper.h"
#include "models/dit.h"
#include "models/llm.h"
#include "models/model_zoo.h"
#include "sim/workload_runner.h"
#include "workloads.h"

namespace perfbench {

namespace ca = cimtpu::arch;
namespace cm = cimtpu::models;
namespace cs = cimtpu::sim;
namespace ir = cimtpu::ir;

namespace {

struct Design {
  std::string name;
  bool cim = false;
  std::unique_ptr<ca::TpuChip> chip;
  std::unique_ptr<cs::Simulator> simulator;
  std::unique_ptr<cimtpu::mapping::Mapper> mapper;  ///< traced probes only
};

/// Host-side tallies of the traced execution.
struct TraceCounts {
  std::int64_t ops = 0;
  std::int64_t candidates = 0;
  std::int64_t layer_evals = 0;
  std::int64_t mapping_sink = 0;  ///< keeps the probe results observable
};

/// Accumulates one op result into a graph result exactly as
/// Simulator::run does (same fields, same order).
void accumulate(cs::OpResult op_result, cs::GraphResult* result) {
  result->latency += op_result.latency;
  result->useful_macs += op_result.useful_macs;
  result->mxu_busy_energy += op_result.mxu_busy_energy;
  result->mxu_idle_energy += op_result.mxu_idle_energy;
  result->mxu_leakage_energy += op_result.mxu_leakage_energy;
  result->vpu_energy += op_result.vpu_energy;
  result->memory_energy += op_result.memory_energy;
  if (op_result.on_mxu) result->mxu_busy_time += op_result.compute_time;
  cs::GroupSummary& group = result->groups[op_result.group];
  group.latency += op_result.latency;
  group.mxu_energy += op_result.mxu_energy();
  group.total_energy += op_result.mxu_energy() + op_result.vpu_energy +
                        op_result.memory_energy;
  result->ops.push_back(std::move(op_result));
}

/// Builds and runs one layer graph op by op, with a span around the model
/// builder, each mapper probe and each Simulator::run_op call.
template <typename Build>
cs::GraphResult traced_layer(const Design& design, Build build, Tracer* tracer,
                             TraceCounts* counts) {
  Tracer::Scope eval(tracer, "sim.layer_eval");
  ir::Graph graph;
  {
    Tracer::Scope span(tracer, "models.build");
    graph = build();
  }
  counts->ops += static_cast<std::int64_t>(graph.size());
  ++counts->layer_evals;
  Tracer::Scope run(tracer, "sim.graph_run");
  cs::GraphResult result;
  result.name = graph.name();
  result.ops.reserve(graph.size());
  for (const ir::Op& op : graph.ops()) {
    if (op.is_matmul()) {
      // Side calls with the same input: the mapper is deterministic and
      // stateless, and run_op makes one best_mapping call of its own.
      {
        Tracer::Scope span(tracer, "mapping.best_mapping");
        counts->mapping_sink += design.mapper->best_mapping(op).units_used;
      }
      {
        Tracer::Scope span(tracer, "mapping.enumerate");
        counts->candidates +=
            static_cast<std::int64_t>(design.mapper->enumerate(op).size());
      }
      tracer->open("sim.run_op_mxu");
    } else {
      tracer->open("sim.run_op_vpu");
    }
    cs::OpResult op_result = design.simulator->run_op(op);
    tracer->close();
    accumulate(std::move(op_result), &result);
  }
  return result;
}

}  // namespace

class DesignSweep : public Workload {
 public:
  explicit DesignSweep(Scale scale) : scale_(scale) {}

  void setup(std::uint64_t seed, Tracer* tracer) override {
    (void)tracer;  // no request generator here
    designs_.clear();
    add_design("tpu_v4i", ca::tpu_v4i_baseline(), false);
    if (scale_ == Scale::kTiny) {
      add_design("cim_2x8x8", ca::cim_tpu(2, 8, 8), true);
      add_design("cim_8x16x16", ca::cim_tpu(8, 16, 16), true);
    } else {
      for (int count : {2, 4, 8}) {
        for (const auto& [rows, cols] :
             {std::pair{8, 8}, std::pair{16, 8}, std::pair{16, 16}}) {
          add_design("cim_" + std::to_string(count) + "x" +
                         std::to_string(rows) + "x" + std::to_string(cols),
                     ca::cim_tpu(count, rows, cols), true);
        }
      }
    }
    models_ = {cm::llama2_7b(), cm::llama2_13b(), cm::gpt3_30b()};
    dit_ = cm::dit_xl_2();
    geometry_ = cm::dit_geometry_512();

    // Shapes around the paper's batch 8 / 1024 in / 512 out: the seed moves
    // prompt and output lengths by up to 1/16, so the grid's work (and its
    // simulated percentiles) stays comparable from seed to seed.
    cimtpu::Rng rng(seed);
    const int per_model = scale_ == Scale::kTiny ? 1 : 6;
    shapes_.clear();
    for (std::size_t m = 0; m < models_.size(); ++m) {
      for (int i = 0; i < per_model; ++i) {
        cs::LlmScenario shape;
        shape.model = models_[m];
        shape.batch = 8;
        shape.input_len = rng.uniform_int(960, 1088);
        shape.output_len = scale_ == Scale::kTiny ? rng.uniform_int(4, 8)
                                                  : rng.uniform_int(480, 544);
        shapes_.push_back(shape);
      }
    }
    dit_batches_.clear();
    for (int i = 0; i < (scale_ == Scale::kTiny ? 1 : 3); ++i) {
      dit_batches_.push_back(rng.uniform_int(6, 10));
    }
  }

  SimOutputs run() override {
    SimOutputs out;
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      for (std::size_t s = 0; s < shapes_.size(); ++s) {
        put_llm(d, s,
                cs::run_llm_inference(*designs_[d].simulator,
                                      shapes_[s]),
                &out);
      }
      for (std::size_t b = 0; b < dit_batches_.size(); ++b) {
        put_dit(d, b,
                cs::run_dit_inference(*designs_[d].simulator, dit_scenario(b)),
                &out);
      }
    }
    return out;
  }

  std::int64_t operations() const override {
    return static_cast<std::int64_t>(designs_.size() *
                                     (shapes_.size() + dit_batches_.size()));
  }

  std::int64_t incomplete(const SimOutputs& outputs) const override {
    std::int64_t missing = 0;
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      for (std::size_t s = 0; s < shapes_.size(); ++s) {
        if (outputs.count(llm_key(d, s, "latency")) == 0) ++missing;
      }
      for (std::size_t b = 0; b < dit_batches_.size(); ++b) {
        if (outputs.count(dit_key(d, b, "latency")) == 0) ++missing;
      }
    }
    return missing;
  }

  void summarize(const SimOutputs& outputs, Values* e2e,
                 CheckLog* log) const override {
    std::vector<double> ttft, tpot, goodput, joules;
    double base_rate = 0;
    double best_cim_rate = 0;
    bool all_finite = true;
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      double batches = 0;
      double latency_sum = 0;
      for (std::size_t s = 0; s < shapes_.size(); ++s) {
        const double latency = value(outputs, llm_key(d, s, "latency"));
        const double tokens = value(outputs, llm_key(d, s, "tokens"));
        ttft.push_back(value(outputs, llm_key(d, s, "ttft")));
        tpot.push_back(value(outputs, llm_key(d, s, "tpot")));
        goodput.push_back(tokens / latency);
        joules.push_back(value(outputs, llm_key(d, s, "energy")) / tokens);
        batches += static_cast<double>(shapes_[s].batch);
        latency_sum += latency;
        all_finite = all_finite && std::isfinite(latency) && latency > 0;
      }
      for (std::size_t b = 0; b < dit_batches_.size(); ++b) {
        const double latency = value(outputs, dit_key(d, b, "latency"));
        all_finite = all_finite && std::isfinite(latency) && latency > 0;
      }
      // Fixed-batch request throughput of the design over the LLM shapes.
      const double rate = batches / latency_sum;
      if (designs_[d].cim) {
        best_cim_rate = std::max(best_cim_rate, rate);
      } else {
        base_rate = rate;
      }
    }
    log->expect(all_finite, "a design evaluation returned a non-positive or "
                            "non-finite latency");
    Values& out = *e2e;
    out["ttft_p50_s"] = percentile(ttft, 50);
    out["ttft_p99_s"] = percentile(ttft, 99);
    out["tpot_p50_s"] = percentile(tpot, 50);
    out["tpot_p99_s"] = percentile(tpot, 99);
    out["goodput_tok_s"] = median(goodput);
    out["j_per_token"] = median(joules);
    out["max_rate_rps"] = best_cim_rate;
    out["cim_capacity_x"] = base_rate > 0 ? best_cim_rate / base_rate : 0.0;
    log->expect(base_rate > 0 && best_cim_rate > base_rate,
                "no CIM design beats TPUv4i's LLM throughput");
  }

  SimOutputs run_traced(Tracer* tracer, Values* layers, CheckLog* log,
                        double* mirror_seconds) override {
    // Pass 1: every layer graph opened up op by op.
    TraceCounts counts;
    SimOutputs ops_pass;
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      for (std::size_t s = 0; s < shapes_.size(); ++s) {
        put_llm(d, s, traced_llm(designs_[d], shapes_[s], tracer,
                                 &counts),
                &ops_pass);
      }
      for (std::size_t b = 0; b < dit_batches_.size(); ++b) {
        put_dit(d, b, traced_dit(designs_[d], dit_scenario(b), tracer, &counts),
                &ops_pass);
      }
    }
    // Pass 2: the public per-layer entry points, one span per call, for
    // the host time of a layer evaluation without the mapper probes.
    std::vector<double> layer_seconds;
    SimOutputs layer_pass;
    const Clock::time_point mirror_start = Clock::now();
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      for (std::size_t s = 0; s < shapes_.size(); ++s) {
        put_llm(d, s, layered_llm(designs_[d], shapes_[s], tracer,
                                  &layer_seconds),
                &layer_pass);
      }
      for (std::size_t b = 0; b < dit_batches_.size(); ++b) {
        put_dit(d, b, layered_dit(designs_[d], dit_scenario(b), tracer,
                                  &layer_seconds),
                &layer_pass);
      }
    }
    *mirror_seconds = seconds_since(mirror_start);
    check_identical(ops_pass, layer_pass,
                    "op-level and layer-level traced outputs", log);

    Values& out = *layers;
    put_span_self(*tracer, "models.build", "models.build_s", layers);
    out["models.ops"] = static_cast<double>(counts.ops);
    put_span_self(*tracer, "mapping.best_mapping", "mapping.best_mapping_s",
                  layers);
    put_span_self(*tracer, "mapping.enumerate", "mapping.enumerate_s", layers);
    out["mapping.candidates"] = static_cast<double>(counts.candidates);
    put_span_self(*tracer, "sim.run_op_mxu", "sim.run_op_mxu_s", layers);
    put_span_self(*tracer, "sim.run_op_vpu", "sim.run_op_vpu_s", layers);
    put_span_self(*tracer, "sim.graph_run", "sim.graph_run_s", layers);
    put_span_self(*tracer, "sim.layer_eval", "sim.layer_eval_s", layers);
    put_span_self(*tracer, "sim.run_layer", "sim.run_layer_s", layers);
    out["sim.layer_evals"] = static_cast<double>(counts.layer_evals);
    std::vector<double> micros;
    micros.reserve(layer_seconds.size());
    for (double s : layer_seconds) micros.push_back(s * 1e6);
    out["sim.layer_eval_us_p50"] = percentile(micros, 50);
    out["sim.layer_eval_us_p99"] = percentile(micros, 99);
    std::printf("# design_sweep traced: %lld layer evaluations, %lld ops, "
                "%zu timed layer calls (mapper probe sink %lld)\n",
                static_cast<long long>(counts.layer_evals),
                static_cast<long long>(counts.ops), layer_seconds.size(),
                static_cast<long long>(counts.mapping_sink));
    return ops_pass;
  }

  std::vector<Corruption> corruptions() const override {
    return {
        {"negative design latency",
         [](SimOutputs* o) { (*o)[llm_key(0, 0, "latency")] = -1.0; },
         nullptr},
        {"missing design evaluation",
         [](SimOutputs* o) { o->erase(llm_key(0, 0, "latency")); }, nullptr},
        {"CIM designs slower than TPUv4i",
         [this](SimOutputs* o) {
           for (std::size_t d = 1; d < designs_.size(); ++d) {
             for (std::size_t s = 0; s < shapes_.size(); ++s) {
               (*o)[llm_key(d, s, "latency")] *= 100.0;
             }
           }
         },
         nullptr},
    };
  }

 private:
  void add_design(const std::string& name, const ca::TpuChipConfig& config,
                  bool cim) {
    Design design;
    design.name = name;
    design.cim = cim;
    design.chip = std::make_unique<ca::TpuChip>(config);
    design.simulator = std::make_unique<cs::Simulator>(*design.chip);
    design.mapper = std::make_unique<cimtpu::mapping::Mapper>(
        design.chip->mxu(), design.chip->mxu_count());
    designs_.push_back(std::move(design));
  }

  cs::DitScenario dit_scenario(std::size_t b) const {
    cs::DitScenario scenario;
    scenario.model = dit_;
    scenario.geometry = geometry_;
    scenario.batch = dit_batches_[b];
    return scenario;
  }

  static std::string llm_key(std::size_t d, std::size_t s, const char* field) {
    return "llm.d" + std::to_string(d) + ".s" + std::to_string(s) + "." + field;
  }
  static std::string dit_key(std::size_t d, std::size_t b, const char* field) {
    return "dit.d" + std::to_string(d) + ".b" + std::to_string(b) + "." + field;
  }
  static double value(const SimOutputs& outputs, const std::string& key) {
    const auto it = outputs.find(key);
    return it == outputs.end() ? std::nan("") : it->second;
  }

  void put_llm(std::size_t d, std::size_t s, const cs::LlmRunResult& result,
               SimOutputs* out) const {
    const cs::LlmScenario& scenario = shapes_[s];
    (*out)[llm_key(d, s, "ttft")] = result.prefill.latency;
    (*out)[llm_key(d, s, "tpot")] = result.decode_latency_per_token;
    (*out)[llm_key(d, s, "latency")] = result.total.latency;
    (*out)[llm_key(d, s, "energy")] = result.total.total_energy();
    (*out)[llm_key(d, s, "mxu_energy")] = result.total.mxu_energy();
    (*out)[llm_key(d, s, "tokens")] =
        static_cast<double>(scenario.batch * scenario.output_len);
  }

  void put_dit(std::size_t d, std::size_t b, const cs::GraphResult& result,
               SimOutputs* out) const {
    (*out)[dit_key(d, b, "latency")] = result.latency;
    (*out)[dit_key(d, b, "energy")] = result.total_energy();
    (*out)[dit_key(d, b, "mxu_energy")] = result.mxu_energy();
  }

  // --- Pass 1: run_llm_inference / run_dit_inference composed from
  // op-level calls (same composition order as sim/workload_runner.cpp) ---

  cs::LlmRunResult traced_llm(const Design& design,
                              const cs::LlmScenario& scenario, Tracer* tracer,
                              TraceCounts* counts) const {
    const cm::TransformerConfig& model = scenario.model;
    const double layers = static_cast<double>(model.num_layers);
    cs::LlmRunResult result;
    cs::GraphResult prefill_layer = traced_layer(
        design,
        [&] {
          const ir::Residency kv = cs::kv_residency_for(
              *design.chip, model, scenario.batch, scenario.input_len);
          return cm::build_prefill_layer(model, scenario.batch,
                                         scenario.input_len, kv);
        },
        tracer, counts);
    result.prefill_latency_per_layer = prefill_layer.latency;
    result.prefill = prefill_layer;
    result.prefill.scale(layers);
    for (std::int64_t t = 1; t <= scenario.output_len; ++t) {
      const std::int64_t kv_len = scenario.input_len + t;
      cs::GraphResult step = traced_layer(
          design,
          [&] {
            const ir::Residency kv = cs::kv_residency_for(
                *design.chip, model, scenario.batch, kv_len);
            return cm::build_decode_layer(model, scenario.batch, kv_len, kv);
          },
          tracer, counts);
      step.scale(layers);
      result.decode += step;
    }
    finish_llm(scenario, &result);
    return result;
  }

  cs::GraphResult traced_dit(const Design& design,
                             const cs::DitScenario& scenario, Tracer* tracer,
                             TraceCounts* counts) const {
    cs::GraphResult block = traced_layer(
        design,
        [&] {
          return cm::build_dit_block(scenario.model, scenario.geometry,
                                     scenario.batch);
        },
        tracer, counts);
    block.scale(static_cast<double>(scenario.model.num_layers));
    cs::GraphResult pre = traced_layer(
        design,
        [&] {
          return cm::build_dit_preprocess(scenario.model, scenario.geometry,
                                          scenario.batch);
        },
        tracer, counts);
    cs::GraphResult post = traced_layer(
        design,
        [&] {
          return cm::build_dit_postprocess(scenario.model, scenario.geometry,
                                           scenario.batch);
        },
        tracer, counts);
    return finish_dit(scenario, pre, block, post);
  }

  // --- Pass 2: the same compositions over the public per-layer calls ------

  cs::LlmRunResult layered_llm(const Design& design,
                               const cs::LlmScenario& scenario, Tracer* tracer,
                               std::vector<double>* seconds) const {
    const cs::Simulator& simulator = *design.simulator;
    const double layers = static_cast<double>(scenario.model.num_layers);
    cs::LlmRunResult result;
    tracer->open("sim.run_layer");
    cs::GraphResult prefill_layer = cs::run_prefill_layer(
        simulator, scenario.model, scenario.batch, scenario.input_len);
    seconds->push_back(tracer->close());
    result.prefill_latency_per_layer = prefill_layer.latency;
    result.prefill = prefill_layer;
    result.prefill.scale(layers);
    for (std::int64_t t = 1; t <= scenario.output_len; ++t) {
      tracer->open("sim.run_layer");
      cs::GraphResult step =
          cs::run_decode_layer(simulator, scenario.model, scenario.batch,
                               scenario.input_len + t);
      seconds->push_back(tracer->close());
      step.scale(layers);
      result.decode += step;
    }
    finish_llm(scenario, &result);
    return result;
  }

  cs::GraphResult layered_dit(const Design& design,
                              const cs::DitScenario& scenario, Tracer* tracer,
                              std::vector<double>* seconds) const {
    const cs::Simulator& simulator = *design.simulator;
    tracer->open("sim.run_layer");
    cs::GraphResult block = cs::run_dit_block(simulator, scenario.model,
                                              scenario.geometry,
                                              scenario.batch);
    seconds->push_back(tracer->close());
    block.scale(static_cast<double>(scenario.model.num_layers));
    tracer->open("sim.run_layer");
    cs::GraphResult pre = simulator.run(cm::build_dit_preprocess(
        scenario.model, scenario.geometry, scenario.batch));
    seconds->push_back(tracer->close());
    tracer->open("sim.run_layer");
    cs::GraphResult post = simulator.run(cm::build_dit_postprocess(
        scenario.model, scenario.geometry, scenario.batch));
    seconds->push_back(tracer->close());
    return finish_dit(scenario, pre, block, post);
  }

  static void finish_llm(const cs::LlmScenario& scenario,
                         cs::LlmRunResult* result) {
    result->prefill.name = scenario.model.name + "-prefill";
    result->decode.name = scenario.model.name + "-decode";
    result->decode_latency_per_token =
        scenario.output_len > 0
            ? result->decode.latency / static_cast<double>(scenario.output_len)
            : 0.0;
    result->total = result->prefill;
    result->total += result->decode;
  }

  static cs::GraphResult finish_dit(const cs::DitScenario& scenario,
                                    const cs::GraphResult& pre,
                                    const cs::GraphResult& block,
                                    const cs::GraphResult& post) {
    cs::GraphResult total = pre;
    total += block;
    total += post;
    total.scale(static_cast<double>(scenario.sampling_steps));
    return total;
  }

  Scale scale_;
  std::vector<Design> designs_;
  std::vector<cm::TransformerConfig> models_;
  std::vector<cs::LlmScenario> shapes_;
  cm::TransformerConfig dit_;
  cm::DitGeometry geometry_;
  std::vector<std::int64_t> dit_batches_;
};

std::unique_ptr<Workload> make_design_sweep(Scale scale) {
  return std::make_unique<DesignSweep>(scale);
}

}  // namespace perfbench
