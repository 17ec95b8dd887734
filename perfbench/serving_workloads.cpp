// The two serving workloads.
//
// chat_ladder: llama2-7b INT8 on zipf-chat traffic (FIFO, one chip), a
// rate ladder on both tpu_v4i_baseline and cim_tpu_default submitted as
// ONE run_sweep grid with a shared step-cost cache.  Host time goes to the
// scheduler, cost-cache hits, KV growth and recompute preemption; the
// analytic model only sees ~100-180 cost-cache misses per cell.
//
// prefix_cluster: four colocated replicas behind a router, each the
// paged-KV prefix-caching deployment (16-token blocks) serving the prefix
// chatbot stream: prefix hits, copy-on-write tail blocks and mid-sequence
// prefill, plus the router and the multi-replica clock — on both chip
// designs over a short rate ladder, plus one prefix_affinity cell.
//
// Arrivals are open loop: each rung's trace is a seeded Poisson schedule
// in simulated time, generated before the run, and TTFT is measured from
// each request's scheduled arrival.  The generator cannot run late.

#include <cstdio>
#include <memory>

#include "arch/tpu_config.h"
#include "serving/cluster.h"
#include "serving/step_cost_cache.h"
#include "serving/sweep.h"
#include "serving/traffic_profiles.h"
#include "workloads.h"

namespace perfbench {

namespace sv = cimtpu::serving;
namespace ca = cimtpu::arch;

namespace {

/// A rate ladder's request traces, one per rung, with the SLO deadlines
/// attached so the engine reports per-request SLO attainment.  FIFO
/// admission never reads deadlines, so they change no other metric.
struct Ladder {
  std::vector<double> rates;
  double reference_rate = 0;
  std::vector<std::vector<sv::Request>> traces;
  std::vector<std::int64_t> expected_tokens;  ///< sum of output_len per rung

  template <typename Stream>
  void generate(std::uint64_t seed, std::int64_t requests, Stream stream,
                Tracer* tracer) {
    traces.clear();
    expected_tokens.clear();
    for (double rate : rates) {
      sv::RequestStreamConfig config = stream(seed, requests, rate);
      config.ttft_deadline_s = sv::kSloTtftDeadline;
      config.tpot_deadline_s = sv::kSloTpotDeadline;
      Tracer::Scope span(tracer, "request_gen");
      traces.push_back(sv::generate_requests(config));
    }
    for (const auto& trace : traces) {
      expected_tokens.push_back(total_output_tokens(trace));
    }
  }

  std::int64_t generated() const {
    std::int64_t total = 0;
    for (const auto& trace : traces) {
      total += static_cast<std::int64_t>(trace.size());
    }
    return total;
  }
};

std::int64_t incomplete_requests(const SimOutputs& outputs,
                                 const std::vector<double>& rates) {
  std::int64_t missing = 0;
  for (double rate : rates) {
    for (bool cim : {false, true}) {
      const std::string prefix = ladder_prefix(rate, cim);
      const auto arrived = outputs.find(prefix + ".arrived");
      const auto completed = outputs.find(prefix + ".completed");
      if (arrived == outputs.end() || completed == outputs.end()) continue;
      missing += static_cast<std::int64_t>(arrived->second -
                                           completed->second);
    }
  }
  return missing;
}

/// Corruptions the rate-ladder checks must catch.
std::vector<Corruption> ladder_corruptions(double reference_rate,
                                           double top_rate) {
  const std::string cim = ladder_prefix(reference_rate, true);
  const std::string tpu = ladder_prefix(reference_rate, false);
  const std::string top = ladder_prefix(top_rate, true);
  const std::string top_tpu = ladder_prefix(top_rate, false);
  return {
      {"lost request (completed + shed + cut != arrived)",
       [cim](SimOutputs* o) { (*o)[cim + ".completed"] -= 1; }, nullptr},
      {"generated tokens off by one",
       [cim](SimOutputs* o) { (*o)[cim + ".generated"] += 1; }, nullptr},
      {"CIM slower than TPUv4i at the reference rung",
       [cim](SimOutputs* o) { (*o)[cim + ".ttft_p99"] = 1e9; },
       [cim, tpu](SimOutputs* o) {
         for (const char* f : {".ttft_p50", ".ttft_p99", ".tpot_p50",
                               ".tpot_p99"}) {
           (*o)[cim + f] = 0.5 * (*o)[tpu + f];
         }
       }},
      {"ladder top rung meets the SLO",
       [top](SimOutputs* o) { (*o)[top + ".slo_attainment"] = 1.0; },
       [top, top_tpu](SimOutputs* o) {
         (*o)[top + ".slo_attainment"] = 0.5;
         (*o)[top_tpu + ".slo_attainment"] = 0.5;
       }},
  };
}

sv::ServingScenario chat_scenario(bool cim) {
  sv::ServingScenario scenario =
      sv::llama7b_baseline_scenario(/*chips=*/1, cimtpu::ir::DType::kInt8);
  scenario.chip_config = cim ? ca::cim_tpu_default() : ca::tpu_v4i_baseline();
  return scenario;
}

}  // namespace

// --- chat_ladder -----------------------------------------------------------------

class ChatLadder : public Workload {
 public:
  explicit ChatLadder(Scale scale) {
    if (scale == Scale::kTiny) {
      ladder_.rates = {0.2, 1.5};
      ladder_.reference_rate = 0.2;
      requests_ = 300;
    } else {
      ladder_.rates = {0.25, 0.38, 0.55, 1.5};
      ladder_.reference_rate = 0.38;
      requests_ = 80000;
    }
  }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    ladder_.generate(
        seed, requests_,
        [](std::uint64_t s, std::int64_t n, double rate) {
          return sv::zipf_chat_stream(s, n, rate);
        },
        tracer);
    points_.clear();
    for (std::size_t i = 0; i < ladder_.rates.size(); ++i) {
      for (bool cim : {false, true}) {
        sv::SweepPoint point;
        point.label = ladder_prefix(ladder_.rates[i], cim);
        point.scenario = chat_scenario(cim);
        point.requests = &ladder_.traces[i];
        points_.push_back(std::move(point));
      }
    }
  }

  SimOutputs run() override { return outputs_of(run_sweep(nullptr)); }

  // Both chips replay every rung's trace.
  std::int64_t operations() const override { return 2 * ladder_.generated(); }
  std::int64_t generated_requests() const override {
    return ladder_.generated();
  }

  std::int64_t incomplete(const SimOutputs& outputs) const override {
    return incomplete_requests(outputs, ladder_.rates);
  }

  void summarize(const SimOutputs& outputs, Values* e2e,
                 CheckLog* log) const override {
    summarize_ladder(outputs, ladder_.rates, ladder_.reference_rate, e2e, log);
  }

  void print_details(const SimOutputs& outputs) const override {
    print_ladder(outputs, ladder_.rates);
  }

  SimOutputs run_traced(Tracer* tracer, Values* layers, CheckLog* log,
                        double* mirror_seconds) override {
    Values& out = *layers;
    // Pass 1: the timed unit itself, one span around run_sweep.
    sv::SharedStepCostCache shared;
    std::vector<sv::ServingMetrics> metrics;
    {
      Tracer::Scope span(tracer, "sweep.run");
      metrics = run_sweep(&shared);
    }
    const Tracer::Totals sweep = tracer->totals_for("sweep.run");
    *mirror_seconds = sweep.total_s;
    ServingLayerCounts counts;
    for (const sv::ServingMetrics& m : metrics) counts.add(m);
    counts.publish(layers);
    out["sweep.run_s"] = sweep.total_s;
    out["sweep.overhead_s"] = sweep.total_s - counts.sim_wall_seconds;
    out["sweep.shared_cost_entries"] =
        static_cast<double>(shared.total_entries());
    const SimOutputs outputs = outputs_of(metrics);

    // Pass 2: every cell again through ServingEngine directly, so the
    // engine's event loop and its end-of-run rollup get separate spans.
    SimOutputs engine_outputs;
    std::int64_t engine_steps = 0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      sv::ServingEngine engine(points_[i].scenario);
      {
        Tracer::Scope span(tracer, "serving_sim.inject");
        for (const sv::Request& request : *points_[i].requests) {
          engine.inject(request);
        }
      }
      {
        Tracer::Scope span(tracer, "serving_sim.pump");
        engine.drain();
      }
      sv::ServingMetrics m;
      {
        Tracer::Scope span(tracer, "serving_sim.finish");
        m = engine.finish();
      }
      engine_steps += m.total_steps;
      put_serving_outputs(points_[i].label, m, ladder_.expected_tokens[i / 2],
                          &engine_outputs);
    }
    check_identical(outputs, engine_outputs,
                    "run_sweep and direct ServingEngine outputs", log);
    publish_engine_spans(*tracer, engine_steps, layers);

    // Pass 3: the scheduler-level replay of every cell.
    ReplayCounts total;
    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const ReplayCounts replay =
          replay_engine(points_[i].scenario, *points_[i].requests, tracer);
      mismatches += compare_replay(points_[i].label, replay, metrics[i], log);
      total += replay;
    }
    publish_replay(*tracer, total, mismatches, layers);
    return outputs;
  }

  std::vector<Corruption> corruptions() const override {
    return ladder_corruptions(ladder_.reference_rate, ladder_.rates.back());
  }

 private:
  std::vector<sv::ServingMetrics> run_sweep(sv::SharedStepCostCache* shared) {
    sv::SweepOptions options;
    options.threads = 1;  // one worker: the steadiest timing
    options.share_cost_cache = true;
    options.shared_cache = shared;  // nullptr: a fresh internal cache per run
    return sv::run_sweep(points_, options);
  }

  SimOutputs outputs_of(const std::vector<sv::ServingMetrics>& metrics) const {
    SimOutputs out;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      put_serving_outputs(points_[i].label, metrics[i],
                          ladder_.expected_tokens[i / 2], &out);
    }
    return out;
  }

  Ladder ladder_;
  std::int64_t requests_ = 0;
  std::vector<sv::SweepPoint> points_;
};

// --- prefix_cluster -----------------------------------------------------------------

// The ladder's clusters route with least_loaded.  prefix_affinity, the
// router that keeps each prefix family on one replica, places a family on
// the least-loaded replica at the family's first request, ties going to
// the lowest index; at low load an idle replica that already owns a family
// ties with the empty ones, so for some seeds two of the four families
// share a replica (Jain across replicas 0.5-0.67 at 8-10 req/s, and one seed
// in ten even at 20 req/s, where that replica's TTFT p99 reaches minutes).
// Its SLO verdicts (and its host time) would flip from seed to seed, so
// prefix_affinity runs as one extra cell of the traced run only, whose
// balance and hit rate are reported per layer.
class PrefixCluster : public Workload {
 public:
  static constexpr int kReplicas = 4;
  static constexpr const char* kAffinityLabel = "affinity.rate20.cim";

  explicit PrefixCluster(Scale scale) {
    // Rates bracket both chips' knees, as on chat_ladder.
    ladder_.rates = {10.0, 20.0, 40.0};
    ladder_.reference_rate = 20.0;
    requests_ = scale == Scale::kTiny ? 300 : 20000;
  }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    ladder_.generate(
        seed, requests_,
        [](std::uint64_t s, std::int64_t n, double rate) {
          return sv::prefix_chatbot_stream(s, n, rate);
        },
        tracer);
    cells_.clear();
    for (std::size_t i = 0; i < ladder_.rates.size(); ++i) {
      for (bool cim : {false, true}) {
        Cell cell;
        cell.label = ladder_prefix(ladder_.rates[i], cim);
        cell.rung = i;
        cell.config.base =
            sv::prefix_cache_scenario(cimtpu::ir::DType::kInt8, true);
        cell.config.base.chip_config =
            cim ? ca::cim_tpu_default() : ca::tpu_v4i_baseline();
        cell.config.replicas.assign(kReplicas, sv::ReplicaSpec{});
        cell.config.router_policy = "least_loaded";
        cells_.push_back(std::move(cell));
      }
    }
    affinity_ = cells_[reference_cell()];
    affinity_.label = kAffinityLabel;
    affinity_.config.router_policy = "prefix_affinity";
  }

  SimOutputs run() override {
    SimOutputs out;
    for (const Cell& cell : cells_) {
      put_cluster(cell, sv::run_serving_cluster(cell.config, trace(cell)),
                  &out);
    }
    return out;
  }

  // Both chips replay every rung's trace.
  std::int64_t operations() const override { return 2 * ladder_.generated(); }
  std::int64_t generated_requests() const override {
    return ladder_.generated();
  }

  std::int64_t incomplete(const SimOutputs& outputs) const override {
    return incomplete_requests(outputs, ladder_.rates);
  }

  void summarize(const SimOutputs& outputs, Values* e2e,
                 CheckLog* log) const override {
    summarize_ladder(outputs, ladder_.rates, ladder_.reference_rate, e2e, log);
    for (const Cell& cell : cells_) {
      // A silently disabled prefix cache must not pass.
      const auto hit = outputs.find(cell.label + ".prefix_hit_rate");
      log->expect(hit != outputs.end() && hit->second > 0,
                  cell.label + ": prefix hit rate is 0");
    }
  }

  void print_details(const SimOutputs& outputs) const override {
    print_ladder(outputs, ladder_.rates);
  }

  SimOutputs run_traced(Tracer* tracer, Values* layers, CheckLog* log,
                        double* mirror_seconds) override {
    Values& out = *layers;
    // Pass 1: the timed unit, one span per run_serving_cluster call.
    SimOutputs outputs;
    std::vector<sv::ClusterMetrics> clusters;
    for (const Cell& cell : cells_) {
      Tracer::Scope span(tracer, "cluster.run");
      clusters.push_back(sv::run_serving_cluster(cell.config, trace(cell)));
    }
    *mirror_seconds = tracer->totals_for("cluster.run").total_s;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      put_cluster(cells_[c], clusters[c], &outputs);
    }
    // The prefix_affinity cell, outside the timed unit.
    std::vector<Cell> cells = cells_;
    cells.push_back(affinity_);
    {
      Tracer::Scope span(tracer, "cluster.run");
      clusters.push_back(sv::run_serving_cluster(affinity_.config,
                                                 trace(affinity_)));
    }
    SimOutputs affinity_outputs;
    put_cluster(affinity_, clusters.back(), &affinity_outputs);
    check_serving_prefix(affinity_outputs, affinity_.label, log);
    log->expect(clusters.back().prefix_hit_rate > 0,
                affinity_.label + ": prefix hit rate is 0");
    print_cell(affinity_outputs, affinity_.label);
    ServingLayerCounts counts;
    for (const sv::ClusterMetrics& cluster : clusters) {
      for (const sv::ServingMetrics& m : cluster.replica_metrics) counts.add(m);
    }
    counts.publish(layers);
    out["cluster.run_s"] = tracer->totals_for("cluster.run").total_s;
    out["cluster.prefix_hit_rate"] = clusters.back().prefix_hit_rate;
    out["cluster.jain_across_replicas"] = clusters.back().jain_across_replicas;

    // Pass 2: the cluster's colocated loop driven from outside — every
    // replica pumped to each arrival, the router asked, the request
    // injected — so routing and the engines get separate spans.
    std::int64_t engine_steps = 0;
    std::int64_t mismatches = 0;
    ReplayCounts total;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::vector<std::vector<sv::Request>> routed(kReplicas);
      std::vector<sv::ServingMetrics> replicas =
          drive_cluster(cells[c], tracer, &routed);
      SimOutputs driven, reported;
      for (int r = 0; r < kReplicas; ++r) {
        const std::string label = cells[c].label + ".r" + std::to_string(r);
        engine_steps += replicas[r].total_steps;
        put_serving_outputs(label, replicas[r], -1, &driven);
        put_serving_outputs(label, clusters[c].replica_metrics[r], -1,
                            &reported);
        // Pass 3: each replica's routed requests through the scheduler-level
        // replay.
        const ReplayCounts replay =
            replay_engine(cells[c].config.base, routed[r], tracer);
        mismatches += compare_replay(label, replay,
                                     clusters[c].replica_metrics[r], log);
        total += replay;
      }
      check_identical(driven, reported,
                      cells[c].label +
                          ": driven and run_serving_cluster replica outputs",
                      log);
    }
    put_span_self(*tracer, "cluster.route", "cluster.route_s", layers);
    publish_engine_spans(*tracer, engine_steps, layers);
    publish_replay(*tracer, total, mismatches, layers);
    return outputs;
  }

  std::vector<Corruption> corruptions() const override {
    std::vector<Corruption> list =
        ladder_corruptions(ladder_.reference_rate, ladder_.rates.back());
    const std::string cim = ladder_prefix(ladder_.reference_rate, true);
    list.push_back({"prefix cache silently disabled",
                    [cim](SimOutputs* o) { (*o)[cim + ".prefix_hit_rate"] = 0.0; },
                    nullptr});
    return list;
  }

 private:
  struct Cell {
    std::string label;
    std::size_t rung = 0;
    sv::ClusterConfig config;
  };

  const std::vector<sv::Request>& trace(const Cell& cell) const {
    return ladder_.traces[cell.rung];
  }

  std::size_t reference_cell() const {
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (cells_[c].label == ladder_prefix(ladder_.reference_rate, true)) {
        return c;
      }
    }
    return 0;
  }

  void put_cluster(const Cell& cell, const sv::ClusterMetrics& cluster,
                   SimOutputs* out) const {
    SimOutputs& o = *out;
    const std::string& p = cell.label;
    double energy = 0;
    std::int64_t cut = 0;
    for (const sv::ServingMetrics& m : cluster.replica_metrics) {
      energy += m.total_energy;
      cut += m.counters.shed_horizon;
    }
    o[p + ".ttft_p50"] = cluster.ttft.p50;
    o[p + ".ttft_p99"] = cluster.ttft.p99;
    o[p + ".ttft_count"] = static_cast<double>(cluster.ttft.count);
    o[p + ".tpot_p50"] = cluster.tpot.p50;
    o[p + ".tpot_p99"] = cluster.tpot.p99;
    o[p + ".tpot_count"] = static_cast<double>(cluster.tpot.count);
    o[p + ".goodput"] = cluster.goodput_tokens_per_second;
    o[p + ".j_per_token"] =
        cluster.generated_tokens > 0
            ? energy / static_cast<double>(cluster.generated_tokens)
            : 0.0;
    o[p + ".slo_attainment"] = cluster.slo_attainment;
    o[p + ".prefix_hit_rate"] = cluster.prefix_hit_rate;
    o[p + ".jain_across_replicas"] = cluster.jain_across_replicas;
    o[p + ".makespan"] = cluster.makespan;
    o[p + ".arrived"] = static_cast<double>(cluster.arrived);
    o[p + ".completed"] = static_cast<double>(cluster.completed);
    o[p + ".shed"] = static_cast<double>(cluster.shed);
    o[p + ".cut"] = static_cast<double>(cut);
    o[p + ".generated"] = static_cast<double>(cluster.generated_tokens);
    o[p + ".expected_tokens"] = static_cast<double>(
        cluster.completed == cluster.arrived
            ? ladder_.expected_tokens[cell.rung]
            : -1);
  }

  /// run_serving_cluster's colocated path, driven from outside.
  std::vector<sv::ServingMetrics> drive_cluster(
      const Cell& cell, Tracer* tracer,
      std::vector<std::vector<sv::Request>>* routed) const {
    std::vector<std::unique_ptr<sv::ServingEngine>> engines;
    for (int r = 0; r < kReplicas; ++r) {
      engines.push_back(std::make_unique<sv::ServingEngine>(cell.config.base));
    }
    std::unique_ptr<sv::RouterPolicy> router =
        sv::make_router_policy(cell.config.router_policy, kReplicas);
    std::vector<sv::ReplicaLoad> loads(kReplicas);
    for (const sv::Request& request : trace(cell)) {
      {
        Tracer::Scope span(tracer, "serving_sim.pump");
        for (auto& engine : engines) engine->pump(request.arrival_time);
      }
      for (int r = 0; r < kReplicas; ++r) {
        loads[r].outstanding_tokens = engines[r]->outstanding_tokens();
      }
      int pick = 0;
      {
        Tracer::Scope span(tracer, "cluster.route");
        pick = router->route(request, loads);
      }
      {
        Tracer::Scope span(tracer, "serving_sim.inject");
        engines[pick]->inject(request);
      }
      (*routed)[pick].push_back(request);
    }
    std::vector<sv::ServingMetrics> metrics;
    {
      Tracer::Scope span(tracer, "serving_sim.pump");
      for (auto& engine : engines) engine->drain();
    }
    Tracer::Scope span(tracer, "serving_sim.finish");
    for (auto& engine : engines) metrics.push_back(engine->finish());
    return metrics;
  }

  Ladder ladder_;
  std::int64_t requests_ = 0;
  std::vector<Cell> cells_;  ///< the ladder: the timed unit
  Cell affinity_;            ///< prefix_affinity at the reference rate
};

std::unique_ptr<Workload> make_chat_ladder(Scale scale) {
  return std::make_unique<ChatLadder>(scale);
}

std::unique_ptr<Workload> make_prefix_cluster(Scale scale) {
  return std::make_unique<PrefixCluster>(scale);
}

std::vector<std::string> workload_names() {
  return {"design_sweep", "chat_ladder", "prefix_cluster"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale) {
  if (name == "design_sweep") return make_design_sweep(scale);
  if (name == "chat_ladder") return make_chat_ladder(scale);
  if (name == "prefix_cluster") return make_prefix_cluster(scale);
  return nullptr;
}

}  // namespace perfbench
