// Serving helpers shared by chat_ladder and prefix_cluster: output
// bookkeeping, the rate-ladder summary, and the scheduler-level replay.

#include <cmath>
#include <cstdio>
#include <sstream>

#include "arch/chip.h"
#include "common/status.h"
#include "serving/arena.h"
#include "serving/kv_cache_manager.h"
#include "serving/scheduler.h"
#include "serving/step_cost_cache.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

namespace sv = cimtpu::serving;

namespace {

double get(const SimOutputs& outputs, const std::string& key) {
  const auto it = outputs.find(key);
  return it == outputs.end() ? std::nan("") : it->second;
}

std::int64_t registry_counter(const sv::ServingMetrics& metrics,
                              const std::string& name) {
  const auto& counters = metrics.registry.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace

std::string ladder_prefix(double rate, bool cim) {
  std::ostringstream out;
  out << "rate" << rate << (cim ? ".cim" : ".tpu");
  return out.str();
}

std::int64_t total_output_tokens(const std::vector<sv::Request>& requests) {
  std::int64_t total = 0;
  for (const sv::Request& request : requests) total += request.output_len;
  return total;
}

void put_serving_outputs(const std::string& prefix,
                         const sv::ServingMetrics& metrics,
                         std::int64_t expected_tokens, SimOutputs* out) {
  SimOutputs& o = *out;
  o[prefix + ".ttft_p50"] = metrics.ttft.p50;
  o[prefix + ".ttft_p99"] = metrics.ttft.p99;
  o[prefix + ".ttft_count"] = static_cast<double>(metrics.ttft.count);
  o[prefix + ".tpot_p50"] = metrics.tpot.p50;
  o[prefix + ".tpot_p99"] = metrics.tpot.p99;
  o[prefix + ".tpot_count"] = static_cast<double>(metrics.tpot.count);
  o[prefix + ".goodput"] = metrics.goodput_tokens_per_second;
  o[prefix + ".j_per_token"] = metrics.energy_per_token;
  o[prefix + ".slo_attainment"] = metrics.slo_attainment;
  o[prefix + ".sim_end"] = metrics.sim_end_seconds;
  o[prefix + ".steps"] = static_cast<double>(metrics.total_steps);
  o[prefix + ".cost_misses"] = static_cast<double>(metrics.cost_cache_misses);
  // No horizon and no shedding policy: every request arrives, and only
  // the engine's own counters can say otherwise.
  o[prefix + ".arrived"] = static_cast<double>(metrics.num_requests);
  o[prefix + ".completed"] = static_cast<double>(metrics.completed);
  o[prefix + ".shed"] = static_cast<double>(metrics.counters.shed_deadline +
                                            metrics.counters.shed_fault);
  o[prefix + ".cut"] = static_cast<double>(metrics.counters.shed_horizon);
  o[prefix + ".generated"] = static_cast<double>(metrics.generated_tokens);
  o[prefix + ".expected_tokens"] = static_cast<double>(
      metrics.completed == metrics.num_requests ? expected_tokens : -1);
}

void check_serving_prefix(const SimOutputs& outputs, const std::string& prefix,
                          CheckLog* log) {
  ServingAccount account;
  account.label = prefix;
  account.arrived = static_cast<std::int64_t>(get(outputs, prefix + ".arrived"));
  account.completed =
      static_cast<std::int64_t>(get(outputs, prefix + ".completed"));
  account.shed = static_cast<std::int64_t>(get(outputs, prefix + ".shed"));
  account.cut = static_cast<std::int64_t>(get(outputs, prefix + ".cut"));
  account.generated_tokens =
      static_cast<std::int64_t>(get(outputs, prefix + ".generated"));
  account.expected_tokens =
      static_cast<std::int64_t>(get(outputs, prefix + ".expected_tokens"));
  check_serving_account(account, log);
}

void summarize_ladder(const SimOutputs& outputs,
                      const std::vector<double>& rates, double reference_rate,
                      Values* e2e, CheckLog* log) {
  auto meets = [&](double rate, bool cim) {
    return get(outputs, ladder_prefix(rate, cim) + ".slo_attainment") >=
           kSloShare;
  };
  auto max_rate = [&](bool cim) {
    double best = 0;
    for (double rate : rates) {
      if (!meets(rate, cim)) break;
      best = rate;
    }
    return best;
  };
  for (double rate : rates) {
    check_serving_prefix(outputs, ladder_prefix(rate, false), log);
    check_serving_prefix(outputs, ladder_prefix(rate, true), log);
  }
  // The ladder must bracket both knees, or max_rate_rps is clipped.
  log->expect(meets(rates.front(), false) && meets(rates.front(), true),
              "a chip misses the SLO on the lowest rung");
  log->expect(!meets(rates.back(), false) && !meets(rates.back(), true),
              "a chip still meets the SLO on the top rung");

  const std::string cim = ladder_prefix(reference_rate, true);
  const std::string tpu = ladder_prefix(reference_rate, false);
  for (const char* field : {".ttft_p50", ".ttft_p99", ".tpot_p50",
                            ".tpot_p99"}) {
    log->expect(get(outputs, cim + field) <= get(outputs, tpu + field),
                std::string("CIM") + field + " above TPUv4i's at the "
                                             "reference rung");
  }
  Values& out = *e2e;
  out["ttft_p50_s"] = get(outputs, cim + ".ttft_p50");
  out["ttft_p99_s"] = get(outputs, cim + ".ttft_p99");
  out["tpot_p50_s"] = get(outputs, cim + ".tpot_p50");
  out["tpot_p99_s"] = get(outputs, cim + ".tpot_p99");
  out["j_per_token"] = get(outputs, cim + ".j_per_token");
  out["goodput_tok_s"] =
      get(outputs, ladder_prefix(rates.back(), true) + ".goodput");
  const double cim_max = max_rate(true);
  const double tpu_max = max_rate(false);
  out["max_rate_rps"] = cim_max;
  out["cim_capacity_x"] = tpu_max > 0 ? cim_max / tpu_max : 0.0;
  log->expect(tpu_max > 0 && cim_max / tpu_max > 1.0,
              "CIM capacity is not above TPUv4i's");
}

void print_cell(const SimOutputs& outputs, const std::string& p) {
  std::printf("# %-20s %10.4g %10.4g %10.4g %10.4g %8.0f %9.5f %10.2f %9.4f\n",
              p.c_str(), get(outputs, p + ".ttft_p50"),
              get(outputs, p + ".ttft_p99"), get(outputs, p + ".tpot_p50"),
              get(outputs, p + ".tpot_p99"), get(outputs, p + ".ttft_count"),
              get(outputs, p + ".slo_attainment"), get(outputs, p + ".goodput"),
              get(outputs, p + ".j_per_token"));
}

void print_ladder(const SimOutputs& outputs, const std::vector<double>& rates) {
  std::printf("# %-20s %10s %10s %10s %10s %8s %9s %10s %9s\n", "cell",
              "ttft_p50", "ttft_p99", "tpot_p50", "tpot_p99", "samples",
              "slo_met", "goodput", "J/token");
  for (double rate : rates) {
    print_cell(outputs, ladder_prefix(rate, false));
    print_cell(outputs, ladder_prefix(rate, true));
  }
}

// --- Scheduler-level replay ----------------------------------------------------

ReplayCounts replay_engine(const sv::ServingScenario& scenario,
                           const std::vector<sv::Request>& requests,
                           Tracer* tracer) {
  CIMTPU_CONFIG_CHECK(scenario.chips == 1 &&
                          scenario.tensor_parallel_ways == 1 &&
                          !scenario.fault.enabled &&
                          scenario.max_sim_seconds == 0,
                      "the replay covers single-chip, fault-free, "
                      "horizon-free runs only");
  cimtpu::arch::TpuChip chip(scenario.chip_config);
  cimtpu::sim::Simulator simulator(chip);
  sv::StepCostCache costs(simulator, scenario.model,
                          scenario.scheduler.seqlen_bucket);
  const cimtpu::Bytes budget =
      scenario.kv_budget_override > 0
          ? scenario.kv_budget_override
          : sv::KvCacheManager::hbm_kv_budget(
                scenario.model, chip.memory().spec().hbm.capacity, 1);
  sv::KvCacheManager kv_cache(budget,
                              sv::KvCacheManager::token_bytes(scenario.model),
                              scenario.eviction, scenario.host_pool_capacity,
                              scenario.scheduler.kv_block_tokens,
                              scenario.scheduler.enable_prefix_cache);
  sv::ContinuousBatchScheduler scheduler(scenario.scheduler, &kv_cache);
  sv::StepArena arena;
  arena.warm(scenario.scheduler.max_batch,
             scenario.scheduler.max_prefill_batch);
  sv::StepRecord& step = arena.record();

  const double layers = static_cast<double>(scenario.model.num_layers);
  ReplayCounts counts;
  double now = 0;
  std::size_t next = 0;
  for (;;) {
    while (next < requests.size() && requests[next].arrival_time <= now) {
      scheduler.enqueue(requests[next++]);
    }
    if (scheduler.idle()) {
      if (next >= requests.size()) break;
      now = std::max(now, requests[next].arrival_time);
      continue;
    }
    scheduler.set_time(now);
    bool stepped = false;
    {
      Tracer::Scope span(tracer, "scheduler.next_step");
      stepped = scheduler.next_step(&step);
    }
    if (!stepped) continue;
    const std::int64_t misses_before = costs.misses();
    tracer->open("step_cost_cache.cost_step");
    const sv::StepCost cost = sv::cost_step(costs, step);
    const double cost_seconds = tracer->close();
    if (costs.misses() > misses_before) counts.miss_seconds += cost_seconds;
    // The engine's single-chip cadence: layers x per-layer latency (plus a
    // zero pipeline handoff), then swap traffic serialized on the host link.
    const double stage_time = layers * cost.latency + 0.0;
    now += stage_time + step.swap_bytes / scenario.host_link_bandwidth;
    ++counts.steps;
    if (step.kind == sv::StepRecord::Kind::kPrefill) {
      ++counts.prefill_steps;
    } else {
      ++counts.decode_steps;
    }
  }
  counts.cost_hits = costs.hits();
  counts.cost_misses = costs.misses();
  counts.sim_end_seconds = now;
  return counts;
}

std::int64_t compare_replay(const std::string& label,
                            const ReplayCounts& replay,
                            const sv::ServingMetrics& engine,
                            CheckLog* log) {
  std::int64_t mismatches = 0;
  auto same = [&](bool ok, const char* what) {
    log->expect(ok, label + ": replay " + what + " differs from the engine's");
    if (!ok) ++mismatches;
  };
  same(replay.steps == engine.total_steps, "step count");
  same(replay.prefill_steps == engine.prefill_steps, "prefill step count");
  same(replay.decode_steps == engine.decode_steps, "decode step count");
  same(replay.cost_hits == engine.cost_cache_hits, "cost-cache hits");
  same(replay.cost_misses == engine.cost_cache_misses, "cost-cache misses");
  same(replay.sim_end_seconds == engine.sim_end_seconds, "final clock");
  std::printf("# replay %-18s steps %lld/%lld  cost hits %lld/%lld  misses "
              "%lld/%lld  (replay/engine)%s\n",
              label.c_str(), static_cast<long long>(replay.steps),
              static_cast<long long>(engine.total_steps),
              static_cast<long long>(replay.cost_hits),
              static_cast<long long>(engine.cost_cache_hits),
              static_cast<long long>(replay.cost_misses),
              static_cast<long long>(engine.cost_cache_misses),
              mismatches > 0 ? "  MISMATCH" : "");
  return mismatches;
}

// --- Layer counts ----------------------------------------------------------------

void ServingLayerCounts::add(const sv::ServingMetrics& metrics) {
  steps += metrics.total_steps;
  prefill_steps += metrics.prefill_steps;
  decode_steps += metrics.decode_steps;
  const auto& histograms = metrics.registry.histograms();
  const auto batch = histograms.find("engine.step_batch");
  if (batch != histograms.end()) {
    batch_sum += batch->second.sum();
    batch_count += batch->second.count();
  }
  preemptions_recompute += metrics.counters.preemptions_recompute;
  cost_hits += metrics.cost_cache_hits;
  cost_misses += metrics.cost_cache_misses;
  prefix_lookup_tokens += metrics.counters.prefix_lookup_tokens;
  prefix_hit_tokens += metrics.counters.prefix_hit_tokens;
  blocks_allocated += registry_counter(metrics, "kv.blocks_allocated_total");
  cow_blocks += metrics.counters.prefix_cow_blocks;
  reclaimed_blocks +=
      registry_counter(metrics, "kv.cached_blocks_reclaimed_total");
  fragmentation_weighted += metrics.kv_internal_fragmentation *
                            static_cast<double>(metrics.total_steps);
  sim_wall_seconds += metrics.sim_wall_seconds;
}

void ServingLayerCounts::publish(Values* layers) const {
  Values& out = *layers;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out["scheduler.steps"] = static_cast<double>(steps);
  out["scheduler.prefill_steps"] = static_cast<double>(prefill_steps);
  out["scheduler.decode_steps"] = static_cast<double>(decode_steps);
  out["scheduler.batch_mean"] =
      ratio(batch_sum, static_cast<double>(batch_count));
  out["scheduler.preemptions_recompute"] =
      static_cast<double>(preemptions_recompute);
  out["step_cost_cache.hits"] = static_cast<double>(cost_hits);
  out["step_cost_cache.misses"] = static_cast<double>(cost_misses);
  out["step_cost_cache.hit_ratio"] =
      ratio(static_cast<double>(cost_hits),
            static_cast<double>(cost_hits + cost_misses));
  out["kv_cache_manager.prefix_hit_rate"] =
      ratio(static_cast<double>(prefix_hit_tokens),
            static_cast<double>(prefix_lookup_tokens));
  out["kv_cache_manager.blocks_allocated"] =
      static_cast<double>(blocks_allocated);
  out["kv_cache_manager.cow_blocks"] = static_cast<double>(cow_blocks);
  out["kv_cache_manager.reclaimed_blocks"] =
      static_cast<double>(reclaimed_blocks);
  out["kv_cache_manager.fragmentation"] =
      ratio(fragmentation_weighted, static_cast<double>(steps));
}

void put_span_self(const Tracer& tracer, const char* span, const char* metric,
                   Values* layers) {
  (*layers)[metric] = tracer.totals_for(span).self_s;
}

ReplayCounts& ReplayCounts::operator+=(const ReplayCounts& other) {
  steps += other.steps;
  prefill_steps += other.prefill_steps;
  decode_steps += other.decode_steps;
  cost_hits += other.cost_hits;
  cost_misses += other.cost_misses;
  miss_seconds += other.miss_seconds;
  return *this;
}

void publish_replay(const Tracer& tracer, const ReplayCounts& total,
                    std::int64_t mismatches, Values* layers) {
  put_span_self(tracer, "scheduler.next_step", "scheduler.next_step_s",
                layers);
  put_span_self(tracer, "step_cost_cache.cost_step",
                "step_cost_cache.cost_step_s", layers);
  Values& out = *layers;
  out["step_cost_cache.miss_s"] = total.miss_seconds;
  out["replay.steps"] = static_cast<double>(total.steps);
  out["replay.cost_hits"] = static_cast<double>(total.cost_hits);
  out["replay.cost_misses"] = static_cast<double>(total.cost_misses);
  out["replay.mismatches"] = static_cast<double>(mismatches);
}

void publish_engine_spans(const Tracer& tracer, std::int64_t engine_steps,
                          Values* layers) {
  const double pump_s = tracer.totals_for("serving_sim.inject").total_s +
                        tracer.totals_for("serving_sim.pump").total_s;
  (*layers)["serving_sim.pump_s"] = pump_s;
  put_span_self(tracer, "serving_sim.finish", "serving_sim.finish_s", layers);
  (*layers)["serving_sim.steps_per_s"] =
      pump_s > 0 ? static_cast<double>(engine_steps) / pump_s : 0.0;
}

}  // namespace perfbench
