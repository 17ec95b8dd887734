#include "serving/serving_sim.h"

#include "serving/arena.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "arch/chip.h"
#include "common/math_util.h"
#include "common/status.h"
#include "parallel/multi_chip.h"
#include "sim/simulator.h"

namespace cimtpu::serving {

void ServingScenario::validate() const {
  CIMTPU_CONFIG_CHECK(chips >= 1, "serving needs >= 1 chip");
  CIMTPU_CONFIG_CHECK(model.num_layers >= chips,
                      "fewer layers than pipeline stages");
  CIMTPU_CONFIG_CHECK(tensor_parallel_ways >= 1,
                      "tensor_parallel_ways must be >= 1, got "
                          << tensor_parallel_ways);
  CIMTPU_CONFIG_CHECK(tensor_parallel_ways == 1 || chips == 1,
                      "tensor parallelism (" << tensor_parallel_ways
                                             << "-way) cannot combine with "
                                                "pipeline stages (chips="
                                             << chips << ")");
  CIMTPU_CONFIG_CHECK(host_link_bandwidth > 0,
                      "host link bandwidth must be positive");
  CIMTPU_CONFIG_CHECK(host_pool_capacity >= 0,
                      "host pool capacity must be >= 0");
  CIMTPU_CONFIG_CHECK(max_sim_seconds >= 0,
                      "max_sim_seconds must be >= 0 (0 = run to drain)");
  CIMTPU_CONFIG_CHECK(kv_budget_override >= 0,
                      "kv_budget_override must be >= 0 (0 = derive from HBM "
                      "headroom), got " << format_bytes(kv_budget_override));
  scheduler.validate();
  trace.validate();
  fault.validate();
}

namespace {

/// Per-request bookkeeping across the run.
struct RequestTrace {
  Seconds arrival = 0;
  std::int64_t output_len = 0;
  std::int64_t total_tokens = 0;  ///< prompt + output (outstanding-load gauge)
  Seconds first_token = -1;  ///< < 0 until the first token is emitted
  Seconds completion = -1;
  bool shed = false;  ///< dropped by admission control (never completes)
  Seconds last_fault = -1;  ///< open repair interval: a fault struck and
                            ///< the request has not recovered yet
  int retry_attempts = 0;   ///< fault re-admissions consumed (vs the budget)
};

/// A fault-evicted request waiting out its exponential backoff before
/// re-entering admission.
struct PendingRetry {
  Request request;
  Seconds ready_time = 0;
  int attempt = 0;  ///< 1-based re-admission attempt this entry represents
  bool emitted_first_token = false;
};

/// Per-tenant accumulator for the schema-v4 breakdown.
struct TenantAccum {
  std::int64_t num_requests = 0;
  std::int64_t completed = 0;
  std::int64_t generated_tokens = 0;
  std::vector<double> ttft;
  std::vector<double> e2e;
};

/// The model whose shapes the cost cache simulates: the TP shard when
/// tensor parallelism is on (its "-tpN" name keys a distinct shared-cache
/// signature automatically), the full model otherwise.
models::TransformerConfig costed_model_for(const ServingScenario& scenario) {
  return scenario.tensor_parallel_ways > 1
             ? parallel::shard_tensor_parallel(scenario.model,
                                               scenario.tensor_parallel_ways)
             : scenario.model;
}

SharedStepCostCache::Store* shared_store_for(
    const ServingScenario& scenario, const models::TransformerConfig& costed,
    SharedStepCostCache* shared_costs) {
  return shared_costs == nullptr
             ? nullptr
             : shared_costs->store(cost_cache_signature(
                   scenario.chip_config, costed,
                   scenario.scheduler.seqlen_bucket));
}

Bytes resolve_kv_budget(const ServingScenario& scenario,
                        const arch::TpuChip& chip,
                        const models::TransformerConfig& costed) {
  if (scenario.kv_budget_override > 0) return scenario.kv_budget_override;
  if (scenario.tensor_parallel_ways > 1) {
    // Each shard holds 1/ways of the weights and 1/ways of every token's
    // KV (heads sharded), so the cluster-wide budget is ways times one
    // shard's HBM headroom — the whole point of TP serving: models whose
    // FULL weights exceed one chip's HBM still leave KV room.
    return static_cast<double>(scenario.tensor_parallel_ways) *
           KvCacheManager::hbm_kv_budget(
               costed, chip.memory().spec().hbm.capacity, /*chips=*/1);
  }
  return KvCacheManager::hbm_kv_budget(
      scenario.model, chip.memory().spec().hbm.capacity, scenario.chips);
}

SchedulerConfig effective_scheduler_config(const ServingScenario& scenario) {
  // Degraded-mode EDF slack rides the fault config; inject it into the
  // admission config before the policy is constructed.  Faults off leaves
  // the scheduler config byte-identical to the scenario's.
  SchedulerConfig config = scenario.scheduler;
  if (scenario.fault.enabled &&
      scenario.fault.degraded_extra_shed_slack_s > 0) {
    config.admission.edf_degraded_extra_slack_s =
        scenario.fault.degraded_extra_shed_slack_s;
  }
  return config;
}

}  // namespace

struct ServingEngine::Impl {
  ServingScenario scenario;
  std::chrono::steady_clock::time_point wall_start;
  arch::TpuChip chip;
  sim::Simulator simulator;
  models::TransformerConfig costed_model;
  StepCostCache costs;
  KvCacheManager kv_cache;
  ContinuousBatchScheduler scheduler;

  // Observability: the trace sink attaches only when event tracing or
  // time-series sampling is on — otherwise the scheduler's trace pointer
  // stays null and the loop below skips every trace branch (the
  // zero-allocation-when-disabled contract).  `tracing`/`sampling` are
  // hoisted so the hot loop branches on locals, never on config fields.
  ServingTrace local_trace;
  ServingTrace* trace;
  TimeSeriesSampler sampler;
  bool tracing;
  bool sampling;
  /// Decode fast-forward gate: event tracing, time-series sampling and
  /// fault polling all observe individual steps, so any of them keeps the
  /// engine on the per-step path.
  bool fast_forward;

  std::int64_t layers;
  std::int64_t stage_layers;
  int boundaries;
  double activation_elem_bytes;
  int tp_ways;
  double tp_scale;  ///< chip count each layer's work/energy replicates over

  std::vector<Request> requests;  ///< injected, arrival-sorted
  std::unordered_map<std::int64_t, RequestTrace> traces;
  std::unordered_set<std::int64_t> prefilled_ids;  ///< inject_prefilled ids

  ServingMetrics metrics;
  FixedBucketHistogram* step_latency_histogram;
  FixedBucketHistogram* step_batch_histogram;

  Seconds now = 0;
  Seconds busy_time = 0;  ///< MXU busy time summed over all stages
  double fragmentation_sum = 0;  ///< per-step internal-fragmentation samples
  std::size_t next_arrival = 0;
  bool horizon_hit = false;
  bool finished = false;

  std::int64_t outstanding_tokens = 0;
  bool log_completions = false;
  std::vector<std::pair<std::int64_t, Seconds>> completed_log;

  // --- Fault injection state (serving/fault.h) ----------------------------
  // All of it is consulted only behind `faults_on`; the fault rngs are
  // dedicated streams, so the off path is bit-identical to a build without
  // the subsystem.
  bool faults_on;
  FaultProcess fault_process;
  DegradationController degrade;
  FaultStats fault_stats;
  std::deque<PendingRetry> retry_queue;
  std::vector<double> repair_times;  ///< MTTR samples (seconds)
  Seconds stall_until = -1;          ///< active stall window end
  std::int64_t fault_sheds = 0;
  int degraded_max_batch;

  StepArena arena;         // per-run step scratch (see serving/arena.h)
  StepRecord& step;        // = arena.record(); reused across all steps —
                           // warm()ed to steady-state capacity, so the
                           // serving loop allocates nothing per step

  Impl(const ServingScenario& scenario_in, SharedStepCostCache* shared_costs,
       ServingTrace* trace_out)
      : scenario(scenario_in),
        wall_start(std::chrono::steady_clock::now()),
        chip(scenario.chip_config),
        simulator(chip),
        costed_model(costed_model_for(scenario)),
        costs(simulator, costed_model, scenario.scheduler.seqlen_bucket,
              shared_store_for(scenario, costed_model, shared_costs)),
        kv_cache(resolve_kv_budget(scenario, chip, costed_model),
                 KvCacheManager::token_bytes(scenario.model),
                 scenario.eviction, scenario.host_pool_capacity,
                 scenario.scheduler.kv_block_tokens,
                 scenario.scheduler.enable_prefix_cache),
        scheduler(effective_scheduler_config(scenario), &kv_cache),
        trace(trace_out != nullptr ? trace_out : &local_trace),
        sampler(scenario.trace.sample_interval),
        tracing(scenario.trace.enabled),
        sampling(sampler.enabled()),
        fast_forward(!tracing && !sampling && !scenario.fault.enabled),
        layers(scenario.model.num_layers),
        stage_layers(ceil_div<std::int64_t>(layers, scenario.chips)),
        boundaries(scenario.chips - 1),
        activation_elem_bytes(ir::dtype_bytes(scenario.model.dtype) *
                              static_cast<double>(scenario.model.d_model)),
        tp_ways(scenario.tensor_parallel_ways),
        tp_scale(static_cast<double>(scenario.tensor_parallel_ways)),
        faults_on(scenario.fault.enabled),
        fault_process(scenario.fault),
        degrade(scenario.fault),
        degraded_max_batch(std::max(
            1,
            static_cast<int>(static_cast<double>(scenario.scheduler.max_batch) *
                             scenario.fault.degraded_max_batch_fraction))),
        step(arena.record()) {
    arena.warm(scenario.scheduler.max_batch,
               scenario.scheduler.max_prefill_batch);
    *trace = ServingTrace(scenario.trace);
    if (tracing || sampling) scheduler.set_trace_sink(trace);
    metrics.chips = scenario.chips * tp_ways;

    // Registry instruments resolved ONCE (map references are stable), so
    // per-step observation is an increment — no name lookups in the loop.
    // Always on: they depend only on the deterministic step sequence, so
    // metrics stay bit-identical with tracing on or off.
    step_latency_histogram = &metrics.registry.histogram(
        "engine.step_latency_s", exponential_bounds(1e-4, 2.0, 20));
    step_batch_histogram = &metrics.registry.histogram(
        "engine.step_batch", exponential_bounds(1, 2.0, 10));
  }

  void feed_arrivals(Seconds up_to) {
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival_time <= up_to) {
      const Request& request = requests[next_arrival];
      CIMTPU_CONFIG_CHECK(
          next_arrival == 0 ||
              requests[next_arrival - 1].arrival_time <= request.arrival_time,
          "request trace must be sorted by arrival time");
      RequestTrace request_trace;
      request_trace.arrival = request.arrival_time;
      request_trace.output_len = request.output_len;
      request_trace.total_tokens = request.prompt_len + request.output_len;
      traces[request.id] = request_trace;
      if (tracing) trace->on_arrive(request);
      if (!prefilled_ids.empty() && prefilled_ids.count(request.id) > 0) {
        scheduler.enqueue_prefilled(request);
      } else {
        scheduler.enqueue(request);
      }
      ++next_arrival;
    }
  }

  // Removes a fault-struck request from the engine and either schedules a
  // backoff re-admission (recovery on, budget left) or sheds it with
  // cause "fault".  Opens the request's repair interval for MTTR.
  void fault_evict(std::int64_t request_id, Seconds fault_time) {
    Request request;
    ContinuousBatchScheduler::ResidentInfo progress;
    const bool removed =
        scheduler.remove_for_fault(request_id, &request, &progress);
    CIMTPU_CHECK(removed);
    fault_stats.wasted_recompute_tokens +=
        (progress.prefilled - progress.prefix_skipped) + progress.generated;
    RequestTrace& request_trace = traces.at(request_id);
    request_trace.last_fault = fault_time;
    if (scenario.fault.recovery_enabled &&
        request_trace.retry_attempts < scenario.fault.retry_budget) {
      request_trace.retry_attempts += 1;
      const Seconds backoff = std::min(
          scenario.fault.retry_backoff_base_s *
              std::pow(2.0,
                       static_cast<double>(request_trace.retry_attempts - 1)),
          scenario.fault.retry_backoff_max_s);
      fault_stats.retries += 1;
      retry_queue.push_back(PendingRetry{request, fault_time + backoff,
                                         request_trace.retry_attempts,
                                         request_trace.first_token >= 0});
    } else {
      request_trace.shed = true;
      request_trace.last_fault = -1;  // dropped, never repaired: not in MTTR
      fault_stats.dropped += 1;
      fault_sheds += 1;
      outstanding_tokens -= request_trace.total_tokens;
      if (tracing) trace->on_shed_fault(request_id, fault_time);
    }
  }

  void poll_faults() {
    // Deliver every fault event due by the current clock, in time order
    // (events landing mid-step surface here, stamped with their own event
    // time).
    FaultEvent event;
    while (fault_process.poll(now, &event)) {
      switch (event.type) {
        case FaultType::kStall: {
          stall_until = std::max(stall_until,
                                 event.time + scenario.fault.stall_duration_s);
          fault_stats.stalls += 1;
          degrade.on_fault(event.time);
          if (tracing) {
            trace->on_fault(-1, static_cast<std::int64_t>(FaultType::kStall),
                            event.time, 0, scenario.fault.stall_duration_s);
          }
          break;
        }
        case FaultType::kKvLoss: {
          const std::int64_t resident =
              static_cast<std::int64_t>(scheduler.running_count());
          if (resident == 0) break;  // struck an empty device: no-op
          fault_stats.kv_losses += 1;
          degrade.on_fault(event.time);
          const auto info = scheduler.resident_info(static_cast<std::size_t>(
              fault_process.pick_victim(resident)));
          const std::int64_t computed =
              (info.prefilled - info.prefix_skipped) + info.generated;
          if (tracing) {
            trace->on_fault(info.request_id,
                            static_cast<std::int64_t>(FaultType::kKvLoss),
                            event.time, computed, 0);
          }
          if (scenario.fault.recovery_enabled &&
              scenario.fault.kv_restore ==
                  FaultConfig::KvRestoreMode::kHostRestore) {
            Bytes bytes = 0;
            if (scheduler.restore_resident_from_host(info.request_id,
                                                     &bytes)) {
              // In-place repair: the engine pays the PCIe re-fetch before
              // the next step runs.
              const Seconds restore_time =
                  bytes / scenario.host_link_bandwidth;
              now += restore_time;
              fault_stats.host_restores += 1;
              fault_stats.host_restore_bytes += bytes;
              repair_times.push_back(restore_time);
              if (tracing) {
                trace->on_recover(info.request_id, /*mechanism=*/1,
                                  event.time, bytes, 0);
              }
              break;
            }
          }
          fault_evict(info.request_id, event.time);
          break;
        }
        case FaultType::kDeviceFailure: {
          fault_stats.device_failures += 1;
          degrade.on_fault(event.time);
          // Every resident loses its device KV; swapped-out sequences
          // survive in the host pool.  Snapshot ids first — eviction
          // mutates the resident order.
          std::vector<std::int64_t> victims;
          std::int64_t lost_tokens = 0;
          victims.reserve(scheduler.running_count());
          for (std::size_t i = 0; i < scheduler.running_count(); ++i) {
            const auto info = scheduler.resident_info(i);
            victims.push_back(info.request_id);
            lost_tokens +=
                (info.prefilled - info.prefix_skipped) + info.generated;
          }
          if (tracing) {
            trace->on_fault(
                -1, static_cast<std::int64_t>(FaultType::kDeviceFailure),
                event.time, lost_tokens, scenario.fault.device_restart_s);
          }
          for (std::int64_t id : victims) fault_evict(id, event.time);
          kv_cache.drop_cached_blocks();  // prefix cache does not survive
          // Downtime: the engine is back at the end of the restart epoch
          // (clamped to the horizon like the idle-advance below).
          Seconds resume = event.time + scenario.fault.device_restart_s;
          if (scenario.max_sim_seconds > 0) {
            resume = std::min(resume, scenario.max_sim_seconds);
          }
          now = std::max(now, resume);
          break;
        }
      }
    }
    if (degrade.enabled() && degrade.update(now)) {
      const bool entering = degrade.degraded();
      scheduler.set_degraded(entering, degraded_max_batch);
      kv_cache.set_prefix_admission_paused(
          entering && scenario.fault.degrade_pause_prefix_cache);
      if (entering) {
        fault_stats.degrade_enters += 1;
      } else {
        fault_stats.degrade_exits += 1;
      }
      if (tracing) trace->on_degrade(entering, now);
    }
    // Backoff expiry: re-enter failed requests through admission.  Ready
    // times are not monotone in queue order (backoff grows with each
    // request's own attempt count), so scan the whole queue.
    for (auto it = retry_queue.begin(); it != retry_queue.end();) {
      if (it->ready_time <= now) {
        scheduler.requeue_after_fault(it->request, it->emitted_first_token);
        if (tracing) {
          trace->on_recover(it->request.id, /*mechanism=*/0, now, 0,
                            it->attempt);
        }
        it = retry_queue.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool work_pending() const {
    return next_arrival < requests.size() || !scheduler.idle() ||
           !retry_queue.empty();
  }

  bool pump(Seconds until) {
    for (;;) {
      if (finished || horizon_hit) return false;
      if (!work_pending()) return false;
      // Horizon cut (fairness studies): stop the engine at the configured
      // simulated second; whatever is in flight never completes.
      if (scenario.max_sim_seconds > 0 && now >= scenario.max_sim_seconds) {
        horizon_hit = true;
        return false;
      }
      if (now >= until) return true;
      if (faults_on) poll_faults();
      feed_arrivals(now);
      if (scheduler.idle()) {
        // Nothing to do until the next arrival or backoff expiry — but
        // never advance past the horizon: an event gap straddling it must
        // leave the final clock (and every shed timestamp) AT the horizon,
        // not at the far side of the gap.  The caller's stop point is a
        // jump target too: a cluster driver injects the next arrival there.
        Seconds next_time = std::numeric_limits<double>::infinity();
        if (next_arrival < requests.size()) {
          next_time = requests[next_arrival].arrival_time;
        }
        for (const PendingRetry& retry : retry_queue) {
          next_time = std::min(next_time, retry.ready_time);
        }
        if (scenario.max_sim_seconds > 0) {
          next_time = std::min(next_time, scenario.max_sim_seconds);
        }
        next_time = std::min(next_time, until);
        now = std::max(now, next_time);
        continue;
      }

      std::int64_t kv_alloc_before = 0;
      std::int64_t kv_reclaim_before = 0;
      if (tracing) {
        // Mid-step scheduler events are stamped with this step's start
        // time; KV churn is the delta across the step.
        trace->begin_step(metrics.total_steps, now);
        kv_alloc_before = kv_cache.blocks_allocated_total();
        kv_reclaim_before = kv_cache.cached_blocks_reclaimed_total();
      }
      scheduler.set_time(now);  // rate-capped admission reads the sim clock
      const bool stepped = scheduler.next_step(&step);
      // Deadline sheds (EDF admission control) surface here whether or not
      // a step ran; a shed request arrived but will never be admitted.
      for (std::int64_t id : step.shed_ids) {
        RequestTrace& request_trace = traces.at(id);
        request_trace.shed = true;
        outstanding_tokens -= request_trace.total_tokens;
      }
      if (!stepped) {
        // Admission control shed every waiting request: nothing ran and
        // the clock is unchanged.  No kStep event is recorded (no step
        // happened); the loop idle-advances to the next arrival or exits.
        continue;
      }

      const bool is_prefill = step.kind == StepRecord::Kind::kPrefill;
      // Per-sequence costing: each participant's attention at its own
      // bucketed KV length (see cost_step).
      const StepCost layer_cost = cost_step(costs, step);

      // Inter-stage activation handoff: the moving rows of this step cross
      // each pipeline boundary once (prefill moves every chunk token,
      // decode one token per participant).
      const std::int64_t row_count =
          is_prefill ? std::accumulate(step.chunk_lens.begin(),
                                       step.chunk_lens.end(), std::int64_t{0})
                     : step.batch;
      const double rows = static_cast<double>(row_count);
      const Bytes boundary_bytes = rows * activation_elem_bytes;
      const Seconds transfer =
          boundaries > 0 ? chip.ici().p2p_time(boundary_bytes) : 0.0;

      // KV pages swapped to/from the host pool this step serialize with
      // the step on the PCIe-class link.
      const Seconds swap_time = step.swap_bytes / scenario.host_link_bandwidth;

      // Steady-state engine cadence: the bottleneck stage (ceiling share of
      // the layers) plus its handoff.  Tokens emitted this step
      // additionally traverse the remaining stages before leaving the
      // pipeline.
      Seconds stage_time =
          static_cast<double>(stage_layers) * layer_cost.latency + transfer;
      if (tp_ways > 1) {
        // Megatron-style TP: every layer pays two ring all-reduces of this
        // step's [rows, d_model] activation across the shards
        // (parallel/multi_chip.h semantics, FULL-model d_model).
        const Bytes ar_bytes = parallel::tensor_parallel_allreduce_bytes(
            scenario.model, row_count);
        stage_time += static_cast<double>(layers) *
                      chip.ici().all_reduce_time(ar_bytes, tp_ways);
      }
      // A step starting inside a stall window pays the configured latency
      // multiplier on every stage (and hence on the pipeline traversal too).
      if (faults_on && now < stall_until) {
        stage_time *= scenario.fault.stall_latency_multiplier;
      }
      const Seconds emit_extra = static_cast<double>(boundaries) * stage_time;

      StepCharge charge;
      charge.prefill = is_prefill;
      charge.batch = step.batch;
      charge.latency = stage_time + swap_time;
      charge.layer_cost = layer_cost;
      if (boundaries > 0) {
        charge.boundary_energy = static_cast<double>(boundaries) *
                                 chip.ici().p2p_energy(boundary_bytes);
      }
      account_steps(charge, 1);
      const Seconds emit_time = now + emit_extra;
      if (tracing) {
        trace->end_step(is_prefill, step.batch, now, charge.latency,
                        kv_cache.referenced_blocks(),
                        kv_cache.blocks_allocated_total() - kv_alloc_before,
                        kv_cache.cached_blocks_reclaimed_total() -
                            kv_reclaim_before);
      }

      for (std::int64_t id : step.first_token_ids) {
        RequestTrace& request_trace = traces.at(id);
        // Preempted-and-recomputed requests already streamed their first
        // token to the user; keep the original TTFT.
        if (request_trace.first_token < 0) {
          request_trace.first_token = emit_time;
          // The trace's kFirstToken is exactly the metrics' TTFT reference
          // point — recorded once, re-emissions after recompute excluded —
          // so timelines reconcile with ServingMetrics identically.
          if (tracing) trace->on_first_token(id, emit_time);
        }
      }
      for (std::int64_t id : step.finished_ids) {
        RequestTrace& request_trace = traces.at(id);
        // Each step's traversal extra is derived from that step's own
        // stage time, so a cheap decode step after an expensive prefill
        // step could nominally "exit" earlier in absolute time.  Real
        // pipelines preserve per-request emission order: clamp so
        // completion >= first token.
        request_trace.completion =
            std::max(emit_time, request_trace.first_token);
        metrics.completed += 1;
        metrics.generated_tokens += request_trace.output_len;
        metrics.makespan = std::max(metrics.makespan, request_trace.completion);
        outstanding_tokens -= request_trace.total_tokens;
        if (log_completions) {
          completed_log.emplace_back(id, request_trace.completion);
        }
        if (faults_on && request_trace.last_fault >= 0) {
          // A recompute repair closes when the re-admitted request finally
          // completes — that whole span is the outage the user saw.
          repair_times.push_back(request_trace.completion -
                                 request_trace.last_fault);
          request_trace.last_fault = -1;
        }
        if (tracing) {
          trace->on_finish(id, request_trace.completion,
                           request_trace.output_len);
        }
      }

      if (sampling && sampler.due(now)) {
        TimeSample sample;
        sample.time = now;
        sample.step = metrics.total_steps;
        sample.queue_depth =
            static_cast<std::int64_t>(scheduler.waiting_count());
        sample.resident_sequences =
            static_cast<std::int64_t>(scheduler.running_count());
        sample.resident_decoders = scheduler.resident_decoder_count();
        sample.swapped_sequences =
            static_cast<std::int64_t>(scheduler.swapped_count());
        sample.kv_referenced_blocks = kv_cache.referenced_blocks();
        sample.kv_occupied_blocks = kv_cache.occupied_blocks();
        sample.kv_capacity_blocks = kv_cache.capacity_blocks();
        sample.kv_internal_fragmentation = kv_cache.internal_fragmentation();
        sample.prefix_hit_rate = scheduler.counters().prefix_hit_rate();
        const auto& tenants = trace->tenant_admitted_tokens();
        sample.tenant_admitted_tokens.assign(tenants.begin(), tenants.end());
        sampler.record(std::move(sample));
      }

      // Decode fast-forward: after an event-free decode step, book the run
      // of identical steps that follows in one go (see the lifecycle note
      // in serving_sim.h).
      if (fast_forward && !is_prefill && step.finished_ids.empty() &&
          step.preempted_ids.empty() && step.swapped_out_ids.empty() &&
          step.swapped_in_ids.empty() && step.shed_ids.empty()) {
        fast_forward_decode(charge, scheduler.repeatable_decode_steps(step),
                            until);
      }
    }
  }

  /// What one executed step charges to the run — everything account_steps
  /// needs to book it again.
  struct StepCharge {
    bool prefill = false;
    std::int64_t batch = 0;
    Seconds latency = 0;  ///< stage time plus swap transfer
    StepCost layer_cost;
    Joules boundary_energy = 0;  ///< ICI handoff energy (pipelines only)
  };

  // Books `max_repeats` (or fewer) further copies of the decode step that
  // just ran.  Copy k would start at now + k x latency; the per-step loop
  // runs it only while that start is before `until`, the horizon and the
  // next arrival (whose feed would change the batch), so the run is cut at
  // the first start that reaches any of them — the loop then resumes
  // exactly where the per-step path would be.
  void fast_forward_decode(const StepCharge& charge, std::int64_t max_repeats,
                           Seconds until) {
    Seconds stop = until;
    if (next_arrival < requests.size()) {
      stop = std::min(stop, requests[next_arrival].arrival_time);
    }
    if (scenario.max_sim_seconds > 0) {
      stop = std::min(stop, scenario.max_sim_seconds);
    }
    std::int64_t repeats = 0;
    for (Seconds start = now; repeats < max_repeats && start < stop;
         start += charge.latency) {
      ++repeats;
    }
    if (repeats == 0) return;
    scheduler.repeat_decode_steps(repeats);
    account_steps(charge, repeats);
  }

  // Books `repeats` back-to-back executions of one costed step into the
  // clock, the step counters and histograms, the fragmentation sample and
  // the busy-time / energy accumulators.  Every double is accumulated once
  // per execution, in the per-step order, so repeats = n leaves exactly
  // the state of n calls with repeats = 1.  The fragmentation gauge is
  // read once: a repeated decode run never changes it (always 0 at block
  // size 1; kNone decode never touches the KV manager).
  void account_steps(const StepCharge& charge, std::int64_t repeats) {
    const double fragmentation = kv_cache.internal_fragmentation();
    for (std::int64_t i = 0; i < repeats; ++i) {
      now += charge.latency;
      // Paged-KV gauge: last-block waste across resident mappings, sampled
      // once per engine step (identically 0 at block size 1).
      fragmentation_sum += fragmentation;
      // TP shards replicate every layer's execution (and hence busy time
      // and energy) across `ways` chips; ways == 1 multiplies by exactly
      // 1.0, bit-identical to the pre-TP accounting.
      busy_time += static_cast<double>(layers) *
                   charge.layer_cost.mxu_busy_time * tp_scale;
      metrics.mxu_energy += static_cast<double>(layers) *
                            charge.layer_cost.mxu_energy * tp_scale;
      metrics.total_energy += static_cast<double>(layers) *
                              charge.layer_cost.total_energy * tp_scale;
      if (boundaries > 0) metrics.total_energy += charge.boundary_energy;
    }
    metrics.total_steps += repeats;
    if (charge.prefill) {
      metrics.prefill_steps += repeats;
    } else {
      metrics.decode_steps += repeats;
    }
    step_latency_histogram->observe(charge.latency, repeats);
    step_batch_histogram->observe(static_cast<double>(charge.batch), repeats);
  }

  ServingMetrics finish() {
    CIMTPU_CHECK_MSG(!finished, "ServingEngine::finish called twice");
    finished = true;
    metrics.num_requests = static_cast<std::int64_t>(requests.size());
    metrics.counters = scheduler.counters();
    metrics.counters.shed_fault = fault_sheds;  // driver-owned shed cause
    metrics.sim_end_seconds = now;
    // Horizon-cut runs shed whatever arrived but never completed —
    // waiting, in flight, it makes no difference: the horizon ended its
    // story.  The counter advances UNCONDITIONALLY (metrics and traces
    // must agree); tracing only adds the terminal event so every traced
    // request has one.  Requests already shed by admission control got
    // their event (and their shed_deadline count) at shed time and are
    // skipped here.
    if (scenario.max_sim_seconds > 0) {
      for (const Request& request : requests) {
        const auto trace_it = traces.find(request.id);
        if (trace_it == traces.end()) continue;  // never arrived
        const RequestTrace& request_trace = trace_it->second;
        if (request_trace.completion >= 0 || request_trace.shed) continue;
        metrics.counters.shed_horizon += 1;
        if (tracing) trace->on_shed(request.id, now);
      }
    }
    metrics.preemptions = metrics.counters.total_preemptions();
    metrics.prefix_hit_rate = metrics.counters.prefix_hit_rate();
    if (metrics.total_steps > 0) {
      metrics.kv_internal_fragmentation =
          fragmentation_sum / static_cast<double>(metrics.total_steps);
    }

    // --- Distributional rollups --------------------------------------------
    std::vector<double> ttft, tpot, e2e;
    ttft.reserve(traces.size());
    tpot.reserve(traces.size());
    e2e.reserve(traces.size());
    std::map<std::int64_t, TenantAccum> tenant_accums;  // ascending tenant id
    std::int64_t arrived = 0;
    std::int64_t slo_tokens = 0;  ///< output tokens of deadline-meeting
                                  ///< requests
    // Iterate requests (not the hash map) for platform-independent order.
    for (const Request& request : requests) {
      const auto trace_it = traces.find(request.id);
      if (trace_it == traces.end()) continue;  // never arrived (horizon cut)
      arrived += 1;
      // The accumulator (and hence the tenant's metrics row / Jain entry)
      // exists only once the tenant has a request that actually ARRIVED
      // within the simulated window — a tenant whose traffic all lands
      // past the horizon never participated and must not drag the index
      // down.
      TenantAccum& accum = tenant_accums[request.tenant_id];
      accum.num_requests += 1;
      const RequestTrace& request_trace = trace_it->second;
      // TTFT is determined the moment the first token leaves the pipeline,
      // so horizon-cut runs keep every emitted first token in the TTFT
      // sample — dropping still-in-flight requests would censor exactly
      // the slow admissions an overload study is trying to measure.
      // (Without a horizon every fed request completes, so this changes
      // nothing.)
      if (request_trace.first_token >= 0) {
        ttft.push_back(request_trace.first_token - request_trace.arrival);
        accum.ttft.push_back(request_trace.first_token -
                             request_trace.arrival);
      }
      if (request_trace.completion < 0) continue;  // shed or cut: misses SLO
      e2e.push_back(request_trace.completion - request_trace.arrival);
      // Disaggregated decode replicas complete requests whose first token
      // streamed on the PREFILL replica (first_token < 0 locally): their
      // stitched TPOT belongs to the cluster rollup, never to this sample.
      if (request_trace.output_len > 1 && request_trace.first_token >= 0) {
        tpot.push_back((request_trace.completion - request_trace.first_token) /
                       static_cast<double>(request_trace.output_len - 1));
      }
      // SLO verdict: completed AND every deadline the request carries
      // holds.  Deadline-free completed requests meet vacuously, so
      // deadline-free streams report attainment 1.0 and
      // slo_goodput == goodput.
      bool met = true;
      if (request.ttft_deadline > 0) {
        met = request_trace.first_token - request_trace.arrival <=
              request.ttft_deadline;
      }
      if (met && request.tpot_deadline > 0 && request_trace.output_len > 1) {
        met = (request_trace.completion - request_trace.first_token) /
                  static_cast<double>(request_trace.output_len - 1) <=
              request.tpot_deadline;
      }
      if (met) {
        metrics.slo_met += 1;
        slo_tokens += request_trace.output_len;
      }
      accum.completed += 1;
      accum.generated_tokens += request_trace.output_len;
      accum.e2e.push_back(request_trace.completion - request_trace.arrival);
    }
    metrics.ttft = summarize_latencies(ttft);
    metrics.tpot = summarize_latencies(tpot);
    metrics.e2e = summarize_latencies(e2e);
    if (arrived > 0) {
      metrics.slo_attainment = static_cast<double>(metrics.slo_met) /
                               static_cast<double>(arrived);
      metrics.availability = static_cast<double>(metrics.completed) /
                             static_cast<double>(arrived);
    }

    // --- Resilience rollup (schema-v8) -------------------------------------
    metrics.fault = fault_stats;
    metrics.wasted_recompute_tokens = fault_stats.wasted_recompute_tokens;
    metrics.retries_total = fault_stats.retries;
    if (!repair_times.empty()) {
      metrics.mttr_seconds =
          std::accumulate(repair_times.begin(), repair_times.end(), 0.0) /
          static_cast<double>(repair_times.size());
    }

    // --- Per-tenant breakdown (schema-v4) ----------------------------------
    // Weights resolve by the tenant id the config actually names
    // (TenantShare::tenant_id, index-bound when left at -1) — the SAME
    // resolution WFQ admission uses — so sparse or non-contiguous tenant
    // ids can never make Jain normalization and enforcement disagree.
    // Tenants the config does not name weigh 1.
    const AdmissionConfig& admission_config = scenario.scheduler.admission;
    std::vector<double> normalized_goodput;
    normalized_goodput.reserve(tenant_accums.size());
    for (const auto& [tenant_id, accum] : tenant_accums) {
      TenantMetrics tenant;
      tenant.tenant_id = tenant_id;
      tenant.weight = admission_config.share_for(tenant_id).weight;
      tenant.num_requests = accum.num_requests;
      tenant.completed = accum.completed;
      tenant.generated_tokens = accum.generated_tokens;
      tenant.ttft = summarize_latencies(accum.ttft);
      tenant.e2e = summarize_latencies(accum.e2e);
      if (metrics.makespan > 0) {
        tenant.goodput_tokens_per_second =
            static_cast<double>(accum.generated_tokens) / metrics.makespan;
      }
      normalized_goodput.push_back(tenant.goodput_tokens_per_second /
                                   tenant.weight);
      metrics.tenants.push_back(std::move(tenant));
    }
    if (metrics.tenants.size() > 1) {
      metrics.jain_fairness = jain_fairness_index(normalized_goodput);
    }

    if (metrics.makespan > 0) {
      metrics.goodput_tokens_per_second =
          static_cast<double>(metrics.generated_tokens) / metrics.makespan;
      metrics.slo_goodput_tokens_per_second =
          static_cast<double>(slo_tokens) / metrics.makespan;
      metrics.mxu_utilization =
          busy_time / (metrics.makespan * static_cast<double>(metrics.chips));
    }
    if (metrics.generated_tokens > 0) {
      metrics.energy_per_token =
          metrics.total_energy / static_cast<double>(metrics.generated_tokens);
    }
    metrics.cost_cache_entries = costs.size();
    metrics.cost_cache_hits = costs.hits();
    metrics.cost_cache_misses = costs.misses();
    metrics.cost_cache_occupancy = costs.occupancy();

    // --- Observability rollup ----------------------------------------------
    // Every subsystem publishes into the run's registry; all inputs are
    // deterministic simulated state, so the registry (like every metric
    // above) is bit-identical with tracing on or off.
    metrics.registry.set_counter("engine.total_steps", metrics.total_steps);
    metrics.registry.set_counter("engine.prefill_steps",
                                 metrics.prefill_steps);
    metrics.registry.set_counter("engine.decode_steps", metrics.decode_steps);
    metrics.registry.set_counter("engine.completed", metrics.completed);
    metrics.registry.set_counter("engine.generated_tokens",
                                 metrics.generated_tokens);
    metrics.registry.set_gauge("engine.makespan_s", metrics.makespan);
    metrics.registry.set_gauge("engine.sim_end_s", metrics.sim_end_seconds);
    metrics.registry.set_gauge("engine.slo_attainment",
                               metrics.slo_attainment);
    metrics.registry.set_gauge("engine.slo_goodput_tokens_per_s",
                               metrics.slo_goodput_tokens_per_second);
    metrics.registry.set_gauge("engine.availability", metrics.availability);
    if (faults_on) {
      // Fault-only keys are gated so an off run's registry matches
      // pre-fault builds key for key.
      metrics.registry.set_gauge("engine.mttr_s", metrics.mttr_seconds);
      metrics.registry.set_counter("engine.wasted_recompute_tokens",
                                   metrics.wasted_recompute_tokens);
      metrics.registry.set_counter("engine.retries_total",
                                   metrics.retries_total);
      metrics.fault.publish(&metrics.registry);
    }
    metrics.counters.publish(&metrics.registry);
    costs.publish(&metrics.registry);
    kv_cache.publish(&metrics.registry);
    scheduler.admission_policy().publish(&metrics.registry);

    metrics.timeseries = sampler.take();
    write_trace_files(*trace, metrics.timeseries);  // no-op without a dir

    metrics.sim_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (metrics.sim_wall_seconds > 0) {
      metrics.steps_per_second = static_cast<double>(metrics.total_steps) /
                                 metrics.sim_wall_seconds;
    }
    return std::move(metrics);
  }
};

ServingEngine::ServingEngine(const ServingScenario& scenario,
                             SharedStepCostCache* shared_costs,
                             ServingTrace* trace_out) {
  scenario.validate();
  impl_ = std::make_unique<Impl>(scenario, shared_costs, trace_out);
}

ServingEngine::~ServingEngine() = default;

void ServingEngine::inject(const Request& request) {
  impl_->requests.push_back(request);
  impl_->outstanding_tokens += request.prompt_len + request.output_len;
}

void ServingEngine::inject_prefilled(const Request& request) {
  CIMTPU_CONFIG_CHECK(request.output_len >= 2,
                      "inject_prefilled: request "
                          << request.id << " has no decode work (output_len="
                          << request.output_len << ")");
  impl_->prefilled_ids.insert(request.id);
  inject(request);
}

bool ServingEngine::pump(Seconds until) { return impl_->pump(until); }

void ServingEngine::drain() {
  impl_->pump(std::numeric_limits<double>::infinity());
}

ServingMetrics ServingEngine::finish() { return impl_->finish(); }

Seconds ServingEngine::now() const { return impl_->now; }

bool ServingEngine::work_pending() const {
  return !impl_->horizon_hit && impl_->work_pending();
}

std::int64_t ServingEngine::outstanding_tokens() const {
  return impl_->outstanding_tokens;
}

void ServingEngine::set_completion_log(bool enabled) {
  impl_->log_completions = enabled;
}

std::vector<std::pair<std::int64_t, Seconds>>
ServingEngine::take_completions() {
  return std::move(impl_->completed_log);
}

std::vector<ServingEngine::RequestOutcome> ServingEngine::outcomes() const {
  std::vector<RequestOutcome> out;
  out.reserve(impl_->requests.size());
  for (const Request& request : impl_->requests) {
    RequestOutcome outcome;
    outcome.id = request.id;
    outcome.arrival = request.arrival_time;
    outcome.output_len = request.output_len;
    outcome.tenant_id = request.tenant_id;
    const auto trace_it = impl_->traces.find(request.id);
    if (trace_it != impl_->traces.end()) {
      outcome.arrived = true;
      outcome.first_token = trace_it->second.first_token;
      outcome.completion = trace_it->second.completion;
      outcome.shed = trace_it->second.shed;
    }
    out.push_back(outcome);
  }
  return out;
}

ServingMetrics run_serving(const ServingScenario& scenario,
                           const std::vector<Request>& requests,
                           SharedStepCostCache* shared_costs,
                           ServingTrace* trace_out) {
  ServingEngine engine(scenario, shared_costs, trace_out);
  for (const Request& request : requests) engine.inject(request);
  engine.drain();
  return engine.finish();
}

ServingMetrics run_serving(const ServingScenario& scenario,
                           const RequestStreamConfig& stream,
                           SharedStepCostCache* shared_costs,
                           ServingTrace* trace_out) {
  return run_serving(scenario, generate_requests(stream), shared_costs,
                     trace_out);
}

}  // namespace cimtpu::serving
