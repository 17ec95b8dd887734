// Fault injection & recovery wall: seeded FaultProcess determinism and
// per-type rng stream decoupling, FaultConfig validation, the
// DegradationController's hysteresis, faults-off bit-identity with the
// pre-fault engine, recovery policies end to end (backoff re-admission
// with a retry budget, recovery-off / budget-exhaustion fault sheds,
// host-shadow KV restore, device failure + restart), the shed x swap
// interaction (a fault that removes a swapped-out request must release
// its host-pool bytes; swap counters must reconcile with trace events),
// the sweep's fault-rate x recovery axes (sentinel inheritance, label
// stability, thread-count bit-identity), and the pinned resilience
// frontier behind the schema-v8 "resilience" bench block: at the fixed
// fault storm seed, recovery-on strictly beats recovery-off on BOTH
// availability and SLO goodput, and availability recomputed purely from
// trace events matches ServingMetrics exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving/fault.h"
#include "serving/kv_cache_manager.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/sweep.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

Request make_request(std::int64_t id, std::int64_t prompt, std::int64_t output,
                     Seconds arrival = 0) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.prompt_len = prompt;
  request.output_len = output;
  return request;
}

FaultConfig storm_config() {
  FaultConfig config;
  config.enabled = true;
  config.seed = 7;
  config.stall_rate_per_s = 0.5;
  config.kv_loss_rate_per_s = 1.0;
  config.device_failure_rate_per_s = 0.1;
  return config;
}

std::vector<FaultEvent> drain_events(FaultProcess* process, Seconds until) {
  std::vector<FaultEvent> events;
  FaultEvent event;
  while (process->poll(until, &event)) events.push_back(event);
  return events;
}

// --- FaultProcess: seeding, decoupling, merge order --------------------------

TEST(FaultProcessTest, SameSeedReplaysTheSameStorm) {
  FaultProcess a(storm_config());
  FaultProcess b(storm_config());
  const std::vector<FaultEvent> events_a = drain_events(&a, 100.0);
  const std::vector<FaultEvent> events_b = drain_events(&b, 100.0);
  ASSERT_FALSE(events_a.empty());
  ASSERT_EQ(events_a.size(), events_b.size());
  for (std::size_t i = 0; i < events_a.size(); ++i) {
    EXPECT_EQ(events_a[i].type, events_b[i].type);
    EXPECT_EQ(events_a[i].time, events_b[i].time);  // bit-identical
  }

  FaultConfig reseeded = storm_config();
  reseeded.seed = 8;
  FaultProcess c(reseeded);
  const std::vector<FaultEvent> events_c = drain_events(&c, 100.0);
  bool identical = events_a.size() == events_c.size();
  for (std::size_t i = 0; identical && i < events_a.size(); ++i) {
    identical = events_a[i].type == events_c[i].type &&
                events_a[i].time == events_c[i].time;
  }
  EXPECT_FALSE(identical) << "different seeds must give different storms";
}

TEST(FaultProcessTest, PerTypeStreamsAreDecoupled) {
  // Turning the other processes on (or off) must not move one process's
  // event times: each type draws from its own sub-stream of the seed.
  const auto times_of = [](const FaultConfig& config, FaultType type) {
    FaultProcess process(config);
    std::vector<Seconds> times;
    for (const FaultEvent& event : drain_events(&process, 200.0)) {
      if (event.type == type) times.push_back(event.time);
    }
    return times;
  };
  FaultConfig stalls_only = storm_config();
  stalls_only.kv_loss_rate_per_s = 0;
  stalls_only.device_failure_rate_per_s = 0;
  FaultConfig losses_only = storm_config();
  losses_only.stall_rate_per_s = 0;
  losses_only.device_failure_rate_per_s = 0;

  EXPECT_EQ(times_of(stalls_only, FaultType::kStall),
            times_of(storm_config(), FaultType::kStall));
  EXPECT_EQ(times_of(losses_only, FaultType::kKvLoss),
            times_of(storm_config(), FaultType::kKvLoss));
  EXPECT_FALSE(times_of(storm_config(), FaultType::kStall).empty());
  EXPECT_FALSE(times_of(storm_config(), FaultType::kKvLoss).empty());
}

TEST(FaultProcessTest, MergedEventsAreChronological) {
  FaultProcess process(storm_config());
  Seconds previous = -1;
  for (const FaultEvent& event : drain_events(&process, 300.0)) {
    EXPECT_GE(event.time, previous);
    previous = event.time;
  }
  // Nothing armed past the drain point yet: next_event_time advanced.
  EXPECT_GT(process.next_event_time(), 300.0);

  FaultConfig off = storm_config();
  off.stall_rate_per_s = 0;
  off.kv_loss_rate_per_s = 0;
  off.device_failure_rate_per_s = 0;
  FaultProcess idle(off);
  EXPECT_EQ(idle.next_event_time(), std::numeric_limits<double>::infinity());
  FaultEvent event;
  EXPECT_FALSE(idle.poll(1e9, &event));
}

TEST(FaultProcessTest, VictimPicksAreInRangeAndDeterministic) {
  FaultProcess a(storm_config());
  FaultProcess b(storm_config());
  for (int i = 0; i < 200; ++i) {
    const std::int64_t victim = a.pick_victim(/*resident_count=*/7);
    EXPECT_GE(victim, 0);
    EXPECT_LT(victim, 7);
    EXPECT_EQ(victim, b.pick_victim(7));
  }
}

// --- FaultConfig validation --------------------------------------------------

TEST(FaultConfigTest, ValidateRejectsBadKnobs) {
  const auto expect_invalid = [](void (*mutate)(FaultConfig*)) {
    FaultConfig config = storm_config();
    mutate(&config);
    EXPECT_THROW(config.validate(), ConfigError);
  };
  expect_invalid([](FaultConfig* c) { c->stall_rate_per_s = -1; });
  expect_invalid([](FaultConfig* c) {
    c->kv_loss_rate_per_s = std::numeric_limits<double>::infinity();
  });
  expect_invalid([](FaultConfig* c) { c->stall_latency_multiplier = 0.5; });
  expect_invalid([](FaultConfig* c) { c->device_restart_s = 0; });
  expect_invalid([](FaultConfig* c) { c->retry_budget = -1; });
  expect_invalid([](FaultConfig* c) {
    c->retry_backoff_max_s = c->retry_backoff_base_s / 2;
  });
  expect_invalid([](FaultConfig* c) {
    c->degrade_window_s = 5.0;
    c->degrade_exit_faults = c->degrade_enter_faults;  // no hysteresis
  });
  expect_invalid([](FaultConfig* c) {
    c->degrade_window_s = 5.0;
    c->degraded_max_batch_fraction = 0;
  });
  FaultConfig valid = storm_config();
  EXPECT_NO_THROW(valid.validate());
}

// --- DegradationController ---------------------------------------------------

TEST(DegradationTest, HysteresisEntersAtThresholdAndExitsOnDecay) {
  FaultConfig config = storm_config();
  config.degrade_window_s = 10.0;
  config.degrade_enter_faults = 3;
  config.degrade_exit_faults = 1;
  DegradationController controller(config);
  ASSERT_TRUE(controller.enabled());
  EXPECT_FALSE(controller.degraded());

  controller.on_fault(0.0);
  controller.on_fault(1.0);
  EXPECT_FALSE(controller.update(1.0));  // 2 < enter threshold
  controller.on_fault(2.0);
  EXPECT_TRUE(controller.update(2.0));  // flipped in
  EXPECT_TRUE(controller.degraded());
  EXPECT_FALSE(controller.update(2.5));  // no flapping while degraded

  // Hysteresis: at t=11.5 the faults at 0 and 1 have aged out, leaving 1
  // (<= exit) in the window — only now does the controller flip back.
  EXPECT_FALSE(controller.update(11.0));  // 2 in window: still degraded
  EXPECT_TRUE(controller.degraded());
  EXPECT_TRUE(controller.update(11.5));
  EXPECT_FALSE(controller.degraded());

  FaultConfig disabled = storm_config();  // degrade_window_s stays 0
  DegradationController off(disabled);
  EXPECT_FALSE(off.enabled());
}

// --- Faults off: bit-identical to the pre-fault engine -----------------------

TEST(FaultsOffTest, DisabledSubsystemIsBitIdenticalAndUnpublished) {
  const std::vector<Request> requests = generate_requests(
      slo_chat_stream(/*seed=*/42, /*num_requests=*/120, /*arrival_rate=*/8.0));
  ServingScenario plain = slo_scenario(ir::DType::kInt4, "edf");

  // Same scenario with every fault knob armed but the subsystem DISABLED:
  // the fault rng is never consulted, so the whole run is bit-identical.
  ServingScenario armed = plain;
  armed.fault = storm_config();
  armed.fault.enabled = false;

  const ServingMetrics a = run_serving(plain, requests);
  const ServingMetrics b = run_serving(armed, requests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.goodput_tokens_per_second, b.goodput_tokens_per_second);
  EXPECT_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_EQ(a.slo_goodput_tokens_per_second, b.slo_goodput_tokens_per_second);
  EXPECT_EQ(a.availability, b.availability);

  // Off runs publish no fault keys: the registry dump stays byte-identical
  // to pre-fault builds ("fault.*" and the engine resilience gauges are
  // gated on the subsystem).
  EXPECT_EQ(b.registry.counters().count("fault.stalls"), 0u);
  EXPECT_EQ(b.registry.gauges().count("engine.mttr_s"), 0u);
  EXPECT_EQ(b.fault.stalls, 0);
  EXPECT_EQ(b.retries_total, 0);
  EXPECT_EQ(b.mttr_seconds, 0.0);
}

// --- Recovery policies end to end --------------------------------------------

ServingScenario kv_loss_scenario(double rate,
                                 FaultConfig::KvRestoreMode restore,
                                 bool recovery, int budget) {
  ServingScenario scenario =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4);
  scenario.fault.enabled = true;
  scenario.fault.seed = 11;
  scenario.fault.kv_loss_rate_per_s = rate;
  scenario.fault.kv_restore = restore;
  scenario.fault.recovery_enabled = recovery;
  scenario.fault.retry_budget = budget;
  return scenario;
}

// The recovery tests use the low-variance SLO lengths (prompts 128..256,
// outputs 64..128): every request completes well inside the mean
// inter-fault interval, so full recovery is actually reachable.  (The
// Zipf tail is NOT: a 1024-output request that takes longer to recompute
// than the inter-fault gap livelocks against any finite retry budget —
// which is exactly the budget-exhaustion shed path, tested separately.)
std::vector<Request> recovery_requests() {
  return generate_requests(slo_chat_stream(
      /*seed=*/42, /*num_requests=*/60, /*arrival_rate=*/15.0));
}

TEST(RecoveryTest, RecomputeRetriesThroughBackoffAndEveryRequestFinishes) {
  const std::vector<Request> requests = recovery_requests();
  const ServingMetrics metrics = run_serving(
      kv_loss_scenario(/*rate=*/0.5, FaultConfig::KvRestoreMode::kRecompute,
                       /*recovery=*/true, /*budget=*/16),
      requests);
  EXPECT_GT(metrics.fault.kv_losses, 0);
  EXPECT_GT(metrics.retries_total, 0);
  EXPECT_EQ(metrics.retries_total, metrics.fault.retries);
  EXPECT_EQ(metrics.fault.dropped, 0);
  EXPECT_EQ(metrics.counters.shed_fault, 0);
  // Victims lose their computed prompt/decode work...
  EXPECT_GT(metrics.wasted_recompute_tokens, 0);
  // ...but backoff re-admission finishes them all: full availability, and
  // each recompute span lands one MTTR sample.
  EXPECT_EQ(metrics.completed, metrics.num_requests);
  EXPECT_EQ(metrics.availability, 1.0);
  EXPECT_GT(metrics.mttr_seconds, 0.0);
  EXPECT_EQ(metrics.fault.host_restores, 0);
}

TEST(RecoveryTest, RecoveryOffShedsEveryVictim) {
  const std::vector<Request> requests = recovery_requests();
  const ServingMetrics metrics = run_serving(
      kv_loss_scenario(/*rate=*/0.5, FaultConfig::KvRestoreMode::kRecompute,
                       /*recovery=*/false, /*budget=*/16),
      requests);
  ASSERT_GT(metrics.fault.kv_losses, 0);
  // Each kv-loss event strikes exactly one resident; with recovery off
  // every victim is dropped with shed cause "fault".
  EXPECT_EQ(metrics.fault.dropped, metrics.fault.kv_losses);
  EXPECT_EQ(metrics.counters.shed_fault, metrics.fault.dropped);
  EXPECT_EQ(metrics.retries_total, 0);
  EXPECT_EQ(metrics.completed + metrics.counters.shed_fault,
            metrics.num_requests);
  EXPECT_LT(metrics.availability, 1.0);
  // No recovery ever happens: no repair samples.
  EXPECT_EQ(metrics.mttr_seconds, 0.0);
}

TEST(RecoveryTest, ExhaustedRetryBudgetIsAFaultShed) {
  const std::vector<Request> requests = recovery_requests();
  // Budget 0: recovery is ON but the first fault is already fatal.
  const ServingMetrics metrics = run_serving(
      kv_loss_scenario(/*rate=*/0.5, FaultConfig::KvRestoreMode::kRecompute,
                       /*recovery=*/true, /*budget=*/0),
      requests);
  ASSERT_GT(metrics.fault.kv_losses, 0);
  EXPECT_EQ(metrics.retries_total, 0);
  EXPECT_EQ(metrics.fault.dropped, metrics.fault.kv_losses);
  EXPECT_EQ(metrics.counters.shed_fault, metrics.fault.dropped);
}

TEST(RecoveryTest, HostRestoreRecoversInPlaceWithoutRetries) {
  const std::vector<Request> requests = recovery_requests();
  const ServingMetrics metrics = run_serving(
      kv_loss_scenario(/*rate=*/0.5, FaultConfig::KvRestoreMode::kHostRestore,
                       /*recovery=*/true, /*budget=*/16),
      requests);
  ASSERT_GT(metrics.fault.kv_losses, 0);
  // The baseline deployment's host pool holds every shadow: every loss is
  // restored in place — the sequence never leaves the engine, so no
  // retries, no drops, no wasted recompute, full availability.
  EXPECT_EQ(metrics.fault.host_restores, metrics.fault.kv_losses);
  EXPECT_EQ(metrics.retries_total, 0);
  EXPECT_EQ(metrics.fault.dropped, 0);
  EXPECT_EQ(metrics.wasted_recompute_tokens, 0);
  EXPECT_GT(metrics.fault.host_restore_bytes, 0.0);
  EXPECT_EQ(metrics.completed, metrics.num_requests);
  EXPECT_EQ(metrics.availability, 1.0);
  // Each restore's PCIe re-fetch time is an MTTR sample.
  EXPECT_GT(metrics.mttr_seconds, 0.0);
}

TEST(RecoveryTest, DeviceFailureRestartsAndRecoveryReplaysTheWork) {
  const std::vector<Request> requests = recovery_requests();
  ServingScenario scenario =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4);
  scenario.fault.enabled = true;
  scenario.fault.seed = 11;
  scenario.fault.device_failure_rate_per_s = 0.4;
  scenario.fault.device_restart_s = 0.5;
  scenario.fault.retry_budget = 32;
  const ServingMetrics faulty = run_serving(scenario, requests);

  ServingScenario clean = scenario;
  clean.fault.enabled = false;
  const ServingMetrics baseline = run_serving(clean, requests);

  ASSERT_GT(faulty.fault.device_failures, 0);
  EXPECT_GT(faulty.retries_total, 0);
  EXPECT_GT(faulty.wasted_recompute_tokens, 0);
  // Recovery replays everything the failures destroyed...
  EXPECT_EQ(faulty.completed, faulty.num_requests);
  EXPECT_EQ(faulty.availability, 1.0);
  // ...at the cost of downtime + rework: the storm run takes longer.
  EXPECT_GT(faulty.makespan, baseline.makespan);
}

// --- Scheduler: degraded mode + fault removal --------------------------------

TEST(DegradedSchedulerTest, DegradedModeCapsResidentBatch) {
  KvCacheManager kv(/*capacity=*/1e6, /*bytes_per_token=*/1.0);
  SchedulerConfig config;
  config.max_batch = 8;
  ContinuousBatchScheduler scheduler(config, &kv);
  for (std::int64_t id = 0; id < 8; ++id) {
    scheduler.enqueue(make_request(id, 16, 64));
  }
  scheduler.set_degraded(true, /*degraded_max_batch=*/2);
  EXPECT_TRUE(scheduler.degraded());
  StepRecord step;
  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_LE(scheduler.running_count(), 2u);
  for (int i = 0; i < 4 && scheduler.next_step(&step); ++i) {
    EXPECT_LE(scheduler.running_count(), 2u);
  }
  // Lifting degradation restores the configured batch.
  scheduler.set_degraded(false, 0);
  while (scheduler.running_count() < 8 && scheduler.next_step(&step)) {
  }
  EXPECT_EQ(scheduler.running_count(), 8u);
  while (scheduler.next_step(&step)) {
  }
  EXPECT_TRUE(kv.audit());
}

TEST(ShedSwapTest, FaultRemovalOfSwappedRequestReleasesHostBytes) {
  // Two long-output requests against a 40-token device budget under
  // kSwapToHost: the newest is swapped out under growth pressure.  A
  // fault that removes the SWAPPED request must release its host-pool
  // bytes (not leak them), and the engine must stay audit-clean.
  KvCacheManager kv(/*capacity=*/40.0, /*bytes_per_token=*/1.0,
                    EvictionPolicy::kSwapToHost);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 10, 12));
  scheduler.enqueue(make_request(1, 10, 12));

  StepRecord step;
  while (scheduler.swapped_count() == 0) {
    ASSERT_TRUE(scheduler.next_step(&step)) << "no swap ever happened";
  }
  const std::int64_t swapped_id = kv.swapped(0) ? 0 : 1;
  ASSERT_TRUE(kv.swapped(swapped_id));
  ASSERT_GT(kv.host_used(), 0.0);

  Request removed;
  ContinuousBatchScheduler::ResidentInfo progress;
  ASSERT_TRUE(scheduler.remove_for_fault(swapped_id, &removed, &progress));
  EXPECT_EQ(removed.id, swapped_id);
  EXPECT_EQ(progress.prefilled, 10);  // full prompt was computed pre-swap
  EXPECT_DOUBLE_EQ(kv.host_used(), 0.0);  // host pool released
  EXPECT_EQ(scheduler.swapped_count(), 0u);
  EXPECT_FALSE(kv.swapped(swapped_id));
  EXPECT_TRUE(kv.audit());
  EXPECT_TRUE(scheduler.aggregates_consistent());
  // Removing an id that is nowhere in the engine reports false.
  EXPECT_FALSE(scheduler.remove_for_fault(swapped_id, &removed));

  // Re-admitted through the fault path, both requests still finish
  // exactly once each from here.
  scheduler.requeue_after_fault(removed, progress.generated > 0);
  std::map<std::int64_t, std::int64_t> finish_count;
  while (scheduler.next_step(&step)) {
    for (std::int64_t id : step.finished_ids) ++finish_count[id];
    EXPECT_TRUE(kv.audit());
    EXPECT_TRUE(scheduler.aggregates_consistent());
  }
  EXPECT_EQ(finish_count[0], 1);
  EXPECT_EQ(finish_count[1], 1);
  EXPECT_DOUBLE_EQ(kv.host_used(), 0.0);
  EXPECT_DOUBLE_EQ(kv.used(), 0.0);
}

TEST(ShedSwapTest, SwapCountersReconcileWithTraceEventsUnderHorizonShed) {
  // Swap-heavy pressured deployment cut by a short horizon: the swap
  // counters must reconcile with the trace exactly — same event counts,
  // same PCIe bytes — at EVERY cut point, and at least one cut must land
  // while a request's KV sits in the host pool (that request is shed
  // mid-swap; ShedSwapTest above proves the scheduler releases its host
  // bytes).  A 600-token device budget holds barely one SLO request's
  // peak (384 tokens) plus a neighbour's prefill, so decode growth keeps
  // forcing the newest resident out to the host pool; scanning a few
  // deterministic horizons makes the mid-swap cut robust to scheduling
  // details rather than pinned to one lucky timestamp.
  const std::vector<Request> requests = generate_requests(slo_chat_stream(
      /*seed=*/42, /*num_requests=*/200, /*arrival_rate=*/40.0));
  bool shed_while_swapped = false;
  for (const Seconds horizon : {6.0, 6.5, 7.0, 7.5, 8.0}) {
    ServingScenario scenario = llama7b_pressured_scenario(
        /*chips=*/1, ir::DType::kInt4, EvictionPolicy::kSwapToHost,
        /*chunk_tokens=*/0, /*kv_budget_tokens=*/600);
    scenario.max_sim_seconds = horizon;
    scenario.trace.enabled = true;

    ServingTrace trace;
    const ServingMetrics metrics = run_serving(scenario, requests, nullptr,
                                               &trace);
    std::int64_t swap_outs = 0, swap_ins = 0;
    Bytes out_bytes = 0, in_bytes = 0;
    std::map<std::int64_t, std::int64_t> net_swapped;  // id -> outs - ins
    std::vector<std::int64_t> shed_ids;
    for (const TraceEvent& event : trace.events()) {
      switch (event.type) {
        case TraceEventType::kSwapOut:
          swap_outs += 1;
          out_bytes += event.bytes;
          net_swapped[event.request_id] += 1;
          break;
        case TraceEventType::kSwapIn:
          swap_ins += 1;
          in_bytes += event.bytes;
          net_swapped[event.request_id] -= 1;
          break;
        case TraceEventType::kShed:
          shed_ids.push_back(event.request_id);
          break;
        default:
          break;
      }
    }
    ASSERT_GT(swap_outs, 0) << "scenario failed to exercise swapping";
    EXPECT_EQ(swap_outs, metrics.counters.preemptions_swap);
    EXPECT_EQ(swap_ins, metrics.counters.swap_ins);
    EXPECT_DOUBLE_EQ(out_bytes, metrics.counters.swap_out_bytes);
    EXPECT_DOUBLE_EQ(in_bytes, metrics.counters.swap_in_bytes);
    ASSERT_GT(metrics.counters.shed_horizon, 0);
    for (std::int64_t id : shed_ids) {
      if (net_swapped[id] > 0) shed_while_swapped = true;
    }
    // A request whose KV ended in the host pool cannot have completed:
    // every net-swapped-out id must carry a terminal shed event.
    for (const auto& [id, net] : net_swapped) {
      if (net > 0) {
        EXPECT_NE(std::find(shed_ids.begin(), shed_ids.end(), id),
                  shed_ids.end())
            << "request " << id << " ended swapped out but was never shed";
      }
    }
  }
  EXPECT_TRUE(shed_while_swapped)
      << "no horizon cut ever landed while a request was swapped out";
}

// --- Sweep: fault-rate x recovery axes ---------------------------------------

TEST(SweepFaultAxisTest, SentinelsInheritAndLabelsStayStable) {
  ServingSweep sweep;
  sweep.arrival_rates = {10.0};
  sweep.models = {llama7b_baseline_scenario(1, ir::DType::kInt4).model};
  sweep.chip_counts = {1};
  sweep.policies = {EvictionPolicy::kPreemptNewest};
  sweep.base = fault_storm_scenario(ir::DType::kInt4, /*recovery=*/true,
                                    /*horizon_seconds=*/10.0);
  sweep.stream = slo_chat_stream(/*seed=*/42, /*num_requests=*/80,
                                 /*arrival_rate=*/1.0);
  sweep.validate();

  ServingSweep bad = sweep;
  bad.fault_rates = {-0.5};
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = sweep;
  bad.fault_recovery = {2};
  EXPECT_THROW(bad.validate(), ConfigError);

  // Axes {0, 1} x {off, on}: rate 0 disables the subsystem per cell.
  sweep.fault_rates = {0.0, 1.0};
  sweep.fault_recovery = {0, 1};
  const std::vector<SweepCellResult> cells = run_serving_sweep(sweep);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].fault_rate, 0.0);
  EXPECT_EQ(cells[0].fault_recovery, 0);
  EXPECT_EQ(cells[3].fault_rate, 1.0);
  EXPECT_EQ(cells[3].fault_recovery, 1);
  // Rate-0 cells never inject: identical metrics whatever the recovery
  // axis says, and no fault activity at all.
  EXPECT_EQ(cells[0].metrics.fault.kv_losses, 0);
  EXPECT_EQ(cells[0].metrics.completed, cells[1].metrics.completed);
  EXPECT_EQ(cells[0].metrics.goodput_tokens_per_second,
            cells[1].metrics.goodput_tokens_per_second);
  EXPECT_EQ(cells[0].metrics.availability, cells[1].metrics.availability);
  // Full-rate cells do inject, and the storm moves the metrics.
  EXPECT_GT(cells[3].metrics.fault.kv_losses +
                cells[3].metrics.fault.stalls +
                cells[3].metrics.fault.device_failures,
            0);
  EXPECT_LT(cells[3].metrics.availability, cells[1].metrics.availability);

  // Default sentinels: ONE cell, base fault config inherited untouched —
  // pre-fault grids expand unchanged.
  ServingSweep inherit = sweep;
  inherit.fault_rates = {-1};
  inherit.fault_recovery = {-1};
  const std::vector<SweepCellResult> inherited = run_serving_sweep(inherit);
  ASSERT_EQ(inherited.size(), 1u);
  EXPECT_EQ(inherited[0].fault_rate, -1.0);
  EXPECT_EQ(inherited[0].fault_recovery, -1);
  // The sentinel cell runs the base config as-is (recovery on, full
  // storm): bit-identical to the explicit rate-1/recovery-on cell.
  EXPECT_EQ(inherited[0].metrics.completed, cells[3].metrics.completed);
  EXPECT_EQ(inherited[0].metrics.availability, cells[3].metrics.availability);
  EXPECT_EQ(inherited[0].metrics.retries_total, cells[3].metrics.retries_total);
}

TEST(SweepFaultAxisTest, StormMetricsAreBitIdenticalAcrossThreadCounts) {
  ServingSweep sweep;
  sweep.arrival_rates = {10.0};
  sweep.models = {llama7b_baseline_scenario(1, ir::DType::kInt4).model};
  sweep.chip_counts = {1};
  sweep.policies = {EvictionPolicy::kPreemptNewest};
  sweep.admission_policies = {"edf"};
  sweep.fault_rates = {0.5, 1.0};
  sweep.fault_recovery = {0, 1};
  sweep.base = fault_storm_scenario(ir::DType::kInt4, /*recovery=*/true,
                                    /*horizon_seconds=*/15.0);
  sweep.stream = slo_chat_stream(/*seed=*/42, /*num_requests=*/150,
                                 /*arrival_rate=*/1.0);

  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<SweepCellResult> a = run_serving_sweep(sweep, serial);
  const std::vector<SweepCellResult> b = run_serving_sweep(sweep, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metrics.availability, b[i].metrics.availability);
    EXPECT_EQ(a[i].metrics.completed, b[i].metrics.completed);
    EXPECT_EQ(a[i].metrics.retries_total, b[i].metrics.retries_total);
    EXPECT_EQ(a[i].metrics.wasted_recompute_tokens,
              b[i].metrics.wasted_recompute_tokens);
    EXPECT_EQ(a[i].metrics.mttr_seconds, b[i].metrics.mttr_seconds);
    EXPECT_EQ(a[i].metrics.fault.kv_losses, b[i].metrics.fault.kv_losses);
    EXPECT_EQ(a[i].metrics.slo_goodput_tokens_per_second,
              b[i].metrics.slo_goodput_tokens_per_second);
  }
}

// --- The pinned resilience frontier (schema-v8 "resilience" block) -----------

TEST(ResilienceFrontierTest, RecoveryStrictlyBeatsRecoveryOffOnTheStorm) {
  // The EXACT workload the bench's resilience block runs: the canonical
  // fault storm (fixed fault seed kFaultStormSeed) over the canonical
  // deadline-carrying chat stream.  This pin is the frontier's headline:
  // recovery-on strictly wins BOTH availability and SLO goodput.
  const std::vector<Request> requests = generate_requests(slo_chat_stream(
      /*seed=*/42, kSloFrontierRequests, /*arrival_rate=*/10.0));
  const ServingMetrics off = run_serving(
      fault_storm_scenario(ir::DType::kInt4, /*recovery=*/false), requests);
  const ServingMetrics on = run_serving(
      fault_storm_scenario(ir::DType::kInt4, /*recovery=*/true), requests);

  // Same seeded storm either way: the injected events are identical.
  EXPECT_EQ(on.fault.stalls, off.fault.stalls);
  EXPECT_EQ(on.fault.device_failures, off.fault.device_failures);

  EXPECT_GT(on.availability, off.availability);
  EXPECT_GT(on.slo_goodput_tokens_per_second,
            off.slo_goodput_tokens_per_second);
  // Recovery machinery actually engaged on the winning side...
  EXPECT_GT(on.retries_total, 0);
  EXPECT_GT(on.fault.host_restores, 0);
  EXPECT_EQ(on.counters.shed_fault, 0);
  // ...while the off side bled requests and recomputed nothing.
  EXPECT_GT(off.counters.shed_fault, 0);
  EXPECT_EQ(off.retries_total, 0);
  EXPECT_LT(on.wasted_recompute_tokens, off.wasted_recompute_tokens);
  // The sustained-failure detector saw the storm on both sides.
  EXPECT_GT(on.fault.degrade_enters, 0);
  EXPECT_GT(off.fault.degrade_enters, 0);
}

TEST(ResilienceFrontierTest, AvailabilityRecomputedFromTraceEventsMatches) {
  const std::vector<Request> requests = generate_requests(slo_chat_stream(
      /*seed=*/42, kSloFrontierRequests, /*arrival_rate=*/10.0));
  ServingScenario scenario =
      fault_storm_scenario(ir::DType::kInt4, /*recovery=*/true);
  scenario.trace.enabled = true;  // in-memory events only

  ServingTrace trace;
  const ServingMetrics metrics = run_serving(scenario, requests, nullptr,
                                             &trace);
  std::int64_t arrives = 0, finishes = 0, faults = 0, recovers = 0;
  std::int64_t fault_sheds = 0, degrades = 0;
  for (const TraceEvent& event : trace.events()) {
    switch (event.type) {
      case TraceEventType::kArrive: arrives += 1; break;
      case TraceEventType::kFinish: finishes += 1; break;
      case TraceEventType::kFault: faults += 1; break;
      case TraceEventType::kRecover: recovers += 1; break;
      case TraceEventType::kDegrade: degrades += 1; break;
      case TraceEventType::kShed:
        if (event.aux == 2) fault_sheds += 1;
        break;
      default: break;
    }
  }
  ASSERT_GT(arrives, 0);
  // THE acceptance pin: availability recomputed purely from lifecycle
  // trace events equals ServingMetrics exactly — not approximately.
  EXPECT_EQ(metrics.availability,
            static_cast<double>(finishes) / static_cast<double>(arrives));
  EXPECT_EQ(finishes, metrics.completed);
  // Fault/recovery traffic reconciles with the stats block, event for
  // event: every counted fault and every recovery emitted its event.
  EXPECT_EQ(faults, metrics.fault.stalls + metrics.fault.kv_losses +
                        metrics.fault.device_failures);
  EXPECT_EQ(recovers, metrics.retries_total + metrics.fault.host_restores);
  EXPECT_EQ(fault_sheds, metrics.counters.shed_fault);
  EXPECT_EQ(degrades,
            metrics.fault.degrade_enters + metrics.fault.degrade_exits);
  // The registry publishes the same resilience numbers the bench reads.
  const auto& gauges = metrics.registry.gauges();
  ASSERT_EQ(gauges.count("engine.availability"), 1u);
  EXPECT_EQ(gauges.at("engine.availability"), metrics.availability);
  ASSERT_EQ(gauges.count("engine.mttr_s"), 1u);
  EXPECT_EQ(gauges.at("engine.mttr_s"), metrics.mttr_seconds);
  EXPECT_EQ(metrics.registry.counters().at("fault.kv_losses"),
            metrics.fault.kv_losses);
  EXPECT_EQ(metrics.registry.counters().at("engine.retries_total"),
            metrics.retries_total);
}

}  // namespace
}  // namespace cimtpu::serving
