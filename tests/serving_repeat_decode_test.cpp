// Decode fast-forward wall: a run of identical decode steps committed in
// one call (ContinuousBatchScheduler::repeatable_decode_steps /
// repeat_decode_steps, booked by ServingEngine) must be indistinguishable
// from stepping one at a time.
//
//   * Scheduler equivalence: from seeded mid-run states, repeat(n) leaves
//     the same scheduler + KV-manager state as n next_step calls, and the
//     two stay in lockstep afterwards.
//   * Eligibility: the query returns 0 in every case where the next steps
//     could differ (paged KV under preemption, swapped-out or prefilling
//     residents, a live admission, a finisher, a bucket crossing).
//   * FixedBucketHistogram: observe(v, n) == n x observe(v).
//   * Engine differential: tracing forces the per-step path, so a traced
//     run is the reference for the untraced (fast-forwarded) one — every
//     deterministic ServingMetrics field, the registry JSON included, must
//     match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "serving/cluster.h"
#include "serving/kv_cache_manager.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/stats.h"
#include "serving/traffic_profiles.h"
#include "serving_metrics_testing.h"

namespace cimtpu::serving {
namespace {

// --- Scheduler level ------------------------------------------------------------

struct RigConfig {
  EvictionPolicy policy = EvictionPolicy::kPreemptNewest;
  std::int64_t kv_tokens = 6000;  ///< device KV budget (1 byte per token)
  std::int64_t block_tokens = 1;
  bool prefix_cache = false;
  int max_batch = 8;
  std::int64_t chunk_tokens = 0;
};

/// One scheduler over its own KV manager.  Two rigs built from the same
/// config and fed the same calls evolve identically — the reference for
/// comparing a fast-forwarded rig against a stepped one.
struct Rig {
  explicit Rig(const RigConfig& config)
      : kv(static_cast<double>(config.kv_tokens), /*bytes_per_token=*/1.0,
           config.policy, /*host_capacity=*/1e9, config.block_tokens,
           config.prefix_cache),
        scheduler(scheduler_config(config), &kv) {}

  static SchedulerConfig scheduler_config(const RigConfig& config) {
    SchedulerConfig scheduler;
    scheduler.max_batch = config.max_batch;
    scheduler.max_prefill_batch = 4;
    scheduler.kv_block_tokens = config.block_tokens;
    scheduler.enable_prefix_cache = config.prefix_cache;
    scheduler.prefill_chunk_tokens = config.chunk_tokens;
    return scheduler;
  }

  KvCacheManager kv;
  ContinuousBatchScheduler scheduler;
  StepRecord record;
};

/// Seeded request mix: mostly short chat turns plus a long tail, a quarter
/// of them sharing one of two prefixes.
std::vector<Request> seeded_requests(std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> prompt(16, 700);
  std::uniform_int_distribution<std::int64_t> output(2, 300);
  std::uniform_int_distribution<int> coin(0, 7);
  std::vector<Request> requests;
  for (int i = 0; i < count; ++i) {
    Request request;
    request.id = i;
    request.prompt_len = prompt(rng);
    request.output_len = output(rng);
    request.priority = coin(rng) % 3;
    if (coin(rng) < 2) {
      request.prefix_id = coin(rng) % 2;
      request.prefix_len = std::min<std::int64_t>(request.prompt_len, 96);
    }
    requests.push_back(request);
  }
  return requests;
}

void expect_same_record(const StepRecord& a, const StepRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_EQ(a.kv_lens, b.kv_lens);
  EXPECT_EQ(a.chunk_lens, b.chunk_lens);
  EXPECT_EQ(a.prev_lens, b.prev_lens);
  EXPECT_EQ(a.decode_groups, b.decode_groups);
  EXPECT_EQ(a.first_token_ids, b.first_token_ids);
  EXPECT_EQ(a.finished_ids, b.finished_ids);
  EXPECT_EQ(a.preempted_ids, b.preempted_ids);
  EXPECT_EQ(a.swapped_out_ids, b.swapped_out_ids);
  EXPECT_EQ(a.swapped_in_ids, b.swapped_in_ids);
  EXPECT_EQ(a.shed_ids, b.shed_ids);
  EXPECT_EQ(a.swap_bytes, b.swap_bytes);
  EXPECT_EQ(a.chunked, b.chunked);
}

void expect_same_state(const Rig& a, const Rig& b) {
  EXPECT_TRUE(a.scheduler.aggregates_consistent());
  EXPECT_TRUE(b.scheduler.aggregates_consistent());
  EXPECT_EQ(a.scheduler.total_steps(), b.scheduler.total_steps());
  EXPECT_EQ(a.scheduler.waiting_count(), b.scheduler.waiting_count());
  EXPECT_EQ(a.scheduler.running_count(), b.scheduler.running_count());
  EXPECT_EQ(a.scheduler.swapped_count(), b.scheduler.swapped_count());
  EXPECT_EQ(a.scheduler.resident_decoder_count(),
            b.scheduler.resident_decoder_count());
  EXPECT_EQ(a.scheduler.preemptions(), b.scheduler.preemptions());
  EXPECT_EQ(a.kv.blocks_allocated_total(), b.kv.blocks_allocated_total());
  EXPECT_EQ(a.kv.referenced_blocks(), b.kv.referenced_blocks());
  EXPECT_EQ(a.kv.occupied_blocks(), b.kv.occupied_blocks());
  EXPECT_EQ(a.kv.internal_fragmentation(), b.kv.internal_fragmentation());
  EXPECT_TRUE(a.kv.audit());
  for (std::size_t i = 0; i < a.scheduler.running_count(); ++i) {
    const auto x = a.scheduler.resident_info(i);
    const auto y = b.scheduler.resident_info(i);
    EXPECT_EQ(x.request_id, y.request_id);
    EXPECT_EQ(x.prefilled, y.prefilled);
    EXPECT_EQ(x.generated, y.generated);
    EXPECT_EQ(a.kv.resident_tokens(x.request_id),
              b.kv.resident_tokens(y.request_id));
  }
}

/// Drives two rigs through the same seeded run.  Whenever the last step
/// makes a run repeatable, rig `fast` commits part or all of it with
/// repeat_decode_steps while rig `slow` steps through it one call at a
/// time; the rigs must then agree on every observable and keep planning
/// identical steps.  Returns the number of fast-forwards taken.
int run_lockstep(const RigConfig& config, std::uint64_t seed) {
  Rig fast(config);
  Rig slow(config);
  const std::vector<Request> requests = seeded_requests(seed, 48);
  std::size_t fed = 0;
  int forwards = 0;
  for (int step = 0; step < 20000; ++step) {
    // Arrivals trickle in every 40 steps, in bursts of up to 3.
    if (step % 40 == 0) {
      for (int k = 0; k < 3 && fed < requests.size(); ++k, ++fed) {
        fast.scheduler.enqueue(requests[fed]);
        slow.scheduler.enqueue(requests[fed]);
      }
    }
    const bool a = fast.scheduler.next_step(&fast.record);
    const bool b = slow.scheduler.next_step(&slow.record);
    EXPECT_EQ(a, b);
    if (!a) {
      if (fed == requests.size()) break;
      continue;
    }
    expect_same_record(fast.record, slow.record);
    const std::int64_t repeatable =
        fast.scheduler.repeatable_decode_steps(fast.record);
    EXPECT_EQ(repeatable, slow.scheduler.repeatable_decode_steps(slow.record));
    // Stay clear of the next arrival burst: the lockstep feed is keyed on
    // the step index, which the fast rig skips over.
    const std::int64_t to_burst = 39 - step % 40;
    std::int64_t n = std::min(repeatable, to_burst);
    if (forwards % 3 == 1) n = std::min<std::int64_t>(n, 1);
    if (forwards % 3 == 2) n /= 2;
    if (n <= 0) continue;
    ++forwards;
    const StepRecord last = fast.record;
    fast.scheduler.repeat_decode_steps(n);
    for (std::int64_t i = 0; i < n; ++i) {
      // Each stepped copy is the same event-free decode step.
      const StepRecord& copy = slow.record;
      const bool identical =
          slow.scheduler.next_step(&slow.record) &&
          copy.kind == StepRecord::Kind::kDecode &&
          copy.decode_groups == last.decode_groups &&
          copy.first_token_ids.empty() && copy.finished_ids.empty() &&
          copy.preempted_ids.empty() && copy.swapped_out_ids.empty() &&
          copy.swapped_in_ids.empty() && copy.shed_ids.empty();
      EXPECT_TRUE(identical) << "stepped copy " << i << " of " << n
                             << " differs from the repeated step";
      if (!identical) return forwards;
    }
    step += static_cast<int>(n);
    expect_same_state(fast, slow);
    if (::testing::Test::HasFailure()) return forwards;
  }
  EXPECT_EQ(fed, requests.size());
  EXPECT_TRUE(fast.scheduler.idle());
  EXPECT_TRUE(slow.scheduler.idle());
  expect_same_state(fast, slow);
  return forwards;
}

TEST(RepeatDecodeSchedulerTest, MatchesSteppingAcrossPoliciesAndSeeds) {
  struct Case {
    std::string name;
    RigConfig config;
  };
  std::vector<Case> cases;
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
        EvictionPolicy::kPriorityVictim, EvictionPolicy::kNone}) {
    RigConfig config;
    config.policy = policy;
    cases.push_back({eviction_policy_name(policy), config});
  }
  RigConfig tight;  // growth pressure: the capacity limit binds
  tight.kv_tokens = 2600;
  cases.push_back({"tight", tight});
  RigConfig full_batch;  // admission blocked by batch slots, queue waiting
  full_batch.max_batch = 3;
  cases.push_back({"full_batch", full_batch});
  RigConfig chunked;
  chunked.chunk_tokens = 256;
  cases.push_back({"chunked", chunked});
  RigConfig prefix;  // cached prefix blocks: occupied > referenced
  prefix.prefix_cache = true;
  prefix.kv_tokens = 3000;
  cases.push_back({"prefix_cache", prefix});
  RigConfig paged_none;  // kNone never grows KV in decode: any block size
  paged_none.policy = EvictionPolicy::kNone;
  paged_none.block_tokens = 16;
  cases.push_back({"none_block16", paged_none});

  for (const Case& c : cases) {
    for (std::uint64_t seed : {3u, 17u, 29u}) {
      SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
      const int forwards = run_lockstep(c.config, seed);
      EXPECT_GT(forwards, 0) << "no repeatable run: the case tests nothing";
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(RepeatDecodeSchedulerTest, PreemptingPolicyCapacityLimitIsExact) {
  // Two long decoders reserve 101 blocks each at admission and grow one
  // block per decode step; after the first decode step 38 blocks are
  // free, so exactly 19 more steps keep can_bulk_grow true.
  RigConfig config;
  config.kv_tokens = 2 * (100 + 1) + 40;
  Rig rig(config);
  for (std::int64_t id = 0; id < 2; ++id) {
    Request request;
    request.id = id;
    request.prompt_len = 100;
    request.output_len = 1000;
    rig.scheduler.enqueue(request);
  }
  ASSERT_TRUE(rig.scheduler.next_step(&rig.record));  // prefill both
  ASSERT_TRUE(rig.scheduler.next_step(&rig.record));  // decode: 38 free
  ASSERT_EQ(rig.record.kind, StepRecord::Kind::kDecode);
  EXPECT_EQ(rig.scheduler.repeatable_decode_steps(rig.record), 19);
}

// --- Eligibility: each case must return 0 ------------------------------------

Request long_request(std::int64_t id, std::int64_t prompt = 100,
                     std::int64_t output = 500) {
  Request request;
  request.id = id;
  request.prompt_len = prompt;
  request.output_len = output;
  return request;
}

/// Prefills `requests` and runs one decode step; returns the decode record.
const StepRecord& decode_once(Rig* rig, const std::vector<Request>& requests) {
  for (const Request& request : requests) rig->scheduler.enqueue(request);
  while (rig->scheduler.next_step(&rig->record) &&
         rig->record.kind != StepRecord::Kind::kDecode) {
  }
  EXPECT_EQ(rig->record.kind, StepRecord::Kind::kDecode);
  return rig->record;
}

TEST(RepeatDecodeEligibilityTest, SteadyDecodeIsRepeatable) {
  // The positive control for the cases below: same shapes, nothing odd.
  Rig rig(RigConfig{});
  const StepRecord& last = decode_once(&rig, {long_request(0), long_request(1)});
  // Prompt 100, generated 2 after the step: 26 steps to the 128 bucket.
  EXPECT_EQ(rig.scheduler.repeatable_decode_steps(last), 26);
}

TEST(RepeatDecodeEligibilityTest, PagedKvUnderPreemptionIsNotRepeatable) {
  RigConfig config;
  config.block_tokens = 16;
  Rig rig(config);
  const StepRecord& last = decode_once(&rig, {long_request(0), long_request(1)});
  EXPECT_EQ(rig.scheduler.repeatable_decode_steps(last), 0);
}

TEST(RepeatDecodeEligibilityTest, SwappedOutSequenceIsNotRepeatable) {
  // Three decoders on a device that fits two and a bit: growth pressure
  // swaps the newest out and the watermark keeps it on the host.
  RigConfig config;
  config.policy = EvictionPolicy::kSwapToHost;
  config.kv_tokens = 3 * 101 + 2;
  Rig rig(config);
  for (std::int64_t id = 0; id < 3; ++id) {
    rig.scheduler.enqueue(long_request(id));
  }
  bool checked = false;
  for (int i = 0; i < 50 && rig.scheduler.next_step(&rig.record); ++i) {
    if (rig.record.kind == StepRecord::Kind::kDecode &&
        rig.scheduler.swapped_count() > 0) {
      EXPECT_EQ(rig.scheduler.repeatable_decode_steps(rig.record), 0);
      checked = true;
    }
  }
  EXPECT_TRUE(checked) << "no decode step ran with a sequence swapped out";
}

TEST(RepeatDecodeEligibilityTest, PrefillingResidentIsNotRepeatable) {
  // Chunked prefill alternates steps: after a decode step the long prompt
  // is still resident and prefilling.
  RigConfig config;
  config.chunk_tokens = 128;
  Rig rig(config);
  decode_once(&rig, {long_request(0)});
  rig.scheduler.enqueue(long_request(1, /*prompt=*/2000));
  bool checked = false;
  for (int i = 0; i < 10 && rig.scheduler.next_step(&rig.record); ++i) {
    if (rig.record.kind == StepRecord::Kind::kDecode &&
        rig.scheduler.resident_decoder_count() <
            static_cast<std::int64_t>(rig.scheduler.running_count())) {
      EXPECT_EQ(rig.scheduler.repeatable_decode_steps(rig.record), 0);
      checked = true;
    }
  }
  EXPECT_TRUE(checked) << "no decode step ran beside a prefilling resident";
}

TEST(RepeatDecodeEligibilityTest, UnblockedWaitingRequestIsNotRepeatable) {
  Rig rig(RigConfig{});
  const StepRecord& last = decode_once(&rig, {long_request(0), long_request(1)});
  ASSERT_GT(rig.scheduler.repeatable_decode_steps(last), 0);
  // A fresh arrival clears the head-of-line memo: the next step admits.
  rig.scheduler.enqueue(long_request(2));
  EXPECT_EQ(rig.scheduler.repeatable_decode_steps(last), 0);
}

TEST(RepeatDecodeEligibilityTest, FinisherNextStepIsNotRepeatable) {
  // output_len 3: generated is 2 after the first decode step, so the
  // next decode step finishes it.
  Rig rig(RigConfig{});
  const StepRecord& last =
      decode_once(&rig, {long_request(0), long_request(1, 100, 3)});
  EXPECT_EQ(rig.scheduler.repeatable_decode_steps(last), 0);
}

TEST(RepeatDecodeEligibilityTest, BucketCrossingIsNotRepeatable) {
  // Prompt 126: after one decode step the KV length is exactly the 128
  // bucket, so the next step attends past it.
  Rig rig(RigConfig{});
  const StepRecord& last =
      decode_once(&rig, {long_request(0), long_request(1, 126)});
  EXPECT_EQ(rig.scheduler.repeatable_decode_steps(last), 0);
  // And the step that crosses leaves a histogram that no longer matches
  // its own groups.
  ASSERT_TRUE(rig.scheduler.next_step(&rig.record));
  EXPECT_EQ(rig.scheduler.repeatable_decode_steps(rig.record), 0);
}

// --- FixedBucketHistogram repeat form --------------------------------------------

TEST(RepeatDecodeHistogramTest, RepeatEqualsIndividualObservations) {
  const std::vector<double> bounds = exponential_bounds(1e-4, 2.0, 20);
  FixedBucketHistogram repeated(bounds);
  FixedBucketHistogram single(bounds);
  const struct {
    double value;
    std::int64_t repeats;
  } runs[] = {{0.0123, 1}, {0.0123, 977}, {3e-5, 4}, {0.1, 0}, {7.5, 31},
              {0.0031, 12345}};
  for (const auto& run : runs) {
    repeated.observe(run.value, run.repeats);
    for (std::int64_t i = 0; i < run.repeats; ++i) single.observe(run.value);
  }
  EXPECT_EQ(repeated.count(), single.count());
  EXPECT_EQ(repeated.sum(), single.sum());  // bit-identical, not close
  EXPECT_EQ(repeated.min(), single.min());
  EXPECT_EQ(repeated.max(), single.max());
  EXPECT_EQ(repeated.bucket_counts(), single.bucket_counts());
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(repeated.quantile(p), single.quantile(p)) << "p" << p;
  }
}

// --- Engine differential -----------------------------------------------------------

void expect_fast_path_identical(const ServingScenario& scenario,
                                const std::vector<Request>& requests) {
  ServingScenario traced = scenario;
  traced.trace.enabled = true;  // per-step path: the reference
  const ServingMetrics reference = run_serving(traced, requests);
  ServingScenario untraced = scenario;
  untraced.trace.enabled = false;
  const ServingMetrics fast = run_serving(untraced, requests);
  EXPECT_GT(reference.decode_steps, 0);
  expect_identical_metrics(reference, fast);
}

constexpr ir::DType kInt8 = ir::DType::kInt8;

TEST(RepeatDecodeEngineTest, FifoChatLowAndSaturatedRate) {
  const ServingScenario scenario = llama7b_baseline_scenario(1, kInt8);
  for (double rate : {0.3, 4.0}) {
    SCOPED_TRACE("rate " + std::to_string(rate));
    expect_fast_path_identical(
        scenario, generate_requests(zipf_chat_stream(5, 300, rate)));
  }
}

TEST(RepeatDecodeEngineTest, NoEvictionAndSwapPressure) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(7, 300, 2.0));
  for (EvictionPolicy policy :
       {EvictionPolicy::kNone, EvictionPolicy::kSwapToHost}) {
    SCOPED_TRACE(eviction_policy_name(policy));
    expect_fast_path_identical(
        llama7b_pressured_scenario(1, kInt8, policy, /*chunk_tokens=*/0),
        requests);
  }
}

TEST(RepeatDecodeEngineTest, ChunkedPrefill) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(11, 300, 1.0));
  expect_fast_path_identical(
      llama7b_pressured_scenario(1, kInt8, EvictionPolicy::kPreemptNewest,
                                 /*chunk_tokens=*/512),
      requests);
}

TEST(RepeatDecodeEngineTest, EdfDeadlinesAndWfqTenants) {
  // Overload keeps the queue full (the per-step path: EDF and WFQ selects
  // are not memoized, so a waiting request blocks the fast path); the
  // light rate drains it between arrivals, where runs are repeatable.
  for (double rate : {1.0, 10.0}) {
    SCOPED_TRACE("rate " + std::to_string(rate));
    expect_fast_path_identical(
        slo_scenario(kInt8, "edf"),
        generate_requests(slo_chat_stream(13, 300, rate)));
    expect_fast_path_identical(
        multi_tenant_fairness_scenario(kInt8, "wfq",
                                       multi_tenant_fairness_weights(), 20.0),
        generate_requests(multi_tenant_pressure_stream(13, 300, rate, 2)));
  }
}

TEST(RepeatDecodeEngineTest, SimulatedTimeHorizon) {
  ServingScenario scenario = llama7b_baseline_scenario(1, kInt8);
  scenario.max_sim_seconds = 120.0;
  expect_fast_path_identical(
      scenario, generate_requests(zipf_chat_stream(17, 300, 1.0)));
}

TEST(RepeatDecodeEngineTest, PipelineAndTensorParallel) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(19, 200, 1.0));
  expect_fast_path_identical(llama7b_baseline_scenario(2, kInt8), requests);
  ServingScenario tp = llama7b_baseline_scenario(1, kInt8);
  tp.tensor_parallel_ways = 2;
  expect_fast_path_identical(tp, requests);
}

void expect_cluster_identical(ClusterConfig config,
                              const std::vector<Request>& requests) {
  config.base.trace.enabled = true;
  const ClusterMetrics reference = run_serving_cluster(config, requests);
  config.base.trace.enabled = false;
  const ClusterMetrics fast = run_serving_cluster(config, requests);
  ASSERT_EQ(reference.replica_metrics.size(), fast.replica_metrics.size());
  for (std::size_t i = 0; i < fast.replica_metrics.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    expect_identical_metrics(reference.replica_metrics[i],
                             fast.replica_metrics[i]);
  }
  EXPECT_EQ(reference.completed, fast.completed);
  EXPECT_EQ(reference.makespan, fast.makespan);
  EXPECT_EQ(reference.ttft.p99, fast.ttft.p99);
  EXPECT_EQ(reference.tpot.p99, fast.tpot.p99);
  EXPECT_EQ(reference.e2e.mean, fast.e2e.mean);
  EXPECT_EQ(reference.goodput_tokens_per_second,
            fast.goodput_tokens_per_second);
  EXPECT_EQ(reference.jain_across_replicas, fast.jain_across_replicas);
  EXPECT_EQ(reference.kv_transfer_bytes, fast.kv_transfer_bytes);
  EXPECT_EQ(reference.registry.to_json(), fast.registry.to_json());
}

TEST(RepeatDecodeEngineTest, FourReplicaClusterAndDisaggregation) {
  // The colocated cluster pumps each replica to the next arrival
  // (pump(until)), so fast-forwarded runs are cut at every stop point.
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(23, 400, 2.0));
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, kInt8);
  config.replicas.assign(4, ReplicaSpec{});
  config.router_policy = "least_loaded";
  expect_cluster_identical(config, requests);
  config.disaggregated = true;
  config.prefill_replicas = 1;
  expect_cluster_identical(config, requests);

  // Paged KV (16-token blocks) under preemption stays on the per-step
  // path; prefix_affinity routing and prefix caching ride along.
  ClusterConfig paged;
  paged.base = prefix_cache_scenario(kInt8, /*enable_prefix_cache=*/true);
  paged.replicas.assign(4, ReplicaSpec{});
  paged.router_policy = "prefix_affinity";
  expect_cluster_identical(
      paged, generate_requests(prefix_chatbot_stream(23, 400, 8.0)));
}

}  // namespace
}  // namespace cimtpu::serving
