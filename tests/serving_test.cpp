// Serving subsystem tests: request generation determinism, percentile
// math, KV-cache admission/eviction, continuous-batching step traces, and
// bit-identical end-to-end serving metrics for a fixed seed.

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "serving/kv_cache_manager.h"
#include "serving/metrics.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "sim/workload_runner.h"

namespace cimtpu::serving {
namespace {

// --- Request generation ------------------------------------------------------

RequestStreamConfig test_stream(std::int64_t n, double rate) {
  RequestStreamConfig stream;
  stream.seed = 7;
  stream.num_requests = n;
  stream.arrival_rate = rate;
  stream.prompt.kind = LengthDistribution::kZipf;
  stream.prompt.min_len = 16;
  stream.prompt.max_len = 512;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 1;
  stream.output.max_len = 32;
  return stream;
}

TEST(RequestGenTest, ArrivalsSortedAndLengthsBounded) {
  const auto requests = generate_requests(test_stream(2000, 50.0));
  ASSERT_EQ(requests.size(), 2000u);
  Seconds prev = 0;
  for (const Request& request : requests) {
    EXPECT_GE(request.arrival_time, prev);
    prev = request.arrival_time;
    EXPECT_GE(request.prompt_len, 16);
    EXPECT_LE(request.prompt_len, 512);
    EXPECT_GE(request.output_len, 1);
    EXPECT_LE(request.output_len, 32);
  }
}

TEST(RequestGenTest, PoissonMeanRateApproximatelyCorrect) {
  const double rate = 50.0;
  const auto requests = generate_requests(test_stream(5000, rate));
  const double span = requests.back().arrival_time;
  const double empirical = static_cast<double>(requests.size()) / span;
  EXPECT_NEAR(empirical, rate, 0.1 * rate);
}

TEST(RequestGenTest, BurstyKeepsLongRunRateAndBursts) {
  RequestStreamConfig stream = test_stream(20000, 50.0);
  stream.process = ArrivalProcess::kBursty;
  stream.burst_factor = 10.0;
  stream.burst_fraction = 0.1;
  const auto requests = generate_requests(stream);
  const double span = requests.back().arrival_time;
  const double empirical = static_cast<double>(requests.size()) / span;
  EXPECT_NEAR(empirical, 50.0, 0.2 * 50.0);
  // Burstiness shows up as over-dispersed inter-arrivals: the squared
  // coefficient of variation exceeds the Poisson value of 1.
  double sum = 0, sum_sq = 0;
  std::vector<double> gaps;
  for (std::size_t i = 1; i < requests.size(); ++i) {
    const double gap =
        requests[i].arrival_time - requests[i - 1].arrival_time;
    sum += gap;
    sum_sq += gap * gap;
    gaps.push_back(gap);
  }
  const double mean = sum / gaps.size();
  const double var = sum_sq / gaps.size() - mean * mean;
  EXPECT_GT(var / (mean * mean), 1.5);
}

TEST(RequestGenTest, SeedReproducesExactly) {
  const auto a = generate_requests(test_stream(500, 20.0));
  const auto b = generate_requests(test_stream(500, 20.0));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_time, b[i].arrival_time);  // bit-identical
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].output_len, b[i].output_len);
  }
  RequestStreamConfig other = test_stream(500, 20.0);
  other.seed = 8;
  const auto c = generate_requests(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].arrival_time != c[i].arrival_time;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RequestGenTest, ZipfFavorsShortLengths) {
  RequestStreamConfig stream = test_stream(5000, 50.0);
  stream.prompt.kind = LengthDistribution::kZipf;
  stream.prompt.min_len = 1;
  stream.prompt.max_len = 1000;
  stream.prompt.zipf_alpha = 1.2;
  const auto requests = generate_requests(stream);
  std::int64_t below_100 = 0;
  for (const Request& request : requests) {
    if (request.prompt_len <= 100) ++below_100;
  }
  // A uniform draw would put ~10% below 100; the Zipf tail puts most.
  EXPECT_GT(below_100, static_cast<std::int64_t>(0.5 * requests.size()));
}

// --- Percentile math ---------------------------------------------------------

TEST(MetricsTest, PercentileOnKnownSet) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 50.5);
  EXPECT_NEAR(percentile(values, 95.0), 95.05, 1e-9);
  EXPECT_NEAR(percentile(values, 99.0), 99.01, 1e-9);
}

TEST(MetricsTest, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99.0), 42.0);
  // Input order must not matter.
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_THROW(percentile({1.0}, 101.0), ConfigError);
}

TEST(MetricsTest, SummaryRollsUp) {
  const LatencySummary summary = summarize_latencies({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(summary.count, 4);
  EXPECT_DOUBLE_EQ(summary.mean, 2.5);
  EXPECT_DOUBLE_EQ(summary.p50, 2.5);
  EXPECT_DOUBLE_EQ(summary.max, 4.0);
}

// --- KV cache manager --------------------------------------------------------

TEST(KvCacheTest, AdmissionBlocksWhenExhaustedAndReleaseUnblocks) {
  // Budget of exactly 10 tokens.
  KvCacheManager kv(/*capacity=*/10.0, /*bytes_per_token=*/1.0);
  EXPECT_TRUE(kv.try_admit(0, 6));
  EXPECT_FALSE(kv.try_admit(1, 5));  // 6 + 5 > 10: admission blocks
  EXPECT_TRUE(kv.try_admit(1, 4));
  EXPECT_DOUBLE_EQ(kv.used(), 10.0);
  EXPECT_FALSE(kv.try_grow(0, 1));  // full
  kv.release(1);                    // eviction/completion unblocks
  EXPECT_TRUE(kv.try_grow(0, 1));
  EXPECT_TRUE(kv.try_admit(2, 3));
  EXPECT_EQ(kv.resident_count(), 2u);
  EXPECT_EQ(kv.resident_tokens(0), 7);
}

TEST(KvCacheTest, EvictionPicksNewestAndRespectsProtect) {
  KvCacheManager kv(100.0, 1.0, EvictionPolicy::kPreemptNewest);
  EXPECT_TRUE(kv.try_admit(10, 5));
  EXPECT_TRUE(kv.try_admit(11, 5));
  EXPECT_TRUE(kv.try_admit(12, 5));
  EXPECT_EQ(kv.pick_eviction_victim(/*protect=*/-1), 12);
  EXPECT_EQ(kv.pick_eviction_victim(/*protect=*/12), 11);
  kv.release(12);
  EXPECT_EQ(kv.pick_eviction_victim(-1), 11);

  KvCacheManager no_evict(100.0, 1.0, EvictionPolicy::kNone);
  EXPECT_TRUE(no_evict.try_admit(0, 5));
  EXPECT_EQ(no_evict.pick_eviction_victim(-1), -1);
}

TEST(KvCacheTest, ModelBudgetAccountsForWeights) {
  models::TransformerConfig model = models::llama2_7b();
  model.dtype = ir::DType::kInt4;
  const Bytes hbm = 8 * GiB;
  const Bytes budget = KvCacheManager::hbm_kv_budget(model, hbm, 1);
  EXPECT_GT(budget, 0);
  EXPECT_DOUBLE_EQ(budget, hbm - model.stack_weight_bytes());
  // One cached token pins K and V across every layer.
  EXPECT_DOUBLE_EQ(
      KvCacheManager::token_bytes(model),
      models::kv_cache_bytes_per_layer(model, 1, 1) * model.num_layers);
  // GPT3-30B INT8 weights exceed single-chip HBM entirely.
  EXPECT_THROW(KvCacheManager::hbm_kv_budget(models::gpt3_30b(), hbm, 1),
               ConfigError);
}

TEST(KvCacheTest, UnevenPipelineSplitBudgetRespectsBottleneckStage) {
  // 32 layers over 5 chips: the bottleneck stage holds ceil(32/5) = 7
  // layers, so the aggregate budget must be what keeps THAT stage within
  // one chip's HBM — strictly less than the naive 5*HBM - weights.
  models::TransformerConfig model = models::llama2_7b();
  model.dtype = ir::DType::kInt4;
  const Bytes hbm = 8 * GiB;
  const Bytes layer_w = model.layer_weight_bytes();
  const Bytes budget = KvCacheManager::hbm_kv_budget(model, hbm, 5);
  EXPECT_DOUBLE_EQ(budget, (hbm - 7.0 * layer_w) * 32.0 / 7.0);
  EXPECT_LT(budget, 5.0 * hbm - model.stack_weight_bytes());
  // Even split (4 chips, 8 layers each) reduces to chips*HBM - weights.
  EXPECT_DOUBLE_EQ(KvCacheManager::hbm_kv_budget(model, hbm, 4),
                   4.0 * hbm - model.stack_weight_bytes());
}

// --- Continuous-batching scheduler -------------------------------------------

Request make_request(std::int64_t id, std::int64_t prompt,
                     std::int64_t output, Seconds arrival = 0) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.prompt_len = prompt;
  request.output_len = output;
  return request;
}

TEST(SchedulerTest, ThreeRequestHandTrace) {
  // r0: 1 token (prefill-only); r1: 3 tokens; r2: 5 tokens.  All arrive at
  // once and fit the batch, so the trace is:
  //   step 1: prefill {r0, r1, r2} -> all emit first token, r0 finishes
  //   step 2: decode {r1, r2}
  //   step 3: decode {r1, r2} -> r1 reaches 3 tokens and finishes
  //   step 4: decode {r2}
  //   step 5: decode {r2}      -> r2 reaches 5 tokens and finishes
  KvCacheManager kv(1e9, 1.0);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 32, 1));
  scheduler.enqueue(make_request(1, 64, 3));
  scheduler.enqueue(make_request(2, 16, 5));

  StepRecord step1;
  ASSERT_TRUE(scheduler.next_step(&step1));
  EXPECT_EQ(step1.kind, StepRecord::Kind::kPrefill);
  EXPECT_EQ(step1.batch, 3);
  // Per-sequence shapes: whole prompts in one chunk (chunking disabled).
  EXPECT_EQ(step1.chunk_lens, (std::vector<std::int64_t>{32, 64, 16}));
  EXPECT_EQ(step1.prev_lens, (std::vector<std::int64_t>{0, 0, 0}));
  EXPECT_EQ(step1.kv_lens, (std::vector<std::int64_t>{32, 64, 16}));
  EXPECT_FALSE(step1.chunked);
  EXPECT_EQ(step1.first_token_ids, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(step1.finished_ids, (std::vector<std::int64_t>{0}));

  std::vector<std::int64_t> decode_batches;
  std::vector<std::int64_t> finished;
  bool first_decode = true;
  StepRecord step;
  while (scheduler.next_step(&step)) {
    EXPECT_EQ(step.kind, StepRecord::Kind::kDecode);
    if (first_decode) {
      // Per-sequence KV lengths: prompt + tokens generated so far.
      EXPECT_EQ(step.kv_lens, (std::vector<std::int64_t>{64 + 1, 16 + 1}));
      first_decode = false;
    }
    decode_batches.push_back(step.batch);
    for (std::int64_t id : step.finished_ids) finished.push_back(id);
  }
  EXPECT_EQ(decode_batches, (std::vector<std::int64_t>{2, 2, 1, 1}));
  EXPECT_EQ(finished, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(scheduler.total_steps(), 5);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_DOUBLE_EQ(kv.used(), 0.0);  // everything released
}

TEST(SchedulerTest, ContinuousAdmissionJoinsRunningBatch) {
  // A long request decodes while a late arrival is admitted mid-flight:
  // the batch grows without waiting for the first request to finish.
  KvCacheManager kv(1e9, 1.0);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 8, 10));
  StepRecord prefill0, decode0, prefill1, decode1;
  ASSERT_TRUE(scheduler.next_step(&prefill0));
  EXPECT_EQ(prefill0.kind, StepRecord::Kind::kPrefill);
  ASSERT_TRUE(scheduler.next_step(&decode0));
  EXPECT_EQ(decode0.kind, StepRecord::Kind::kDecode);
  EXPECT_EQ(decode0.batch, 1);

  scheduler.enqueue(make_request(1, 8, 10));
  ASSERT_TRUE(scheduler.next_step(&prefill1));  // prefill-priority
  EXPECT_EQ(prefill1.kind, StepRecord::Kind::kPrefill);
  ASSERT_TRUE(scheduler.next_step(&decode1));
  EXPECT_EQ(decode1.kind, StepRecord::Kind::kDecode);
  EXPECT_EQ(decode1.batch, 2);  // r0 still running, r1 joined
}

TEST(SchedulerTest, KvPressurePreemptsNewestAndRequeues) {
  // Budget of 40 tokens: r0 (10 + growing) and r1 (10 + growing) fit at
  // admission (22 reserved), but decode growth exhausts the pages and the
  // newest request is preempted, finishing only after r0 releases.
  KvCacheManager kv(40.0, 1.0, EvictionPolicy::kPreemptNewest);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 10, 12));
  scheduler.enqueue(make_request(1, 10, 12));
  std::vector<std::int64_t> finished;
  StepRecord step;
  while (scheduler.next_step(&step)) {
    for (std::int64_t id : step.finished_ids) finished.push_back(id);
  }
  EXPECT_GT(scheduler.preemptions(), 0);
  EXPECT_EQ(finished, (std::vector<std::int64_t>{0, 1}));  // both complete
  EXPECT_DOUBLE_EQ(kv.used(), 0.0);
}

TEST(SchedulerTest, NonePolicyReservesWholeSequenceUpFront) {
  // kNone reserves prompt + output at admission, so r1 must wait for r0 to
  // finish entirely — and growth never fails.
  KvCacheManager kv(30.0, 1.0, EvictionPolicy::kNone);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 10, 10));  // reserves 20
  scheduler.enqueue(make_request(1, 10, 10));  // 40 > 30: blocks
  StepRecord prefill;
  ASSERT_TRUE(scheduler.next_step(&prefill));
  EXPECT_EQ(prefill.batch, 1);
  EXPECT_EQ(scheduler.waiting_count(), 1u);
  std::vector<std::int64_t> finished;
  StepRecord step;
  while (scheduler.next_step(&step)) {
    for (std::int64_t id : step.finished_ids) finished.push_back(id);
  }
  EXPECT_EQ(scheduler.preemptions(), 0);
  EXPECT_EQ(finished, (std::vector<std::int64_t>{0, 1}));
}

// --- Workload-runner edge cases (satellite fix) ------------------------------

TEST(WorkloadRunnerEdgeTest, ZeroOutputLenDoesNotDivideByZero) {
  arch::TpuChip chip(arch::tpu_v4i_baseline());
  const sim::Simulator simulator(chip);
  sim::LlmScenario scenario;
  scenario.model = models::llama2_7b();
  scenario.model.num_layers = 2;
  scenario.batch = 1;  // batch = 1 edge case
  scenario.input_len = 64;
  scenario.output_len = 0;  // prefill-only scoring
  const sim::LlmRunResult run = sim::run_llm_inference(simulator, scenario);
  EXPECT_DOUBLE_EQ(run.decode_latency_per_token, 0.0);
  EXPECT_DOUBLE_EQ(run.decode.latency, 0.0);
  EXPECT_NEAR(run.total.latency, run.prefill.latency,
              run.prefill.latency * 1e-12);
  EXPECT_GT(run.prefill.latency, 0.0);
}

// --- End-to-end serving simulation -------------------------------------------

ServingScenario small_scenario(int chips) {
  ServingScenario scenario;
  scenario.model = models::llama2_7b();
  scenario.model.dtype = ir::DType::kInt4;
  scenario.chip_config = arch::tpu_v4i_baseline();
  scenario.scheduler.max_batch = 16;
  scenario.scheduler.max_prefill_batch = 4;
  scenario.chips = chips;
  return scenario;
}

TEST(ServingSimTest, FixedSeedIsBitIdentical) {
  const auto requests = generate_requests(test_stream(300, 20.0));
  const ServingMetrics a = run_serving(small_scenario(1), requests);
  const ServingMetrics b = run_serving(small_scenario(1), requests);
  // Exact (bit-identical) equality, not approximate.
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.ttft.p50, b.ttft.p50);
  EXPECT_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_EQ(a.tpot.p99, b.tpot.p99);
  EXPECT_EQ(a.e2e.p99, b.e2e.p99);
  EXPECT_EQ(a.goodput_tokens_per_second, b.goodput_tokens_per_second);
  EXPECT_EQ(a.energy_per_token, b.energy_per_token);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.mxu_utilization, b.mxu_utilization);
}

TEST(ServingSimTest, AllRequestsCompleteWithSaneMetrics) {
  const auto requests = generate_requests(test_stream(300, 20.0));
  const ServingMetrics metrics = run_serving(small_scenario(1), requests);
  EXPECT_EQ(metrics.completed, 300);
  EXPECT_EQ(metrics.total_steps, metrics.prefill_steps + metrics.decode_steps);
  EXPECT_GT(metrics.goodput_tokens_per_second, 0);
  EXPECT_GT(metrics.energy_per_token, 0);
  EXPECT_GT(metrics.mxu_utilization, 0);
  EXPECT_LE(metrics.mxu_utilization, 1.0);
  EXPECT_GT(metrics.ttft.p50, 0);
  EXPECT_GE(metrics.ttft.p99, metrics.ttft.p50);
  EXPECT_GE(metrics.e2e.p99, metrics.ttft.p99);  // e2e includes TTFT
  EXPECT_GT(metrics.cost_cache_hits, metrics.cost_cache_misses);
}

TEST(ServingSimTest, PipelineImprovesGoodputUnderLoad) {
  const auto requests = generate_requests(test_stream(500, 100.0));
  const ServingMetrics one = run_serving(small_scenario(1), requests);
  const ServingMetrics four = run_serving(small_scenario(4), requests);
  EXPECT_GT(four.goodput_tokens_per_second,
            one.goodput_tokens_per_second * 1.5);
  EXPECT_LT(four.makespan, one.makespan);
}

TEST(ServingSimTest, PipelineEmissionIsMonotonicPerRequest) {
  // Long prompts with 2-token outputs on a 4-stage pipeline: the cheap
  // decode step following the expensive prefill step must not be modeled
  // as exiting the pipeline before the first token did (that would yield
  // negative TPOT and e2e < TTFT).
  RequestStreamConfig stream = test_stream(50, 100.0);
  stream.prompt.kind = LengthDistribution::kFixed;
  stream.prompt.mean = 4096;
  stream.output.kind = LengthDistribution::kFixed;
  stream.output.mean = 2;
  const auto requests = generate_requests(stream);
  const ServingMetrics metrics = run_serving(small_scenario(4), requests);
  EXPECT_EQ(metrics.completed, 50);
  EXPECT_GE(metrics.tpot.p50, 0.0);
  EXPECT_GE(metrics.tpot.mean, 0.0);
  EXPECT_GE(metrics.e2e.p50, metrics.ttft.p50);
  EXPECT_GE(metrics.e2e.p99, metrics.ttft.p99);
}

TEST(ServingSimTest, TinyKvBudgetForcesPreemptionsButCompletes) {
  ServingScenario scenario = small_scenario(1);
  // Room for only ~2 running sequences of this stream's max footprint.
  scenario.kv_budget_override =
      KvCacheManager::token_bytes(scenario.model) * 1200.0;
  const auto requests = generate_requests(test_stream(50, 50.0));
  const ServingMetrics metrics = run_serving(scenario, requests);
  EXPECT_EQ(metrics.completed, 50);
  EXPECT_GT(metrics.preemptions, 0);
}

}  // namespace
}  // namespace cimtpu::serving
