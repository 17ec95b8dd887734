// Equivalence wall for the serving hot-path overhaul: the parallel sweep
// driver must reproduce serial execution bit for bit, a shared cost cache
// must reproduce per-run caching bit for bit (including the run-local
// hit/miss counters), and the packed cost-cache key must be collision-free
// at its field boundaries.  Together with the golden-metrics pins in
// serving_policy_test.cpp these guarantee the optimizations changed
// wall-clock only, never simulated results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/status.h"
#include "models/model_zoo.h"
#include "serving/sweep.h"
#include "serving/traffic_profiles.h"
#include "serving_metrics_testing.h"

namespace cimtpu::serving {
namespace {

/// A 3 (rate) x 2 (chips) x 2 (policy) grid under genuine KV pressure so
/// preemption, swap, and chunk paths all execute: uniform 32..256-token
/// prompts against a 600-token budget (any single request fits, dozens do
/// not).
ServingSweep pressured_grid() {
  ServingSweep sweep;
  sweep.arrival_rates = {30.0, 60.0, 90.0};
  sweep.models = {[] {
    models::TransformerConfig model = models::llama2_7b();
    model.dtype = ir::DType::kInt4;
    return model;
  }()};
  sweep.chip_counts = {1, 2};
  sweep.policies = {EvictionPolicy::kPreemptNewest,
                    EvictionPolicy::kSwapToHost};
  sweep.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  sweep.base.kv_budget_override =
      KvCacheManager::token_bytes(sweep.base.model) * 600.0;
  sweep.stream.seed = 11;
  sweep.stream.num_requests = 50;
  sweep.stream.prompt.kind = LengthDistribution::kUniform;
  sweep.stream.prompt.min_len = 32;
  sweep.stream.prompt.max_len = 256;
  sweep.stream.output.kind = LengthDistribution::kUniform;
  sweep.stream.output.min_len = 8;
  sweep.stream.output.max_len = 64;
  return sweep;
}

TEST(SweepEquivalenceTest, ParallelMatchesSerialOn3x2x2Grid) {
  const ServingSweep sweep = pressured_grid();
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<SweepCellResult> a = run_serving_sweep(sweep, serial);
  const std::vector<SweepCellResult> b = run_serving_sweep(sweep, parallel);
  ASSERT_EQ(a.size(), 12u);
  ASSERT_EQ(b.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Identical grid coordinates in identical order...
    EXPECT_EQ(a[i].arrival_rate, b[i].arrival_rate);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].chips, b[i].chips);
    EXPECT_EQ(a[i].policy, b[i].policy);
    // ...and bit-identical metrics, workers be damned.
    expect_identical_metrics(a[i].metrics, b[i].metrics);
  }
  // Grid order is rate-major, policy-minor.
  EXPECT_EQ(a[0].arrival_rate, 30.0);
  EXPECT_EQ(a[0].chips, 1);
  EXPECT_EQ(a[0].policy, EvictionPolicy::kPreemptNewest);
  EXPECT_EQ(a[1].policy, EvictionPolicy::kSwapToHost);
  EXPECT_EQ(a[2].chips, 2);
  EXPECT_EQ(a[4].arrival_rate, 60.0);
  EXPECT_EQ(a[11].arrival_rate, 90.0);
  EXPECT_EQ(a[11].chips, 2);
  EXPECT_EQ(a[11].policy, EvictionPolicy::kSwapToHost);
}

TEST(SweepEquivalenceTest, SharedCostCacheMatchesPerRunCache) {
  const ServingSweep sweep = pressured_grid();
  SweepOptions with_shared;
  with_shared.threads = 2;
  with_shared.share_cost_cache = true;
  SweepOptions without_shared;
  without_shared.threads = 2;
  without_shared.share_cost_cache = false;
  const auto a = run_serving_sweep(sweep, with_shared);
  const auto b = run_serving_sweep(sweep, without_shared);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_identical_metrics(a[i].metrics, b[i].metrics);
  }
}

TEST(SweepEquivalenceTest, SweepCellMatchesDirectRunServing) {
  const ServingSweep sweep = pressured_grid();
  SweepOptions options;
  options.threads = 3;
  const auto cells = run_serving_sweep(sweep, options);
  // Ground truth: run one cell directly, no sweep machinery at all.
  RequestStreamConfig stream = sweep.stream;
  stream.arrival_rate = 60.0;
  const auto requests = generate_requests(stream);
  ServingScenario scenario = sweep.base;
  scenario.chips = 2;
  scenario.eviction = EvictionPolicy::kSwapToHost;
  const ServingMetrics direct = run_serving(scenario, requests);
  expect_identical_metrics(cells[7].metrics, direct);  // rate 60, chips 2, swap
}

TEST(SweepEquivalenceTest, SharedCacheReusedAcrossSequentialRuns) {
  const ServingSweep sweep = pressured_grid();
  RequestStreamConfig stream = sweep.stream;
  stream.arrival_rate = 30.0;
  const auto requests = generate_requests(stream);
  ServingScenario scenario = sweep.base;

  SharedStepCostCache shared;
  const ServingMetrics cold = run_serving(scenario, requests, &shared);
  EXPECT_EQ(shared.store_count(), 1u);
  const std::size_t entries_after_first = shared.total_entries();
  EXPECT_GT(entries_after_first, 0u);
  // A second identical run computes nothing new in the shared store and
  // reproduces the first run exactly — including hit/miss counters, which
  // count against the run-local cache, not the shared one.
  const ServingMetrics warm = run_serving(scenario, requests, &shared);
  EXPECT_EQ(shared.total_entries(), entries_after_first);
  expect_identical_metrics(cold, warm);

  // A different model signature gets its own store.
  ServingScenario other = scenario;
  other.model.dtype = ir::DType::kInt8;
  other.kv_budget_override = KvCacheManager::token_bytes(other.model) * 600.0;
  run_serving(other, requests, &shared);
  EXPECT_EQ(shared.store_count(), 2u);
}

TEST(SweepErrorTest, PointFailureRethrowsFromRunSweep) {
  // A 10-token KV budget cannot admit a 100-token prompt: the failing
  // point must surface as the sweep's exception, not hang or vanish.
  std::vector<Request> requests(1);
  requests[0].id = 0;
  requests[0].arrival_time = 0;
  requests[0].prompt_len = 100;
  requests[0].output_len = 4;
  SweepPoint bad;
  bad.label = "tiny-budget";
  bad.scenario = llama7b_pressured_scenario(
      1, ir::DType::kInt4, EvictionPolicy::kPreemptNewest, /*chunk_tokens=*/0,
      /*kv_budget_tokens=*/10);
  bad.requests = &requests;
  SweepOptions options;
  options.threads = 2;
  try {
    run_sweep({bad}, options);
    FAIL() << "unservable point did not throw";
  } catch (const ConfigError& error) {
    // The rethrown error names the failing point and its label.
    EXPECT_NE(std::string(error.what()).find("sweep point 0"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("tiny-budget"), std::string::npos)
        << error.what();
  }
}

TEST(SweepEquivalenceTest, CallerOwnedSharedCacheReusedAcrossSweeps) {
  // Two separate run_sweep calls over the same deployments warm ONE
  // caller-owned cache: the second sweep adds no new entries and still
  // reproduces the first bit for bit.
  const ServingSweep sweep = pressured_grid();
  RequestStreamConfig stream = sweep.stream;
  stream.arrival_rate = 30.0;
  const auto requests = generate_requests(stream);
  SweepPoint point;
  point.scenario = sweep.base;
  point.requests = &requests;

  SharedStepCostCache shared;
  SweepOptions options;
  options.threads = 1;
  options.shared_cache = &shared;
  const auto first = run_sweep({point}, options);
  const std::size_t warm_entries = shared.total_entries();
  EXPECT_GT(warm_entries, 0u);
  const auto second = run_sweep({point}, options);
  EXPECT_EQ(shared.total_entries(), warm_entries);
  expect_identical_metrics(first[0], second[0]);
}

TEST(SweepThreadsTest, ExplicitThenEnvThenClamp) {
  unsetenv("CIMTPU_SWEEP_THREADS");
  EXPECT_EQ(resolve_sweep_threads(3, 100), 3);
  EXPECT_EQ(resolve_sweep_threads(8, 2), 2);  // clamped to the point count
  setenv("CIMTPU_SWEEP_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(resolve_sweep_threads(0, 100), 5);
  EXPECT_EQ(resolve_sweep_threads(2, 100), 2);  // explicit beats env
  setenv("CIMTPU_SWEEP_THREADS", "0", 1);
  EXPECT_GE(resolve_sweep_threads(0, 100), 1);  // falls through to hardware
  unsetenv("CIMTPU_SWEEP_THREADS");
  EXPECT_GE(resolve_sweep_threads(0, 100), 1);
}

// --- Packed cost-cache key: collision-freedom at field boundaries ------------

TEST(PackedKeyTest, FieldLayoutAndBoundaries) {
  // len occupies bits 0..39, batch bits 40..62, the kind flag bit 63.
  EXPECT_EQ(StepCostCache::pack_key(false, 1, 1), (1ull << 40) | 1ull);
  EXPECT_EQ(StepCostCache::pack_key(true, 1, 1),
            (1ull << 63) | (1ull << 40) | 1ull);
  const std::int64_t max_batch = (std::int64_t{1} << 23) - 1;
  const std::int64_t max_len = (std::int64_t{1} << 40) - 1;
  // Boundary values pack losslessly and never collide across fields: a
  // max-len key differs from every (batch+1, small-len) key.
  EXPECT_NE(StepCostCache::pack_key(false, 1, max_len),
            StepCostCache::pack_key(false, 2, 1));
  EXPECT_NE(StepCostCache::pack_key(false, max_batch, max_len),
            StepCostCache::pack_key(true, max_batch, max_len));
  // One more token / one more sequence each flip exactly one field.
  EXPECT_EQ(StepCostCache::pack_key(false, 2, 1) -
                StepCostCache::pack_key(false, 1, 1),
            1ull << 40);
  EXPECT_EQ(StepCostCache::pack_key(false, 1, 2) -
                StepCostCache::pack_key(false, 1, 1),
            1ull);
  // Out-of-range shapes would alias another field's bits: rejected.
  EXPECT_THROW(StepCostCache::pack_key(false, 0, 1), InternalError);
  EXPECT_THROW(StepCostCache::pack_key(false, 1, 0), InternalError);
  EXPECT_THROW(StepCostCache::pack_key(false, max_batch + 1, 1),
               InternalError);
  EXPECT_THROW(StepCostCache::pack_key(false, 1, max_len + 1), InternalError);
}

TEST(PackedKeyTest, DistinctShapesNeverAlias) {
  // Dense batch x sparse len sampling across both kinds: every packed key
  // unique (the layout is a bijection on in-range shapes).
  std::vector<std::uint64_t> keys;
  const std::vector<std::int64_t> lens = {1, 127, 128, 129, 4096,
                                          (std::int64_t{1} << 40) - 1};
  for (int kind = 0; kind < 2; ++kind) {
    for (std::int64_t batch : {std::int64_t{1}, std::int64_t{31},
                               (std::int64_t{1} << 23) - 1}) {
      for (std::int64_t len : lens) {
        keys.push_back(StepCostCache::pack_key(kind == 1, batch, len));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(FlatCostTableTest, InsertFindAndGrowPreserveValues) {
  FlatCostTable table;
  // Enough keys to force several growth rehashes from the 256-slot start.
  constexpr int kBatches = 64;
  constexpr int kLens = 40;
  for (int batch = 1; batch <= kBatches; ++batch) {
    for (int len = 1; len <= kLens; ++len) {
      const std::uint64_t key =
          StepCostCache::pack_key(batch % 2 == 0, batch, len * 128);
      StepCost cost;
      cost.latency = static_cast<double>(batch) * 1e-3;
      cost.total_energy = static_cast<double>(len);
      table.insert(key, cost);
    }
  }
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kBatches * kLens));
  for (int batch = 1; batch <= kBatches; ++batch) {
    for (int len = 1; len <= kLens; ++len) {
      const std::uint64_t key =
          StepCostCache::pack_key(batch % 2 == 0, batch, len * 128);
      const StepCost* found = table.find(key);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->latency, static_cast<double>(batch) * 1e-3);
      EXPECT_EQ(found->total_energy, static_cast<double>(len));
    }
  }
  EXPECT_EQ(table.find(StepCostCache::pack_key(true, 12345, 99)), nullptr);
}

}  // namespace
}  // namespace cimtpu::serving
