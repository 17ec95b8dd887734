// Step-arena allocation discipline: the serving hot loop (next_step +
// cost_step) must not touch the heap in steady-state decode.  This binary
// replaces GLOBAL operator new so every allocation anywhere in the
// process bumps serving::heap_allocation_count() — the assertions below
// are therefore about the real allocator, not a proxy.

#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "arch/tpu_config.h"
#include "models/model_zoo.h"
#include "serving/arena.h"
#include "serving/kv_cache_manager.h"
#include "serving/scheduler.h"
#include "serving/stats.h"
#include "serving/step_cost_cache.h"
#include "sim/simulator.h"

// --- Counting global allocator ----------------------------------------------
// Minimal replacement set: the sized/array forms forward here.  Counting
// happens on every path so a hot-loop allocation cannot hide behind a
// specialized overload.

namespace {
void* counted_alloc(std::size_t size) {
  cimtpu::serving::note_heap_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cimtpu::serving {
namespace {

std::int64_t allocations() {
  return heap_allocation_count().load(std::memory_order_relaxed);
}

TEST(AllocationHook, CountsRealAllocations) {
  const std::int64_t before = allocations();
  auto* v = new std::vector<int>(1024);
  delete v;
  EXPECT_GT(allocations(), before) << "the replacement operator new is not "
                                      "linked; zero-alloc assertions below "
                                      "would be vacuous";
}

TEST(StepArena, WarmPreReservesTheFirstFullBatch) {
  StepArena arena;
  arena.warm(/*max_batch=*/32, /*max_prefill_batch=*/8);
  StepRecord& record = arena.record();
  const std::int64_t before = allocations();
  for (int i = 0; i < 32; ++i) {
    record.kv_lens.push_back(100 + i);
    record.finished_ids.push_back(i);
    record.decode_groups.emplace_back(128, 1);
  }
  for (int i = 0; i < 8; ++i) {
    record.chunk_lens.push_back(64);
    record.prev_lens.push_back(0);
    record.first_token_ids.push_back(i);
  }
  EXPECT_EQ(allocations(), before)
      << "a warmed record must absorb a full batch without reallocating";
  record.clear();
  EXPECT_EQ(allocations(), before) << "clear() must keep capacity";
}

class SteadyDecodeTest : public ::testing::Test {
 protected:
  SteadyDecodeTest() : chip_(arch::tpu_v4i_baseline()), simulator_(chip_) {
    model_ = models::llama2_7b();
    model_.dtype = ir::DType::kInt4;
  }

  static Request make_request(std::int64_t id) {
    Request request;
    request.id = id;
    request.arrival_time = 0.0;
    // Prompt 100 with seqlen_bucket 128: all decoders share bucket 128 and
    // stay there for > 20 decode steps — no bucket crossing (and thus no
    // new cost-cache shape) inside the measured window.
    request.prompt_len = 100;
    request.output_len = 1000;  // nobody finishes inside the window
    return request;
  }

  arch::TpuChip chip_;
  sim::Simulator simulator_;
  models::TransformerConfig model_;
};

TEST_F(SteadyDecodeTest, HotLoopIsAllocationFreeInSteadyState) {
  KvCacheManager kv_cache(/*capacity=*/1e12,
                          KvCacheManager::token_bytes(model_),
                          EvictionPolicy::kPreemptNewest);
  SchedulerConfig config;
  config.max_batch = 8;
  config.max_prefill_batch = 8;
  ContinuousBatchScheduler scheduler(config, &kv_cache);
  StepCostCache costs(simulator_, model_, config.seqlen_bucket);
  StepArena arena;
  arena.warm(config.max_batch, config.max_prefill_batch);
  StepRecord& record = arena.record();

  for (std::int64_t id = 0; id < 8; ++id) {
    scheduler.enqueue(make_request(id));
  }
  // Warm-up: admit + prefill everyone, then a few decode steps so every
  // cost shape and memoized grouping this regime uses is resident.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.next_step(&record));
    cost_step(costs, record);
  }
  ASSERT_EQ(record.kind, StepRecord::Kind::kDecode) << "warm-up too short";

  FixedBucketHistogram histogram(exponential_bounds(1e-4, 2.0, 20));
  const std::int64_t before = allocations();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(scheduler.next_step(&record));
    ASSERT_EQ(record.kind, StepRecord::Kind::kDecode);
    ASSERT_EQ(record.batch, 8);
    cost_step(costs, record);
  }
  EXPECT_EQ(allocations(), before)
      << "steady-state decode (next_step + cost_step) must not allocate";

  // The decode fast-forward books the rest of this bucket's run: the
  // eligibility query, the bulk commit and the histogram's repeat form.
  const std::int64_t repeatable = scheduler.repeatable_decode_steps(record);
  ASSERT_GT(repeatable, 0);
  scheduler.repeat_decode_steps(repeatable);
  histogram.observe(0.01, repeatable);
  EXPECT_EQ(allocations(), before) << "the decode fast-forward must not allocate";
}

}  // namespace
}  // namespace cimtpu::serving
