// Serving policy hardening suite: KV-page accounting invariants across
// admit/grow/preempt/swap/finish, chunked-prefill token and cost
// conservation, per-policy preemption behaviour (recompute vs swap vs
// priority-victim), per-sequence attention costing, and golden-metrics
// regression pins for one fixed seed per (policy x chunked on/off).
//
// The invariant tests drive the scheduler directly with byte-per-token
// accounting so every step can be audited; the golden tests replay the
// canonical pressured llama2-7b deployment (traffic_profiles.h) end to
// end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "models/model_zoo.h"
#include "serving/admission_policy.h"
#include "serving/kv_cache_manager.h"
#include "serving/metrics.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

Request make_request(std::int64_t id, std::int64_t prompt, std::int64_t output,
                     std::int64_t priority = 0, Seconds arrival = 0) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.prompt_len = prompt;
  request.output_len = output;
  request.priority = priority;
  return request;
}

// --- KV cache manager: swap + priority unit behaviour ------------------------

TEST(KvSwapTest, SwapOutMovesBytesToHostAndBack) {
  KvCacheManager kv(/*capacity=*/100.0, /*bytes_per_token=*/1.0,
                    EvictionPolicy::kSwapToHost, /*host_capacity=*/50.0);
  EXPECT_TRUE(kv.try_admit(0, 40));
  EXPECT_TRUE(kv.try_admit(1, 30));
  EXPECT_TRUE(kv.try_swap_out(1));
  EXPECT_FALSE(kv.resident(1));
  EXPECT_TRUE(kv.swapped(1));
  EXPECT_EQ(kv.swapped_tokens(1), 30);
  EXPECT_DOUBLE_EQ(kv.used(), 40.0);
  EXPECT_DOUBLE_EQ(kv.host_used(), 30.0);
  EXPECT_TRUE(kv.audit());
  // Device room frees -> the pages come home, token count intact.
  EXPECT_TRUE(kv.try_swap_in(1));
  EXPECT_TRUE(kv.resident(1));
  EXPECT_FALSE(kv.swapped(1));
  EXPECT_EQ(kv.resident_tokens(1), 30);
  EXPECT_DOUBLE_EQ(kv.host_used(), 0.0);
  EXPECT_TRUE(kv.audit());
}

TEST(KvSwapTest, SwapOutRespectsHostCapacity) {
  KvCacheManager kv(100.0, 1.0, EvictionPolicy::kSwapToHost,
                    /*host_capacity=*/25.0);
  EXPECT_TRUE(kv.try_admit(0, 20));
  EXPECT_TRUE(kv.try_admit(1, 30));
  EXPECT_TRUE(kv.try_swap_out(0));   // 20 <= 25 fits
  EXPECT_FALSE(kv.try_swap_out(1));  // 20 + 30 > 25: host pool full
  EXPECT_TRUE(kv.resident(1));       // nothing moved on failure
  EXPECT_DOUBLE_EQ(kv.used(), 30.0);
  EXPECT_DOUBLE_EQ(kv.host_used(), 20.0);
  EXPECT_TRUE(kv.audit());
}

TEST(KvSwapTest, SwapInFailsWhenDeviceFull) {
  KvCacheManager kv(50.0, 1.0, EvictionPolicy::kSwapToHost);
  EXPECT_TRUE(kv.try_admit(0, 30));
  EXPECT_TRUE(kv.try_swap_out(0));
  EXPECT_TRUE(kv.try_admit(1, 40));
  EXPECT_FALSE(kv.try_swap_in(0));  // 40 + 30 > 50: stays on the host
  EXPECT_TRUE(kv.swapped(0));
  kv.release(1);
  EXPECT_TRUE(kv.try_swap_in(0));
  EXPECT_TRUE(kv.audit());
}

TEST(KvSwapTest, SwapInCountsAsNewestAdmission) {
  KvCacheManager kv(100.0, 1.0, EvictionPolicy::kSwapToHost);
  EXPECT_TRUE(kv.try_admit(0, 10));
  EXPECT_TRUE(kv.try_admit(1, 10));
  EXPECT_TRUE(kv.try_swap_out(0));
  EXPECT_TRUE(kv.try_swap_in(0));
  // 0 re-entered after 1, so it is now the newest -> first victim.
  EXPECT_EQ(kv.pick_eviction_victim(/*protect=*/-1), 0);
}

TEST(KvPriorityTest, VictimIsLowestPriorityThenLargestKv) {
  KvCacheManager kv(1000.0, 1.0, EvictionPolicy::kPriorityVictim);
  EXPECT_TRUE(kv.try_admit(0, 50, /*priority=*/2));
  EXPECT_TRUE(kv.try_admit(1, 80, /*priority=*/0));
  EXPECT_TRUE(kv.try_admit(2, 120, /*priority=*/0));
  EXPECT_TRUE(kv.try_admit(3, 200, /*priority=*/5));
  // Lowest priority class first; among {1, 2} the larger footprint goes.
  EXPECT_EQ(kv.pick_eviction_victim(-1), 2);
  kv.release(2);
  EXPECT_EQ(kv.pick_eviction_victim(-1), 1);
  kv.release(1);
  // The oldest resident (id 0) is exempt for forward progress, so the
  // high-priority newcomer is the only eligible victim.
  EXPECT_EQ(kv.pick_eviction_victim(-1), 3);
  // With the oldest excluded via `protect`, id 3 is the sole candidate.
  EXPECT_EQ(kv.pick_eviction_victim(/*protect=*/0), 3);
}

TEST(KvPriorityTest, EqualPrioritiesAndSizesFallBackToNewest) {
  KvCacheManager kv(1000.0, 1.0, EvictionPolicy::kPriorityVictim);
  EXPECT_TRUE(kv.try_admit(7, 50, 1));
  EXPECT_TRUE(kv.try_admit(8, 50, 1));
  EXPECT_TRUE(kv.try_admit(9, 50, 1));
  EXPECT_EQ(kv.pick_eviction_victim(-1), 9);  // newest admission
  EXPECT_EQ(kv.pick_eviction_victim(9), 8);
}

TEST(KvPolicyTest, PolicyNamesAreStable) {
  EXPECT_EQ(eviction_policy_name(EvictionPolicy::kNone), "none");
  EXPECT_EQ(eviction_policy_name(EvictionPolicy::kPreemptNewest),
            "preempt_newest");
  EXPECT_EQ(eviction_policy_name(EvictionPolicy::kSwapToHost), "swap_to_host");
  EXPECT_EQ(eviction_policy_name(EvictionPolicy::kPriorityVictim),
            "priority_victim");
}

TEST(KvPolicyTest, AuditBalancesAcrossChurn) {
  KvCacheManager kv(500.0, 1.0, EvictionPolicy::kSwapToHost);
  Rng rng(99);
  std::set<std::int64_t> device, host;
  for (std::int64_t id = 0; id < 400; ++id) {
    const std::int64_t op = rng.uniform_int(0, 3);
    if (op == 0 || device.empty()) {
      if (kv.try_admit(id, rng.uniform_int(1, 40))) device.insert(id);
    } else if (op == 1) {
      const std::int64_t target = *device.begin();
      kv.try_grow(target, 1);
    } else if (op == 2) {
      const std::int64_t target = *device.rbegin();
      if (kv.try_swap_out(target)) {
        device.erase(target);
        host.insert(target);
      }
    } else {
      const std::int64_t target = *device.begin();
      kv.release(target);
      device.erase(target);
    }
    if (!host.empty() && kv.try_swap_in(*host.begin())) {
      device.insert(*host.begin());
      host.erase(host.begin());
    }
    ASSERT_TRUE(kv.audit()) << "accounting drifted at op " << id;
    ASSERT_EQ(kv.resident_count(), device.size());
    ASSERT_EQ(kv.swapped_count(), host.size());
  }
  for (std::int64_t id : device) kv.release(id);
  std::vector<std::int64_t> stranded(host.begin(), host.end());
  for (std::int64_t id : stranded) {
    ASSERT_TRUE(kv.try_swap_in(id));  // empty device always fits them
    kv.release(id);
  }
  EXPECT_DOUBLE_EQ(kv.used(), 0.0);
  EXPECT_DOUBLE_EQ(kv.host_used(), 0.0);
  EXPECT_TRUE(kv.audit());
}

// --- Scheduler config --------------------------------------------------------

TEST(SchedulerConfigTest, RejectsChunkSmallerThanBucket) {
  KvCacheManager kv(1e6, 1.0);
  SchedulerConfig config;
  config.seqlen_bucket = 128;
  config.prefill_chunk_tokens = 64;  // < bucket: chunks could cost zero
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  config.prefill_chunk_tokens = 128;
  EXPECT_NO_THROW(ContinuousBatchScheduler(config, &kv));
  config.prefill_chunk_tokens = 0;  // disabled is always fine
  EXPECT_NO_THROW(ContinuousBatchScheduler(config, &kv));
}

TEST(RequestGenPriorityTest, ClassesBoundedAndDecoupledFromLengths) {
  RequestStreamConfig base = zipf_chat_stream(11, 300, 20.0);
  RequestStreamConfig tagged = zipf_chat_stream(11, 300, 20.0,
                                                /*priority_classes=*/4);
  const auto plain = generate_requests(base);
  const auto prioritized = generate_requests(tagged);
  ASSERT_EQ(plain.size(), prioritized.size());
  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // Priorities come from a decoupled rng stream: arrivals and lengths
    // are bit-identical whatever the class count.
    EXPECT_EQ(plain[i].arrival_time, prioritized[i].arrival_time);
    EXPECT_EQ(plain[i].prompt_len, prioritized[i].prompt_len);
    EXPECT_EQ(plain[i].output_len, prioritized[i].output_len);
    EXPECT_EQ(plain[i].priority, 0);
    EXPECT_GE(prioritized[i].priority, 0);
    EXPECT_LT(prioritized[i].priority, 4);
    seen.insert(prioritized[i].priority);
  }
  EXPECT_EQ(seen.size(), 4u);  // all classes drawn over 300 requests

  RequestStreamConfig bad = base;
  bad.priority_classes = 0;
  EXPECT_THROW(generate_requests(bad), ConfigError);
}

// --- Chunked prefill: hand traces and conservation ---------------------------

TEST(ChunkedPrefillTest, SingleRequestHandTrace) {
  // Prompt 300 with chunk budget 128: three chunk steps (128, 128, 44),
  // the last emitting the first token, then two decode steps.
  KvCacheManager kv(1e6, 1.0);
  SchedulerConfig config;
  config.prefill_chunk_tokens = 128;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 300, 3));

  StepRecord step1, step2, step3, step4, step5;
  ASSERT_TRUE(scheduler.next_step(&step1));
  EXPECT_EQ(step1.kind, StepRecord::Kind::kPrefill);
  EXPECT_EQ(step1.chunk_lens, (std::vector<std::int64_t>{128}));
  EXPECT_EQ(step1.prev_lens, (std::vector<std::int64_t>{0}));
  EXPECT_EQ(step1.kv_lens, (std::vector<std::int64_t>{128}));
  EXPECT_TRUE(step1.chunked);
  EXPECT_TRUE(step1.first_token_ids.empty());  // prompt not done yet

  ASSERT_TRUE(scheduler.next_step(&step2));
  EXPECT_EQ(step2.prev_lens, (std::vector<std::int64_t>{128}));
  EXPECT_EQ(step2.chunk_lens, (std::vector<std::int64_t>{128}));

  ASSERT_TRUE(scheduler.next_step(&step3));
  EXPECT_EQ(step3.prev_lens, (std::vector<std::int64_t>{256}));
  EXPECT_EQ(step3.chunk_lens, (std::vector<std::int64_t>{44}));
  EXPECT_EQ(step3.kv_lens, (std::vector<std::int64_t>{300}));
  EXPECT_EQ(step3.first_token_ids, (std::vector<std::int64_t>{0}));

  ASSERT_TRUE(scheduler.next_step(&step4));
  EXPECT_EQ(step4.kind, StepRecord::Kind::kDecode);
  EXPECT_EQ(step4.kv_lens, (std::vector<std::int64_t>{301}));
  ASSERT_TRUE(scheduler.next_step(&step5));
  EXPECT_EQ(step5.kv_lens, (std::vector<std::int64_t>{302}));
  EXPECT_EQ(step5.finished_ids, (std::vector<std::int64_t>{0}));
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.counters().chunked_prefill_steps, 3);
  EXPECT_DOUBLE_EQ(kv.used(), 0.0);
}

TEST(ChunkedPrefillTest, InterleavesWithDecodeSteps) {
  // A short request decodes while a 1024-token prompt streams through in
  // 128-token chunks: steps strictly alternate prefill/decode while both
  // kinds of work exist, so TPOT stays bounded during long prefills.
  KvCacheManager kv(1e6, 1.0);
  SchedulerConfig config;
  config.prefill_chunk_tokens = 128;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 128, 10));
  scheduler.enqueue(make_request(1, 1024, 2));

  std::vector<StepRecord::Kind> kinds;
  std::vector<std::int64_t> finished;
  StepRecord step;
  while (scheduler.next_step(&step)) {
    kinds.push_back(step.kind);
    for (std::int64_t id : step.finished_ids) finished.push_back(id);
  }
  // Step 1 prefills r0 whole (single 128-token chunk).  From then on,
  // while r0 decodes and r1 prefills, kinds alternate strictly.
  ASSERT_GE(kinds.size(), 17u);
  EXPECT_EQ(kinds[0], StepRecord::Kind::kPrefill);
  for (std::size_t i = 1; i + 1 < 17; i += 2) {
    EXPECT_EQ(kinds[i], StepRecord::Kind::kDecode) << "step " << i;
    EXPECT_EQ(kinds[i + 1], StepRecord::Kind::kPrefill) << "step " << i + 1;
  }
  EXPECT_EQ(finished, (std::vector<std::int64_t>{0, 1}));
}

TEST(ChunkedPrefillTest, BudgetAndPrefillBatchRespected) {
  KvCacheManager kv(1e6, 1.0);
  SchedulerConfig config;
  config.prefill_chunk_tokens = 256;
  config.max_prefill_batch = 3;
  ContinuousBatchScheduler scheduler(config, &kv);
  for (std::int64_t id = 0; id < 12; ++id) {
    scheduler.enqueue(make_request(id, 100 + 37 * id, 4));
  }
  StepRecord step;
  while (scheduler.next_step(&step)) {
    if (step.kind != StepRecord::Kind::kPrefill) continue;
    std::int64_t chunk_total = 0;
    for (std::int64_t chunk : step.chunk_lens) chunk_total += chunk;
    EXPECT_LE(chunk_total, 256);
    EXPECT_LE(step.batch, 3);
  }
  EXPECT_TRUE(scheduler.idle());
}

/// Drives a scheduler to completion, tracking per-request prefill work and
/// auditing KV accounting after every step.
struct DriveResult {
  std::int64_t total_prefill_tokens = 0;  ///< chunk tokens across the run
  std::map<std::int64_t, std::int64_t> finish_count;
  std::map<std::int64_t, std::int64_t> first_token_count;
  std::int64_t steps = 0;
  ServingCounters counters;
};

DriveResult drive_to_completion(const std::vector<Request>& requests,
                                EvictionPolicy policy,
                                std::int64_t chunk_tokens, Bytes kv_budget,
                                Bytes host_capacity = 1e12,
                                const AdmissionConfig& admission = {}) {
  KvCacheManager kv(kv_budget, /*bytes_per_token=*/1.0, policy, host_capacity);
  SchedulerConfig config;
  config.prefill_chunk_tokens = chunk_tokens;
  config.admission = admission;
  ContinuousBatchScheduler scheduler(config, &kv);
  for (const Request& request : requests) scheduler.enqueue(request);

  DriveResult result;
  StepRecord step;
  while (scheduler.next_step(&step)) {
    ++result.steps;
    if (step.kind == StepRecord::Kind::kPrefill) {
      // StepRecord carries shapes, not participant ids, so conservation is
      // checked on the global chunk-token total (per-request completion is
      // covered by first_token/finish counts).
      for (std::int64_t chunk : step.chunk_lens) {
        result.total_prefill_tokens += chunk;
      }
    }
    for (std::int64_t id : step.first_token_ids) {
      ++result.first_token_count[id];
    }
    for (std::int64_t id : step.finished_ids) ++result.finish_count[id];
    // --- Accounting invariants, every step -------------------------------
    EXPECT_TRUE(kv.audit());
    EXPECT_LE(kv.used(), kv.capacity() + 1e-9);
    EXPECT_EQ(kv.resident_count(), scheduler.running_count());
    EXPECT_EQ(kv.swapped_count(), scheduler.swapped_count());
    // The scheduler's incremental decoder aggregates must match a fresh
    // rescan after every transition (admit / prefill-complete / advance /
    // finish / preempt / swap): catches drift at the step that caused it.
    EXPECT_TRUE(scheduler.aggregates_consistent());
  }
  EXPECT_TRUE(scheduler.idle());
  EXPECT_DOUBLE_EQ(kv.used(), 0.0);
  EXPECT_DOUBLE_EQ(kv.host_used(), 0.0);
  EXPECT_EQ(kv.resident_count(), 0u);
  EXPECT_EQ(kv.swapped_count(), 0u);
  result.counters = scheduler.counters();
  return result;
}

std::vector<Request> invariant_stream(std::uint64_t seed, std::int64_t n) {
  RequestStreamConfig stream;
  stream.seed = seed;
  stream.num_requests = n;
  stream.arrival_rate = 1000.0;  // arrivals effectively simultaneous
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = 32;
  stream.prompt.max_len = 160;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 8;
  stream.output.max_len = 96;
  stream.priority_classes = 3;
  stream.num_tenants = 2;  // decoupled stream: arrivals/lengths unchanged
  return generate_requests(stream);
}

/// Shared invariant body: KV pages never leak or double-free, every
/// request finishes exactly once, under 3 distinct seeds x chunked on/off.
void check_policy_invariants(EvictionPolicy policy, bool expect_no_recompute) {
  for (std::uint64_t seed : {3ull, 17ull, 101ull}) {
    for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{128}}) {
      const auto requests = invariant_stream(seed, 60);
      std::int64_t total_prompt = 0;
      for (const Request& request : requests) total_prompt += request.prompt_len;
      // Budget of 600 tokens: admits any single request (<= 161 reserve,
      // <= 256 fully grown) but far below 60 concurrent sequences.
      DriveResult result =
          drive_to_completion(requests, policy, chunk, /*kv_budget=*/600.0);
      for (const Request& request : requests) {
        EXPECT_EQ(result.finish_count[request.id], 1)
            << "seed " << seed << " chunk " << chunk << " request "
            << request.id;
        EXPECT_GE(result.first_token_count[request.id], 1);
      }
      EXPECT_GT(result.counters.total_preemptions(), 0)
          << "budget not tight enough to exercise " << static_cast<int>(policy);
      if (expect_no_recompute) {
        // Swap-to-host restores pages instead of recomputing: total prefill
        // work equals the prompt tokens exactly, and first tokens are
        // emitted exactly once.
        EXPECT_EQ(result.counters.preemptions_recompute, 0);
        EXPECT_EQ(result.total_prefill_tokens, total_prompt);
        for (const Request& request : requests) {
          EXPECT_EQ(result.first_token_count[request.id], 1);
        }
      } else {
        // Recompute policies re-prefill their victims' prompts.
        EXPECT_GE(result.total_prefill_tokens, total_prompt);
      }
    }
  }
}

TEST(PolicyInvariantTest, PreemptNewestNeverLeaksAndAllFinish) {
  check_policy_invariants(EvictionPolicy::kPreemptNewest,
                          /*expect_no_recompute=*/false);
}

TEST(PolicyInvariantTest, SwapToHostNeverLeaksAndNeverRecomputes) {
  check_policy_invariants(EvictionPolicy::kSwapToHost,
                          /*expect_no_recompute=*/true);
}

TEST(PolicyInvariantTest, PriorityVictimNeverLeaksAndAllFinish) {
  check_policy_invariants(EvictionPolicy::kPriorityVictim,
                          /*expect_no_recompute=*/false);
}

TEST(PolicyInvariantTest, ChunkedPrefillConservesPromptTokens) {
  // Under kNone (no preemption) every prompt token is prefilled exactly
  // once, chunked or not, and the totals match.
  const auto requests = invariant_stream(7, 40);
  std::int64_t total_prompt = 0;
  for (const Request& request : requests) total_prompt += request.prompt_len;
  DriveResult unchunked = drive_to_completion(
      requests, EvictionPolicy::kNone, /*chunk=*/0, /*kv_budget=*/1e9);
  DriveResult chunked = drive_to_completion(
      requests, EvictionPolicy::kNone, /*chunk=*/128, /*kv_budget=*/1e9);
  EXPECT_EQ(unchunked.total_prefill_tokens, total_prompt);
  EXPECT_EQ(chunked.total_prefill_tokens, total_prompt);
  EXPECT_GT(chunked.counters.chunked_prefill_steps, 0);
  EXPECT_EQ(unchunked.counters.chunked_prefill_steps, 0);
  EXPECT_GT(chunked.steps, unchunked.steps);  // prompts split across steps
}

TEST(PolicyInvariantTest, RecomputePreemptionRePrefillsPrompt) {
  // Two long-output requests against a 40-token budget (as in
  // serving_test's KvPressure trace): the preempted request's prompt is
  // prefilled twice under recompute.
  std::vector<Request> requests = {make_request(0, 10, 12),
                                   make_request(1, 10, 12)};
  DriveResult result = drive_to_completion(
      requests, EvictionPolicy::kPreemptNewest, /*chunk=*/0, 40.0);
  EXPECT_GT(result.counters.preemptions_recompute, 0);
  EXPECT_GT(result.total_prefill_tokens, 20);
  EXPECT_EQ(result.finish_count[0], 1);
  EXPECT_EQ(result.finish_count[1], 1);
}

TEST(PolicyInvariantTest, SwapPreemptionKeepsDecodeProgress) {
  // Same pressure as above under kSwapToHost: no prompt is ever
  // recomputed and each first token is emitted exactly once.
  std::vector<Request> requests = {make_request(0, 10, 12),
                                   make_request(1, 10, 12)};
  DriveResult result = drive_to_completion(
      requests, EvictionPolicy::kSwapToHost, /*chunk=*/0, 40.0);
  EXPECT_GT(result.counters.preemptions_swap, 0);
  EXPECT_EQ(result.counters.preemptions_recompute, 0);
  EXPECT_EQ(result.total_prefill_tokens, 20);
  EXPECT_EQ(result.first_token_count[0], 1);
  EXPECT_EQ(result.first_token_count[1], 1);
  // Every swap-out eventually swapped back in, byte for byte.
  EXPECT_EQ(result.counters.swap_ins, result.counters.preemptions_swap);
  EXPECT_DOUBLE_EQ(result.counters.swap_out_bytes,
                   result.counters.swap_in_bytes);
  EXPECT_GT(result.counters.swap_out_bytes, 0.0);
}

TEST(PolicyInvariantTest, PriorityVictimSparesHighPriority) {
  // Four equal-size sequences, one at priority 9: under pressure only the
  // priority-0 sequences are ever preempted.
  std::vector<Request> requests = {
      make_request(0, 50, 80, /*priority=*/0),
      make_request(1, 50, 80, /*priority=*/0),
      make_request(2, 50, 80, /*priority=*/0),
      make_request(3, 50, 80, /*priority=*/9),
  };
  KvCacheManager kv(400.0, 1.0, EvictionPolicy::kPriorityVictim);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  for (const Request& request : requests) scheduler.enqueue(request);
  std::vector<std::int64_t> preempted;
  std::map<std::int64_t, std::int64_t> finish_count;
  StepRecord step;
  while (scheduler.next_step(&step)) {
    for (std::int64_t id : step.preempted_ids) preempted.push_back(id);
    for (std::int64_t id : step.finished_ids) ++finish_count[id];
  }
  EXPECT_FALSE(preempted.empty());
  EXPECT_TRUE(std::find(preempted.begin(), preempted.end(), 3) ==
              preempted.end())
      << "high-priority request was victimized";
  for (std::int64_t id = 0; id < 4; ++id) EXPECT_EQ(finish_count[id], 1);
}

// --- Admission-policy wall ---------------------------------------------------
//
// The admission API (serving/admission_policy.h) owns waiting-queue
// ordering.  This wall pins: registry surface, FIFO-equals-default
// equivalence, starvation freedom under PriorityAdmission aging, WFQ
// share proportionality and rate caps, and KV-accounting cleanliness
// under every admission x eviction combination.

TEST(AdmissionPolicyTest, RegistryNamesAreStableAndUnknownThrows) {
  const std::vector<std::string> names = admission_policy_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "fifo"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "priority"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "wfq"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "edf"), names.end());
  AdmissionConfig config;
  config.policy = "fifo";
  EXPECT_EQ(make_admission_policy(config)->name(), "fifo");
  config.policy = "priority";
  EXPECT_EQ(make_admission_policy(config)->name(), "priority");
  config.policy = "wfq";
  EXPECT_EQ(make_admission_policy(config)->name(), "wfq");
  config.policy = "edf";
  EXPECT_EQ(make_admission_policy(config)->name(), "edf");
  config.policy = "no_such_policy";
  EXPECT_THROW(make_admission_policy(config), ConfigError);
  config.policy = "";
  EXPECT_THROW(make_admission_policy(config), ConfigError);
}

TEST(AdmissionPolicyTest, RegistryAcceptsCustomPolicies) {
  register_admission_policy("custom_fifo", [](const AdmissionConfig&) {
    return std::make_unique<FifoAdmission>();
  });
  AdmissionConfig config;
  config.policy = "custom_fifo";
  EXPECT_EQ(make_admission_policy(config)->name(), "fifo");
  const std::vector<std::string> names = admission_policy_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "custom_fifo"),
            names.end());
}

TEST(AdmissionPolicyTest, ExplicitFifoIsBitIdenticalToDefault) {
  // The golden pins below already freeze default behaviour; this pins the
  // other side of the equivalence — selecting "fifo" through the registry
  // reproduces the default construction EXACTLY, so the registry seam
  // itself adds no drift.
  const auto requests = generate_requests(multi_tenant_pressure_stream(
      /*seed=*/42, /*num_requests=*/120, /*arrival_rate=*/50.0,
      /*num_tenants=*/1));
  ServingScenario defaulted = llama7b_pressured_scenario(
      1, ir::DType::kInt4, EvictionPolicy::kPreemptNewest, /*chunk_tokens=*/0,
      /*kv_budget_tokens=*/2000);
  ServingScenario explicit_fifo = defaulted;
  explicit_fifo.scheduler.admission.policy = "fifo";
  const ServingMetrics a = run_serving(defaulted, requests);
  const ServingMetrics b = run_serving(explicit_fifo, requests);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_DOUBLE_EQ(a.ttft.p50, b.ttft.p50);
  EXPECT_DOUBLE_EQ(a.tpot.p99, b.tpot.p99);
  EXPECT_DOUBLE_EQ(a.e2e.p99, b.e2e.p99);
  EXPECT_DOUBLE_EQ(a.goodput_tokens_per_second, b.goodput_tokens_per_second);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

/// Drives a max_batch-1 scheduler under a sustained stream of high-priority
/// arrivals — a fresh priority-10 request enqueues the moment the previous
/// one finishes, so at every admission the policy chooses between a YOUNG
/// priority-10 request and the ever-AGING priority-0 request 0 enqueued at
/// the start.  Returns the step at which request 0 emits its first token.
std::int64_t low_priority_admission_step(double aging_rate) {
  KvCacheManager kv(1e9, 1.0, EvictionPolicy::kNone);
  SchedulerConfig config;
  config.max_batch = 1;
  config.admission.policy = "priority";
  config.admission.aging_rate = aging_rate;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(1, 8, 8, /*priority=*/10));
  scheduler.enqueue(make_request(0, 8, 8, /*priority=*/0));
  std::int64_t next_id = 2;
  const std::int64_t high_priority_arrivals = 30;
  std::int64_t admitted_step = -1;
  StepRecord record;
  while (scheduler.next_step(&record)) {
    for (std::int64_t id : record.first_token_ids) {
      if (id == 0 && admitted_step < 0) {
        admitted_step = scheduler.total_steps();
      }
    }
    if (!record.finished_ids.empty() && next_id <= high_priority_arrivals) {
      scheduler.enqueue(make_request(next_id, 8, 8, /*priority=*/10));
      ++next_id;
    }
  }
  EXPECT_TRUE(scheduler.idle());
  EXPECT_GE(admitted_step, 0) << "request 0 never admitted";
  return admitted_step;
}

TEST(AdmissionPolicyTest, PriorityAgingPreventsStarvation) {
  // With aging, the low-priority request's effective priority grows one
  // unit per waiting step and overtakes the priority-10 stream after ~10
  // steps; without aging it waits until the high-priority stream dries up
  // entirely.  Every request is eventually admitted either way (the
  // invariant the wall pins), but aging bounds the wait.
  const std::int64_t aged = low_priority_admission_step(/*aging_rate=*/1.0);
  const std::int64_t starved = low_priority_admission_step(/*aging_rate=*/0.0);
  EXPECT_LT(aged, starved);
  EXPECT_LE(aged, 40) << "aging should admit request 0 well before the "
                         "30-request high-priority stream drains";
  EXPECT_GT(starved, 200) << "static priority should hold request 0 back "
                             "until the high-priority stream is done";
}

TEST(AdmissionPolicyTest, PriorityAdmitsHighestFirstAndFifoAmongEquals) {
  KvCacheManager kv(1e9, 1.0, EvictionPolicy::kNone);
  SchedulerConfig config;
  config.max_batch = 1;
  config.admission.policy = "priority";
  config.admission.aging_rate = 0.0;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 8, 4, /*priority=*/1));
  scheduler.enqueue(make_request(1, 8, 4, /*priority=*/5));
  scheduler.enqueue(make_request(2, 8, 4, /*priority=*/5));
  scheduler.enqueue(make_request(3, 8, 4, /*priority=*/9));
  std::vector<std::int64_t> first_tokens;
  StepRecord record;
  while (scheduler.next_step(&record)) {
    for (std::int64_t id : record.first_token_ids) first_tokens.push_back(id);
  }
  // Highest priority first; the two priority-5 requests keep FIFO order.
  EXPECT_EQ(first_tokens, (std::vector<std::int64_t>{3, 1, 2, 0}));
}

TEST(AdmissionPolicyTest, WfqSharesTrackWeightsUnderOverload) {
  // THE acceptance scenario: 2 backlogged tenants at 3:1 weights over a
  // fixed overloaded window.  Admitted tokens follow virtual work, so the
  // per-tenant goodput ratio must land near 3 and the weight-normalized
  // Jain index near 1.  FIFO on the SAME traffic splits goodput by the
  // (uniform) traffic mix instead — ratio near 1, normalized Jain well
  // below WFQ's.
  const auto requests = generate_requests(
      multi_tenant_pressure_stream(/*seed=*/42, /*num_requests=*/400,
                                   /*arrival_rate=*/50.0, /*num_tenants=*/2));
  const std::vector<double>& weights = multi_tenant_fairness_weights();
  const ServingMetrics wfq = run_serving(
      multi_tenant_fairness_scenario(ir::DType::kInt4, "wfq", weights,
                                     kMultiTenantFairnessHorizon),
      requests);
  const ServingMetrics fifo = run_serving(
      multi_tenant_fairness_scenario(ir::DType::kInt4, "fifo", weights,
                                     kMultiTenantFairnessHorizon),
      requests);

  ASSERT_EQ(wfq.tenants.size(), 2u);
  ASSERT_EQ(fifo.tenants.size(), 2u);
  EXPECT_EQ(wfq.tenants[0].tenant_id, 0);
  EXPECT_EQ(wfq.tenants[1].tenant_id, 1);
  EXPECT_DOUBLE_EQ(wfq.tenants[0].weight, 3.0);
  EXPECT_DOUBLE_EQ(wfq.tenants[1].weight, 1.0);
  ASSERT_GT(wfq.tenants[1].goodput_tokens_per_second, 0.0);
  ASSERT_GT(fifo.tenants[1].goodput_tokens_per_second, 0.0);

  const double wfq_ratio = wfq.tenants[0].goodput_tokens_per_second /
                           wfq.tenants[1].goodput_tokens_per_second;
  const double fifo_ratio = fifo.tenants[0].goodput_tokens_per_second /
                            fifo.tenants[1].goodput_tokens_per_second;
  EXPECT_GE(wfq_ratio, 2.5);
  EXPECT_LE(wfq_ratio, 3.5);
  EXPECT_LT(fifo_ratio, 1.5) << "FIFO should track the ~uniform traffic mix";
  EXPECT_GT(wfq.jain_fairness, 0.95);
  EXPECT_GT(wfq.jain_fairness, fifo.jain_fairness);

  // The run was genuinely overloaded the whole window: neither policy
  // completed everything before the horizon.
  EXPECT_LT(wfq.completed, static_cast<std::int64_t>(requests.size()));
  EXPECT_LT(fifo.completed, static_cast<std::int64_t>(requests.size()));
}

TEST(AdmissionPolicyTest, WfqRateCapThrottlesWhileOthersHaveWork) {
  // Tenant 1 is capped to its burst allowance (the direct driver never
  // advances the policy clock, so the cap cannot refill).  Its first small
  // request fits the burst; after that it must wait until tenant 0's work
  // drains and the empty-device liveness bypass admits it.
  KvCacheManager kv(1e9, 1.0, EvictionPolicy::kNone);
  SchedulerConfig config;
  config.max_batch = 1;  // serialized admissions make the order observable
  config.admission.policy = "wfq";
  TenantShare uncapped;  // tenant 0
  TenantShare capped;    // tenant 1
  capped.token_rate_cap = 1e-9;  // effectively "burst only" at now = 0
  capped.burst_tokens = 40;
  config.admission.tenants = {uncapped, capped};
  ContinuousBatchScheduler scheduler(config, &kv);

  const auto tenant_request = [](std::int64_t id, std::int64_t tenant) {
    Request request = make_request(id, 20, 10);
    request.tenant_id = tenant;  // 30 admission tokens each
    return request;
  };
  for (std::int64_t id = 0; id < 6; ++id) {
    scheduler.enqueue(tenant_request(id, 0));
  }
  for (std::int64_t id = 6; id < 9; ++id) {
    scheduler.enqueue(tenant_request(id, 1));
  }

  std::vector<std::int64_t> first_tokens;
  StepRecord record;
  while (scheduler.next_step(&record)) {
    for (std::int64_t id : record.first_token_ids) first_tokens.push_back(id);
  }
  ASSERT_EQ(first_tokens.size(), 9u);  // liveness: everyone completes
  // Tenant 1's first request (id 6, 30 tokens <= 40 burst) may admit
  // early — WFQ favours the zero-virtual-work tenant — but its remaining
  // two requests exceed the burst and must trail ALL tenant-0 work.
  const auto position = [&](std::int64_t id) {
    return std::find(first_tokens.begin(), first_tokens.end(), id) -
           first_tokens.begin();
  };
  for (std::int64_t capped_id : {std::int64_t{7}, std::int64_t{8}}) {
    for (std::int64_t uncapped_id = 0; uncapped_id < 6; ++uncapped_id) {
      EXPECT_GT(position(capped_id), position(uncapped_id))
          << "capped request " << capped_id << " overtook tenant-0 request "
          << uncapped_id;
    }
  }
}

TEST(AdmissionPolicyTest, AccountingCleanUnderEveryAdmissionEvictionPair) {
  // The PolicyInvariantTest wall audits eviction policies under FIFO
  // admission; this extends the matrix to all 3 admission x 3 eviction
  // combinations: KV pages never leak or double-free, every request
  // finishes exactly once, and the incremental aggregates stay consistent.
  for (const char* admission : {"fifo", "priority", "wfq"}) {
    AdmissionConfig admission_config;
    admission_config.policy = admission;
    admission_config.tenants = {TenantShare{}, TenantShare{}};
    admission_config.tenants[0].weight = 2.0;
    for (EvictionPolicy eviction :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      const auto requests = invariant_stream(23, 60);
      DriveResult result = drive_to_completion(
          requests, eviction, /*chunk_tokens=*/128, /*kv_budget=*/600.0,
          /*host_capacity=*/1e12, admission_config);
      for (const Request& request : requests) {
        EXPECT_EQ(result.finish_count[request.id], 1)
            << "admission " << admission << " eviction "
            << eviction_policy_name(eviction) << " request " << request.id;
      }
      EXPECT_GT(result.counters.total_preemptions(), 0)
          << "admission " << admission << " eviction "
          << eviction_policy_name(eviction);
    }
  }
}

TEST(JainFairnessTest, IndexMatchesClosedForm) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 2.0, 3.0}), 36.0 / 42.0);
  EXPECT_THROW(jain_fairness_index({-1.0}), ConfigError);
}

TEST(RequestGenTenantTest, AssignmentDecoupledFromArrivalsAndSkewed) {
  RequestStreamConfig base = zipf_chat_stream(11, 900, 20.0);
  RequestStreamConfig tenanted = base;
  tenanted.num_tenants = 3;
  tenanted.tenant_weights = {6.0, 3.0, 1.0};
  const auto plain = generate_requests(base);
  const auto assigned = generate_requests(tenanted);
  ASSERT_EQ(plain.size(), assigned.size());
  std::map<std::int64_t, std::int64_t> counts;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // Tenants come from their own decoupled rng stream: arrivals, lengths,
    // and priorities are bit-identical whatever the tenant model.
    EXPECT_EQ(plain[i].arrival_time, assigned[i].arrival_time);
    EXPECT_EQ(plain[i].prompt_len, assigned[i].prompt_len);
    EXPECT_EQ(plain[i].output_len, assigned[i].output_len);
    EXPECT_EQ(plain[i].priority, assigned[i].priority);
    EXPECT_EQ(plain[i].tenant_id, 0);
    EXPECT_GE(assigned[i].tenant_id, 0);
    EXPECT_LT(assigned[i].tenant_id, 3);
    ++counts[assigned[i].tenant_id];
  }
  // 6:3:1 weights over 900 draws: order must hold with a wide margin.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], 0);

  RequestStreamConfig bad = tenanted;
  bad.tenant_weights = {1.0, 2.0};  // size != num_tenants
  EXPECT_THROW(generate_requests(bad), ConfigError);
  bad.tenant_weights = {1.0, -1.0, 1.0};
  EXPECT_THROW(generate_requests(bad), ConfigError);
  bad.tenant_weights.clear();
  bad.num_tenants = 0;
  EXPECT_THROW(generate_requests(bad), ConfigError);
}

// --- StepRecord reuse ----------------------------------------------------------

TEST(SchedulerRecordTest, ReusedRecordMatchesFreshRecordPerStep) {
  // next_step clears the record it is handed, so a scratch record reused
  // across steps must plan the IDENTICAL step sequence as a fresh record
  // per step; drive two schedulers over a preemption-heavy swap workload
  // in lockstep and compare every field.
  const auto requests = invariant_stream(31, 40);
  KvCacheManager kv_a(600.0, 1.0, EvictionPolicy::kSwapToHost);
  KvCacheManager kv_b(600.0, 1.0, EvictionPolicy::kSwapToHost);
  SchedulerConfig config;
  config.prefill_chunk_tokens = 128;
  ContinuousBatchScheduler fresh_path(config, &kv_a);
  ContinuousBatchScheduler reuse_path(config, &kv_b);
  for (const Request& request : requests) {
    fresh_path.enqueue(request);
    reuse_path.enqueue(request);
  }
  StepRecord scratch;
  std::int64_t steps = 0;
  for (;;) {
    StepRecord fresh;
    const bool fresh_stepped = fresh_path.next_step(&fresh);
    const bool stepped = reuse_path.next_step(&scratch);
    ASSERT_EQ(fresh_stepped, stepped) << "at step " << steps;
    if (!fresh_stepped) break;
    ++steps;
    EXPECT_EQ(fresh.kind, scratch.kind);
    EXPECT_EQ(fresh.batch, scratch.batch);
    EXPECT_EQ(fresh.kv_lens, scratch.kv_lens);
    EXPECT_EQ(fresh.chunk_lens, scratch.chunk_lens);
    EXPECT_EQ(fresh.prev_lens, scratch.prev_lens);
    EXPECT_EQ(fresh.decode_groups, scratch.decode_groups);
    EXPECT_EQ(fresh.first_token_ids, scratch.first_token_ids);
    EXPECT_EQ(fresh.finished_ids, scratch.finished_ids);
    EXPECT_EQ(fresh.preempted_ids, scratch.preempted_ids);
    EXPECT_EQ(fresh.swapped_out_ids, scratch.swapped_out_ids);
    EXPECT_EQ(fresh.swapped_in_ids, scratch.swapped_in_ids);
    EXPECT_DOUBLE_EQ(fresh.swap_bytes, scratch.swap_bytes);
    EXPECT_EQ(fresh.chunked, scratch.chunked);
  }
  EXPECT_GT(steps, 0);
  EXPECT_GT(fresh_path.preemptions(), 0);  // the swap path was exercised
  EXPECT_TRUE(fresh_path.idle());
  EXPECT_TRUE(reuse_path.idle());
}

// --- Per-sequence attention costing ------------------------------------------

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : chip_(arch::tpu_v4i_baseline()), simulator_(chip_) {
    model_ = models::llama2_7b();
    model_.dtype = ir::DType::kInt4;
  }

  arch::TpuChip chip_;
  sim::Simulator simulator_;
  models::TransformerConfig model_;
};

TEST_F(CostModelTest, PerSequenceDecodeCostDiffersFromMeanCost) {
  // Heterogeneous batch: one sequence at KV 128, one at KV 4096.  The old
  // scheduler costed this step as decode(batch=2, mean 2112); per-sequence
  // costing charges decode(1, 128) + decode(1, 4096).  The two models must
  // disagree measurably — that disagreement is the fidelity this PR adds.
  StepCostCache costs(simulator_, model_, 128);
  StepRecord step;
  step.kind = StepRecord::Kind::kDecode;
  step.batch = 2;
  step.kv_lens = {128, 4096};
  const StepCost per_sequence = cost_step(costs, step);
  const StepCost exact_sum = [&] {
    StepCost sum;
    const StepCost lo = costs.decode_layer(1, 128);
    const StepCost hi = costs.decode_layer(1, 4096);
    sum.latency = lo.latency + hi.latency;
    sum.total_energy = lo.total_energy + hi.total_energy;
    return sum;
  }();
  EXPECT_DOUBLE_EQ(per_sequence.latency, exact_sum.latency);
  EXPECT_DOUBLE_EQ(per_sequence.total_energy, exact_sum.total_energy);

  const StepCost mean_model = costs.decode_layer(2, (128 + 4096) / 2);
  const double rel_diff =
      std::abs(per_sequence.latency - mean_model.latency) / mean_model.latency;
  EXPECT_GT(rel_diff, 0.02) << "per-sequence costing should visibly diverge "
                               "from mean-KV costing on heterogeneous batches";
}

TEST_F(CostModelTest, EqualLengthBatchGroupsIntoOneShape) {
  StepCostCache costs(simulator_, model_, 128);
  StepRecord step;
  step.kind = StepRecord::Kind::kDecode;
  step.batch = 4;
  step.kv_lens = {200, 220, 250, 256};  // all bucket to 256
  const StepCost grouped = cost_step(costs, step);
  const StepCost direct = costs.decode_layer(4, 256);
  EXPECT_DOUBLE_EQ(grouped.latency, direct.latency);
  EXPECT_DOUBLE_EQ(grouped.total_energy, direct.total_energy);
}

TEST_F(CostModelTest, DecodeCostInvariantUnderParticipantOrder) {
  StepCostCache costs(simulator_, model_, 128);
  StepRecord a, b;
  a.kind = b.kind = StepRecord::Kind::kDecode;
  a.batch = b.batch = 3;
  a.kv_lens = {128, 1024, 4096};
  b.kv_lens = {4096, 128, 1024};
  EXPECT_DOUBLE_EQ(cost_step(costs, a).latency, cost_step(costs, b).latency);
}

TEST_F(CostModelTest, ChunkedPrefillCostTelescopesToUnchunked) {
  // Chunk costs are increments between full-prefill shapes, so the chunks
  // of a 1000-token prompt sum to exactly the unchunked prefill cost.
  StepCostCache costs(simulator_, model_, 128);
  const std::vector<std::pair<std::int64_t, std::int64_t>> chunks = {
      {0, 256}, {256, 256}, {512, 256}, {768, 232}};  // (prev, chunk)
  StepCost chunked_total;
  for (const auto& [prev, chunk] : chunks) {
    StepRecord step;
    step.kind = StepRecord::Kind::kPrefill;
    step.batch = 1;
    step.prev_lens = {prev};
    step.chunk_lens = {chunk};
    step.kv_lens = {prev + chunk};
    const StepCost cost = cost_step(costs, step);
    EXPECT_GE(cost.latency, 0.0);  // monotonicity of prefill in length
    chunked_total.latency += cost.latency;
    chunked_total.total_energy += cost.total_energy;
  }
  StepRecord whole;
  whole.kind = StepRecord::Kind::kPrefill;
  whole.batch = 1;
  whole.prev_lens = {0};
  whole.chunk_lens = {1000};
  whole.kv_lens = {1000};
  const StepCost unchunked = cost_step(costs, whole);
  EXPECT_NEAR(chunked_total.latency, unchunked.latency,
              1e-9 * unchunked.latency);
  EXPECT_NEAR(chunked_total.total_energy, unchunked.total_energy,
              1e-9 * unchunked.total_energy);
}

TEST_F(CostModelTest, PrefillCostMonotoneInLength) {
  // The telescoped chunk costing relies on prefill cost growing with
  // sequence length; pin that property across the chunking range.
  StepCostCache costs(simulator_, model_, 128);
  Seconds prev_latency = 0;
  for (std::int64_t len = 128; len <= 4096; len += 256) {
    const StepCost cost = costs.prefill_layer(1, len);
    EXPECT_GT(cost.latency, prev_latency) << "at length " << len;
    prev_latency = cost.latency;
  }
}

// --- End-to-end policy behaviour ---------------------------------------------

RequestStreamConfig pressure_stream(std::uint64_t seed, std::int64_t n) {
  RequestStreamConfig stream;
  stream.seed = seed;
  stream.num_requests = n;
  stream.arrival_rate = 50.0;
  stream.prompt.kind = LengthDistribution::kFixed;
  stream.prompt.mean = 256;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 64;
  stream.output.max_len = 256;
  stream.priority_classes = 3;
  return stream;
}

ServingScenario pressured(EvictionPolicy policy, std::int64_t chunk) {
  // 2000-token budget: ~7 resident 257-token reservations, guaranteed
  // growth pressure with 64..256-token outputs.
  return llama7b_pressured_scenario(1, ir::DType::kInt4, policy, chunk,
                                    /*kv_budget_tokens=*/2000);
}

TEST(PolicyEndToEndTest, AllPoliciesCompleteUnderPressure) {
  for (std::uint64_t seed : {3ull, 17ull, 101ull}) {
    const auto requests = generate_requests(pressure_stream(seed, 60));
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{256}}) {
        const ServingMetrics metrics =
            run_serving(pressured(policy, chunk), requests);
        EXPECT_EQ(metrics.completed, 60)
            << eviction_policy_name(policy) << " chunk " << chunk << " seed "
            << seed;
        EXPECT_GT(metrics.preemptions, 0)
            << eviction_policy_name(policy) << " chunk " << chunk << " seed "
            << seed;
        EXPECT_GE(metrics.e2e.p99, metrics.ttft.p99);
      }
    }
  }
}

TEST(PolicyEndToEndTest, SwapRunMovesBytesNotRecompute) {
  const auto requests = generate_requests(pressure_stream(5, 60));
  const ServingMetrics metrics =
      run_serving(pressured(EvictionPolicy::kSwapToHost, 0), requests);
  EXPECT_GT(metrics.counters.preemptions_swap, 0);
  EXPECT_EQ(metrics.counters.preemptions_recompute, 0);
  EXPECT_GT(metrics.counters.swap_out_bytes, 0.0);
  EXPECT_DOUBLE_EQ(metrics.counters.swap_out_bytes,
                   metrics.counters.swap_in_bytes);
  EXPECT_EQ(metrics.counters.chunked_prefill_steps, 0);
}

TEST(PolicyEndToEndTest, HostPoolExhaustionFallsBackToRecompute) {
  const auto requests = generate_requests(pressure_stream(5, 60));
  ServingScenario scenario = pressured(EvictionPolicy::kSwapToHost, 0);
  scenario.host_pool_capacity = 0;  // no host pool at all
  const ServingMetrics metrics = run_serving(scenario, requests);
  EXPECT_EQ(metrics.completed, 60);
  EXPECT_EQ(metrics.counters.preemptions_swap, 0);
  EXPECT_GT(metrics.counters.preemptions_recompute, 0);
}

TEST(PolicyEndToEndTest, SwapChargesHostLinkTime) {
  const auto requests = generate_requests(pressure_stream(5, 60));
  ServingScenario fast = pressured(EvictionPolicy::kSwapToHost, 0);
  ServingScenario slow = fast;
  fast.host_link_bandwidth = 1e15;  // effectively free transfers
  slow.host_link_bandwidth = 1 * GBps;
  const ServingMetrics fast_metrics = run_serving(fast, requests);
  const ServingMetrics slow_metrics = run_serving(slow, requests);
  ASSERT_GT(slow_metrics.counters.swap_out_bytes, 0.0);
  EXPECT_GT(slow_metrics.makespan, fast_metrics.makespan);
}

TEST(PolicyEndToEndTest, ChunkingCountsStepsAndConservesTokens) {
  const auto requests = generate_requests(pressure_stream(9, 60));
  // Chunk budget 128 < the 256-token prompts, so every prompt is split.
  const ServingMetrics unchunked =
      run_serving(pressured(EvictionPolicy::kSwapToHost, 0), requests);
  const ServingMetrics chunked =
      run_serving(pressured(EvictionPolicy::kSwapToHost, 128), requests);
  EXPECT_EQ(unchunked.counters.chunked_prefill_steps, 0);
  EXPECT_GT(chunked.counters.chunked_prefill_steps, 0);
  // Chunking changes step schedule, never the tokens served.
  EXPECT_EQ(chunked.completed, unchunked.completed);
  EXPECT_EQ(chunked.generated_tokens, unchunked.generated_tokens);
}

TEST(PolicyEndToEndTest, ChunkingBoundsTpotUnderLongPrompts) {
  // Long 4096-token prompts streaming into a decode-heavy batch: whole-
  // prompt prefill steps stall every decoder for the full prompt latency,
  // chunked prefill amortizes it, so worst-case TPOT drops.
  RequestStreamConfig stream;
  stream.seed = 21;
  stream.num_requests = 40;
  stream.arrival_rate = 2.0;
  stream.prompt.kind = LengthDistribution::kFixed;
  stream.prompt.mean = 4096;
  stream.output.kind = LengthDistribution::kFixed;
  stream.output.mean = 128;
  const auto requests = generate_requests(stream);
  ServingScenario whole = llama7b_baseline_scenario(1, ir::DType::kInt4);
  ServingScenario chunked = whole;
  chunked.scheduler.prefill_chunk_tokens = 512;
  const ServingMetrics whole_metrics = run_serving(whole, requests);
  const ServingMetrics chunked_metrics = run_serving(chunked, requests);
  EXPECT_EQ(whole_metrics.completed, 40);
  EXPECT_EQ(chunked_metrics.completed, 40);
  EXPECT_LT(chunked_metrics.tpot.max, whole_metrics.tpot.max);
}

// --- Golden-metrics regression (one fixed seed per policy x chunking) --------
//
// These pin the canonical pressured deployment's metrics so ANY behavioural
// drift in the scheduler, admission path, cost model, or KV manager fails
// ctest.  The pins run under the DEFAULT "fifo" admission policy — the
// exact pre-admission-API waiting-queue behaviour — and correspond to the
// per-policy rows of bench_serving's schema-v5 BENCH_serving.json.  They
// ALSO run under the paged-KV defaults (kv_block_tokens = 1, prefix
// caching off), which the block allocator reproduces bit for bit — the
// PagedContiguousLockstepTest wall in serving_paged_kv_test.cpp pins that
// equivalence operation by operation.  Two dimensions are deliberately
// NOT golden-pinned:
//   * the admission-policy dimension ("priority", "wfq") — asserted
//     functionally by the AdmissionPolicyTest wall above (starvation
//     freedom, share proportionality, Jain index), aggregates in the
//     JSON's "fairness" block;
//   * the paged-KV dimension (block sizes > 1, prefix caching on) —
//     asserted functionally by serving_paged_kv_test.cpp (hit rate,
//     blocks saved, CoW, fragmentation), aggregates in the schema-v5
//     "prefix_cache" block.
//
// UPDATE PROCEDURE (only after an INTENTIONAL behaviour change):
//   1. Re-run:  ./serving_policy_test --gtest_also_run_disabled_tests \
//                 --gtest_filter='*PrintGoldenValues*'
//   2. Paste the printed table over kGoldens below.
//   3. Explain the drift (which change moved which metric) in your PR.
//   4. If the drift also moves bench_serving output, refresh the committed
//      BENCH_serving.json baseline at the repo root (the CI perf-smoke job
//      gates steps_per_second against it — the whole-grid "sweep" number
//      AND the cluster rows' mean).  The baseline is schema v10:
//      "baseline" / "policies" / "fairness" / "prefix_cache" /
//      "observability" / "slo_frontier" / "resilience" / "cluster" /
//      "speed" blocks plus the "sweep" wall-clock block (baseline +
//      policy grids only).  The "speed" rows (scheduler hot-path
//      microbenchmark) pin deterministic step/token counts and summed
//      simulated seconds; only their wall_seconds / steps_per_second
//      fields are machine-dependent.
//      The slo_frontier rows must keep EDF's slo_attainment strictly above
//      FIFO's at the highest swept arrival rate (serving_slo_test pins the
//      ordering), the resilience rows (fault storm at kFaultStormSeed,
//      recovery off/on) must keep recovery-on strictly above recovery-off
//      on BOTH availability and slo_goodput_tokens_per_s at every swept
//      fault rate (serving_fault_test pins the frontier at rate 1.0), and
//      the cluster rows must keep prefix_affinity's cluster-wide
//      prefix_hit_rate strictly above round_robin's in "router_rows" AND
//      the disaggregated ttft_p99_s strictly below the colocated one at
//      the top swept rate in "disaggregation" (serving_cluster_test pins
//      both orderings on the canonical grids).

struct Golden {
  EvictionPolicy policy;
  std::int64_t chunk;
  double ttft_p50;
  double tpot_p99;
  double e2e_p99;
  double goodput;
  std::int64_t preemptions;
};

ServingScenario golden_scenario(EvictionPolicy policy, std::int64_t chunk) {
  return llama7b_pressured_scenario(1, ir::DType::kInt4, policy, chunk,
                                    /*kv_budget_tokens=*/2000);
}

std::vector<Request> golden_requests() {
  return generate_requests(pressure_stream(/*seed=*/42, /*n=*/120));
}

const Golden kGoldens[] = {
    {EvictionPolicy::kPreemptNewest, 0, 30.693299671957757, 0.034985581768453788, 62.77180183941045, 283.56241520408537, 171},
    {EvictionPolicy::kPreemptNewest, 512, 30.672954102618533, 0.03464261054684576, 62.751456270071237, 283.64933047482293, 171},
    {EvictionPolicy::kSwapToHost, 0, 25.446754345753291, 0.026795361947768607, 53.642802951888896, 330.80099372251351, 71},
    {EvictionPolicy::kSwapToHost, 512, 24.725860369934757, 0.027492356534360621, 52.83777436099227, 335.65516636032862, 68},
    {EvictionPolicy::kPriorityVictim, 0, 50.908952469979937, 0.26643852063218754, 113.08000601840725, 162.76225663281016, 716},
    {EvictionPolicy::kPriorityVictim, 512, 50.898601601548421, 0.31410005651004802, 122.36652738448615, 150.31525537858928, 865},
};

const Golden& golden_for(EvictionPolicy policy, std::int64_t chunk) {
  for (const Golden& golden : kGoldens) {
    if (golden.policy == policy && golden.chunk == chunk) return golden;
  }
  ADD_FAILURE() << "no golden pinned";
  return kGoldens[0];
}

void check_golden(EvictionPolicy policy, std::int64_t chunk) {
  const Golden& golden = golden_for(policy, chunk);
  const ServingMetrics metrics =
      run_serving(golden_scenario(policy, chunk), golden_requests());
  EXPECT_EQ(metrics.completed, 120);
  // Tolerance 1e-6 relative: loose enough for libm ulp differences across
  // platforms, tight enough that any scheduling change fails.
  const auto near = [](double actual, double expected) {
    EXPECT_NEAR(actual, expected, 1e-6 * std::abs(expected) + 1e-12);
  };
  near(metrics.ttft.p50, golden.ttft_p50);
  near(metrics.tpot.p99, golden.tpot_p99);
  near(metrics.e2e.p99, golden.e2e_p99);
  near(metrics.goodput_tokens_per_second, golden.goodput);
  EXPECT_EQ(metrics.preemptions, golden.preemptions);
}

TEST(GoldenMetricsTest, PreemptNewestUnchunked) {
  check_golden(EvictionPolicy::kPreemptNewest, 0);
}
TEST(GoldenMetricsTest, PreemptNewestChunked) {
  check_golden(EvictionPolicy::kPreemptNewest, 512);
}
TEST(GoldenMetricsTest, SwapToHostUnchunked) {
  check_golden(EvictionPolicy::kSwapToHost, 0);
}
TEST(GoldenMetricsTest, SwapToHostChunked) {
  check_golden(EvictionPolicy::kSwapToHost, 512);
}
TEST(GoldenMetricsTest, PriorityVictimUnchunked) {
  check_golden(EvictionPolicy::kPriorityVictim, 0);
}
TEST(GoldenMetricsTest, PriorityVictimChunked) {
  check_golden(EvictionPolicy::kPriorityVictim, 512);
}

// Regenerates the kGoldens table (see UPDATE PROCEDURE above).
TEST(GoldenMetricsTest, DISABLED_PrintGoldenValues) {
  for (const Golden& golden : kGoldens) {
    const ServingMetrics metrics = run_serving(
        golden_scenario(golden.policy, golden.chunk), golden_requests());
    std::printf("    {EvictionPolicy::k%s, %lld, %.17g, %.17g, %.17g, %.17g, "
                "%lld},\n",
                golden.policy == EvictionPolicy::kPreemptNewest
                    ? "PreemptNewest"
                    : golden.policy == EvictionPolicy::kSwapToHost
                          ? "SwapToHost"
                          : "PriorityVictim",
                static_cast<long long>(golden.chunk), metrics.ttft.p50,
                metrics.tpot.p99, metrics.e2e.p99,
                metrics.goodput_tokens_per_second,
                static_cast<long long>(metrics.preemptions));
  }
}

}  // namespace
}  // namespace cimtpu::serving
