// Paged-KV hardening suite: block-granular allocation math, ref-counted
// prefix sharing (full blocks, cached retention, LRU reclaim, partial-tail
// copy-on-write), input validation, the incremental victim-order indices,
// a seeded alloc/grow/share/CoW/free fuzz across 3 seeds x 3 eviction
// policies, and a paged-vs-contiguous lockstep equivalence test at block
// size 1 (the compatibility contract the golden pins rely on).
//
// The scheduler-level tests drive prefix-tagged requests end to end:
// prefix hits must skip prefill work (chunks start at a nonzero KV
// offset) and the canonical chatbot study must show hit rate > 0.5 with
// strictly higher goodput than caching off.  Golden pins freeze the
// paged, prefix-cached path end to end (kPagedGoldens).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serving/kv_cache_manager.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/sweep.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

KvCacheManager paged(Bytes capacity, std::int64_t block_tokens,
                     bool prefix_cache,
                     EvictionPolicy policy = EvictionPolicy::kPreemptNewest,
                     Bytes host_capacity = 1024 * GiB) {
  return KvCacheManager(capacity, /*bytes_per_token=*/1.0, policy,
                        host_capacity, block_tokens, prefix_cache);
}

// --- Block-granular allocation math ------------------------------------------

TEST(PagedKvTest, GrowthAllocatesOnlyAtBlockBoundaries) {
  KvCacheManager kv = paged(/*capacity=*/40.0, /*block_tokens=*/4,
                            /*prefix_cache=*/false);
  EXPECT_EQ(kv.capacity_blocks(), 10);
  EXPECT_TRUE(kv.try_admit(0, 9));  // ceil(9/4) = 3 blocks
  EXPECT_EQ(kv.occupied_blocks(), 3);
  EXPECT_DOUBLE_EQ(kv.used(), 12.0);  // whole blocks, not tokens
  // Tokens 10..12 stay inside the third block.
  EXPECT_FALSE(kv.grow_needs_block(0));
  EXPECT_TRUE(kv.try_grow(0));
  EXPECT_TRUE(kv.try_grow(0));
  EXPECT_TRUE(kv.try_grow(0));
  EXPECT_EQ(kv.occupied_blocks(), 3);
  // Token 13 crosses into a fourth block.
  EXPECT_TRUE(kv.grow_needs_block(0));
  EXPECT_TRUE(kv.try_grow(0));
  EXPECT_EQ(kv.occupied_blocks(), 4);
  EXPECT_EQ(kv.resident_tokens(0), 13);
  EXPECT_TRUE(kv.audit());
  kv.release(0);
  EXPECT_EQ(kv.occupied_blocks(), 0);
  EXPECT_TRUE(kv.audit());
}

TEST(PagedKvTest, AdmissionChecksWholeBlocks) {
  KvCacheManager kv = paged(/*capacity=*/8.0, /*block_tokens=*/4,
                            /*prefix_cache=*/false);
  EXPECT_EQ(kv.capacity_blocks(), 2);
  EXPECT_FALSE(kv.try_admit(0, 9));  // 3 blocks > 2
  EXPECT_TRUE(kv.try_admit(0, 8));   // exactly 2 blocks
  EXPECT_FALSE(kv.try_grow(0));      // a 3rd block does not exist
  EXPECT_TRUE(kv.audit());
}

TEST(PagedKvTest, FragmentationGaugeCountsLastBlockWaste) {
  KvCacheManager kv = paged(/*capacity=*/64.0, /*block_tokens=*/8,
                            /*prefix_cache=*/false);
  EXPECT_DOUBLE_EQ(kv.internal_fragmentation(), 0.0);  // nothing mapped
  EXPECT_TRUE(kv.try_admit(0, 5));  // 1 block, 3 tokens wasted
  EXPECT_DOUBLE_EQ(kv.internal_fragmentation(), 3.0 / 8.0);
  EXPECT_TRUE(kv.try_admit(1, 8));  // full block, no waste
  EXPECT_DOUBLE_EQ(kv.internal_fragmentation(), 3.0 / 16.0);
  // Block size 1 can never waste.
  KvCacheManager unit = paged(64.0, 1, false);
  EXPECT_TRUE(unit.try_admit(0, 5));
  EXPECT_DOUBLE_EQ(unit.internal_fragmentation(), 0.0);
}

// --- Input validation (satellite) --------------------------------------------

TEST(PagedKvValidationTest, RejectsDegenerateConfigs) {
  EXPECT_THROW(KvCacheManager(0.0, 1.0), ConfigError);       // empty budget
  EXPECT_THROW(KvCacheManager(-100.0, 1.0), ConfigError);    // negative
  EXPECT_THROW(KvCacheManager(100.0, 0.0), ConfigError);     // free tokens
  EXPECT_THROW(KvCacheManager(100.0, -1.0), ConfigError);
  EXPECT_THROW(KvCacheManager(100.0, 1.0, EvictionPolicy::kPreemptNewest,
                              -1.0),
               ConfigError);  // negative host pool
  EXPECT_THROW(KvCacheManager(100.0, 1.0, EvictionPolicy::kPreemptNewest,
                              1024 * GiB, /*block_tokens=*/0),
               ConfigError);
  EXPECT_THROW(KvCacheManager(100.0, 1.0, EvictionPolicy::kPreemptNewest,
                              1024 * GiB, /*block_tokens=*/-8),
               ConfigError);
  // A budget smaller than one block can never admit anything.
  EXPECT_THROW(KvCacheManager(7.0, 1.0, EvictionPolicy::kPreemptNewest,
                              1024 * GiB, /*block_tokens=*/8),
               ConfigError);
}

TEST(PagedKvValidationTest, SchedulerRejectsBadBlockConfig) {
  KvCacheManager kv = paged(1e6, 1, false);
  SchedulerConfig config;
  config.kv_block_tokens = 0;
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  config.kv_block_tokens = -4;
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  // The scheduler's config must agree with the manager it drives.
  config.kv_block_tokens = 16;
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  config.kv_block_tokens = 1;
  config.enable_prefix_cache = true;
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  config.enable_prefix_cache = false;
  EXPECT_NO_THROW(ContinuousBatchScheduler(config, &kv));
}

TEST(PagedKvValidationTest, ScenarioValidateRejectsBadBlockTokens) {
  ServingScenario scenario =
      llama7b_baseline_scenario(1, ir::DType::kInt4);
  scenario.scheduler.kv_block_tokens = 0;
  EXPECT_THROW(scenario.validate(), ConfigError);
  scenario.scheduler.kv_block_tokens = 16;
  EXPECT_NO_THROW(scenario.validate());
  // A negative budget override must fail loudly, not silently fall back
  // to the HBM-derived budget.
  scenario.kv_budget_override = -1.0;
  EXPECT_THROW(scenario.validate(), ConfigError);
}

// --- Prefix sharing ----------------------------------------------------------

TEST(PrefixCacheTest, SecondRequestSharesComputedFullBlocks) {
  KvCacheManager kv = paged(1000.0, /*block_tokens=*/4, /*prefix_cache=*/true);
  KvCacheManager::AdmitOutcome outcome;
  // First admission registers the prefix blocks but hits nothing.
  ASSERT_TRUE(kv.try_admit(0, /*tokens=*/11, /*priority=*/0, /*prefix_id=*/7,
                           /*prefix_len=*/8, /*prompt_len=*/10, &outcome));
  EXPECT_EQ(outcome.prefix_hit_tokens, 0);
  EXPECT_EQ(outcome.shared_blocks, 0);
  EXPECT_EQ(outcome.lookup_tokens, 8);
  EXPECT_EQ(kv.shared_block_count(0), 2);  // self-registered, refcount 1
  // Until the registrant's prefill passes the blocks, nobody can hit them.
  KvCacheManager::AdmitOutcome premature;
  ASSERT_TRUE(kv.try_admit(1, 11, 0, 7, 8, 10, &premature));
  EXPECT_EQ(premature.prefix_hit_tokens, 0);
  kv.release(1);
  // Prefill completes -> the blocks become hittable.
  kv.note_prefilled(0, 10);
  KvCacheManager::AdmitOutcome hit;
  ASSERT_TRUE(kv.try_admit(2, 11, 0, 7, 8, 10, &hit));
  EXPECT_EQ(hit.prefix_hit_tokens, 8);
  EXPECT_EQ(hit.shared_blocks, 2);
  EXPECT_EQ(hit.cow_blocks, 0);  // prefix_len is block-aligned: no tail
  EXPECT_EQ(kv.shared_block_count(2), 2);
  // The two shared blocks are physical once: 0 maps 3 blocks, 2 maps 3
  // blocks, but only 4 distinct blocks exist.
  EXPECT_EQ(kv.occupied_blocks(), 4);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, ReleasedPrefixBlocksStayCachedAndHittable) {
  KvCacheManager kv = paged(1000.0, 4, true);
  ASSERT_TRUE(kv.try_admit(0, 11, 0, /*prefix_id=*/3, /*prefix_len=*/8,
                           /*prompt_len=*/10));
  kv.note_prefilled(0, 10);
  kv.release(0);
  // Fully released but computed: the blocks stay cached, occupying pages.
  EXPECT_EQ(kv.cached_block_count(), 2);
  EXPECT_EQ(kv.occupied_blocks(), 2);
  EXPECT_EQ(kv.referenced_blocks(), 0);
  EXPECT_TRUE(kv.audit());
  // A later same-prefix request hits them even though lifetimes never
  // overlapped — the cross-request reuse that makes chatbot prefixes pay.
  KvCacheManager::AdmitOutcome hit;
  ASSERT_TRUE(kv.try_admit(1, 11, 0, 3, 8, 10, &hit));
  EXPECT_EQ(hit.prefix_hit_tokens, 8);
  EXPECT_EQ(kv.cached_block_count(), 0);  // re-referenced
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, PartialTailIsServedCopyOnWrite) {
  KvCacheManager kv = paged(1000.0, 4, true);
  // prefix 10 = 2 full blocks + a 2-token tail inside block 2.
  ASSERT_TRUE(kv.try_admit(0, 13, 0, /*prefix_id=*/1, /*prefix_len=*/10,
                           /*prompt_len=*/12));
  kv.note_prefilled(0, 12);
  KvCacheManager::AdmitOutcome hit;
  ASSERT_TRUE(kv.try_admit(1, 13, 0, 1, 10, 12, &hit));
  EXPECT_EQ(hit.prefix_hit_tokens, 10);  // tail tokens reused via the copy
  EXPECT_EQ(hit.shared_blocks, 2);       // full blocks by reference
  EXPECT_EQ(hit.cow_blocks, 1);          // the tail block is copied
  EXPECT_TRUE(kv.audit());
  // The donor leaving drops the tail entry: later admissions still share
  // the full blocks but fall back to prefilling the tail themselves.
  kv.release(0);
  KvCacheManager::AdmitOutcome no_tail;
  ASSERT_TRUE(kv.try_admit(2, 13, 0, 1, 10, 12, &no_tail));
  EXPECT_EQ(no_tail.prefix_hit_tokens, 8);
  EXPECT_EQ(no_tail.cow_blocks, 0);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, HitCappedAtPromptMinusOne) {
  // The whole prompt IS the (aligned) prefix: the final prompt token must
  // still be recomputed for logits, so the hit stops one token short while
  // every prefix block is still mapped by reference.
  KvCacheManager kv = paged(1000.0, 4, true);
  ASSERT_TRUE(kv.try_admit(0, 9, 0, /*prefix_id=*/5, /*prefix_len=*/8,
                           /*prompt_len=*/8));
  kv.note_prefilled(0, 8);
  KvCacheManager::AdmitOutcome hit;
  ASSERT_TRUE(kv.try_admit(1, 9, 0, 5, 8, 8, &hit));
  EXPECT_EQ(hit.prefix_hit_tokens, 7);
  EXPECT_EQ(hit.shared_blocks, 2);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, CachedBlocksAreReclaimedLruUnderPressure) {
  // 6-block device.  Prefix A (2 blocks) is cached, then prefix B (2
  // blocks) is cached more recently.  A 4-block unique admission finds 2
  // free blocks and must reclaim exactly the 2 OLDER cached blocks (A's),
  // leaving B hittable.
  KvCacheManager kv = paged(24.0, 4, true);
  ASSERT_TRUE(kv.try_admit(0, 9, 0, /*prefix_id=*/100, 8, 9));
  kv.note_prefilled(0, 9);
  kv.release(0);
  ASSERT_TRUE(kv.try_admit(1, 9, 0, /*prefix_id=*/200, 8, 9));
  kv.note_prefilled(1, 9);
  kv.release(1);
  EXPECT_EQ(kv.cached_block_count(), 4);
  EXPECT_EQ(kv.occupied_blocks(), 4);
  ASSERT_TRUE(kv.try_admit(2, 16));  // 4 blocks: 2 free + 2 reclaimed
  EXPECT_EQ(kv.cached_block_count(), 2);
  EXPECT_TRUE(kv.audit());
  kv.release(2);
  // The survivors are prefix B's blocks: a B lookup hits both, an A
  // lookup none (and quietly re-registers A for the future).
  KvCacheManager::AdmitOutcome hit_b;
  ASSERT_TRUE(kv.try_admit(3, 9, 0, 200, 8, 9, &hit_b));
  EXPECT_EQ(hit_b.prefix_hit_tokens, 8);
  EXPECT_EQ(hit_b.shared_blocks, 2);
  kv.release(3);
  KvCacheManager::AdmitOutcome hit_a;
  ASSERT_TRUE(kv.try_admit(4, 9, 0, 100, 8, 9, &hit_a));
  EXPECT_EQ(hit_a.prefix_hit_tokens, 0);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, SwapOutPrivatizesSharedBlocks) {
  KvCacheManager kv = paged(1000.0, 4, true, EvictionPolicy::kSwapToHost);
  ASSERT_TRUE(kv.try_admit(0, 11, 0, /*prefix_id=*/2, 8, 10));
  kv.note_prefilled(0, 10);
  ASSERT_TRUE(kv.try_admit(1, 11, 0, 2, 8, 10));
  EXPECT_EQ(kv.shared_block_count(1), 2);
  ASSERT_TRUE(kv.try_swap_out(1));
  // The host copy is whole (3 blocks); the device keeps the shared blocks
  // alive for request 0.
  EXPECT_DOUBLE_EQ(kv.host_used(), 12.0);
  EXPECT_EQ(kv.shared_block_count(0), 2);
  EXPECT_TRUE(kv.audit());
  ASSERT_TRUE(kv.try_swap_in(1));
  EXPECT_EQ(kv.shared_block_count(1), 0);  // returns private
  EXPECT_EQ(kv.resident_tokens(1), 11);
  EXPECT_TRUE(kv.audit());
}

// --- Victim-order indices (satellite: no full scans) -------------------------

TEST(VictimIndexTest, MatchesBruteForceScanUnderChurn) {
  // The incremental admit-order / priority-order indices must reproduce
  // the historical full-scan victim choice exactly, across policies,
  // protect values, grows, releases, and swap re-admissions.
  struct Shadow {
    std::int64_t tokens, admit_seq, priority;
  };
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
        EvictionPolicy::kPriorityVictim}) {
    KvCacheManager kv = paged(1e6, 4, false, policy);
    std::map<std::int64_t, Shadow> shadow;
    std::int64_t shadow_seq = 0;
    Rng rng(77);
    const auto brute_force = [&](std::int64_t protect) {
      // The pre-paging reference scan, verbatim semantics.
      std::int64_t exempt = -1;
      if (policy == EvictionPolicy::kPriorityVictim) {
        std::int64_t eligible = 0;
        std::int64_t oldest_seq = -1;
        for (const auto& [id, entry] : shadow) {
          if (id == protect) continue;
          ++eligible;
          if (exempt < 0 || entry.admit_seq < oldest_seq) {
            exempt = id;
            oldest_seq = entry.admit_seq;
          }
        }
        if (eligible < 2) exempt = -1;
      }
      std::int64_t victim = -1;
      const Shadow* victim_entry = nullptr;
      for (const auto& [id, entry] : shadow) {
        if (id == protect || id == exempt) continue;
        const auto better = [&](const Shadow& a, std::int64_t a_id,
                                const Shadow& b, std::int64_t b_id) {
          if (policy == EvictionPolicy::kPriorityVictim) {
            if (a.priority != b.priority) return a.priority < b.priority;
            if (a.tokens != b.tokens) return a.tokens > b.tokens;
          }
          if (a.admit_seq != b.admit_seq) return a.admit_seq > b.admit_seq;
          return a_id > b_id;
        };
        if (victim_entry == nullptr ||
            better(entry, id, *victim_entry, victim)) {
          victim = id;
          victim_entry = &entry;
        }
      }
      return victim;
    };
    for (std::int64_t op = 0; op < 500; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 3);
      if (kind == 0 || shadow.empty()) {
        const std::int64_t tokens = rng.uniform_int(1, 40);
        const std::int64_t priority = rng.uniform_int(0, 3);
        ASSERT_TRUE(kv.try_admit(op, tokens, priority));
        shadow[op] = Shadow{tokens, shadow_seq++, priority};
      } else if (kind == 1) {
        const std::int64_t id = shadow.begin()->first;
        ASSERT_TRUE(kv.try_grow(id, rng.uniform_int(1, 9)));
        shadow[id].tokens += 0;  // tokens tracked below
      } else {
        const std::int64_t id = shadow.rbegin()->first;
        kv.release(id);
        shadow.erase(id);
      }
      // Mirror token counts from the manager (grow path above).
      for (auto& [id, entry] : shadow) entry.tokens = kv.resident_tokens(id);
      const std::int64_t protect =
          shadow.empty() || rng.uniform_int(0, 1) == 0
              ? -1
              : shadow.begin()->first;
      ASSERT_EQ(kv.pick_eviction_victim(protect), brute_force(protect))
          << "policy " << eviction_policy_name(policy) << " op " << op;
      ASSERT_TRUE(kv.audit());
    }
  }
}

// --- Seeded fuzz: alloc/grow/share/CoW/free (satellite) ----------------------

TEST(PagedKvFuzzTest, NoLeaksAcrossSeedsAndPolicies) {
  for (std::uint64_t seed : {3ull, 17ull, 101ull}) {
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      KvCacheManager kv = paged(/*capacity=*/600.0, /*block_tokens=*/4,
                                /*prefix_cache=*/true, policy,
                                /*host_capacity=*/200.0);
      Rng rng(seed);
      std::set<std::int64_t> device, host;
      for (std::int64_t op = 0; op < 600; ++op) {
        const std::int64_t kind = rng.uniform_int(0, 5);
        if (kind <= 1 || device.empty()) {
          // Admit, half the time with one of 3 shared prefixes (length 10:
          // 2 full blocks + a CoW tail).
          const bool tagged = rng.uniform_int(0, 1) == 0;
          const std::int64_t prompt = rng.uniform_int(12, 40);
          const std::int64_t prefix = tagged ? rng.uniform_int(0, 2) : -1;
          if (kv.try_admit(op, prompt + 1, rng.uniform_int(0, 3), prefix,
                           tagged ? 10 : 0, prompt)) {
            device.insert(op);
            // Prefill some arbitrary amount (possibly past the prefix).
            kv.note_prefilled(op, rng.uniform_int(0, prompt));
          }
        } else if (kind == 2) {
          kv.try_grow(*device.begin(), rng.uniform_int(1, 6));
        } else if (kind == 3) {
          const std::int64_t id = *device.rbegin();
          kv.release(id);
          device.erase(id);
        } else if (kind == 4 && policy == EvictionPolicy::kSwapToHost) {
          const std::int64_t id = *device.begin();
          if (kv.try_swap_out(id)) {
            device.erase(id);
            host.insert(id);
          }
        } else {
          const std::int64_t victim = kv.pick_eviction_victim(/*protect=*/-1);
          if (victim >= 0) {
            kv.release(victim);
            device.erase(victim);
          }
        }
        if (!host.empty() && kv.try_swap_in(*host.begin())) {
          device.insert(*host.begin());
          host.erase(host.begin());
        }
        // audit() recomputes per-block refcounts (>= 1 while mapped),
        // per-entry block math, the cached set, and both victim indices.
        ASSERT_TRUE(kv.audit())
            << "seed " << seed << " policy " << eviction_policy_name(policy)
            << " op " << op;
        ASSERT_EQ(kv.resident_count(), device.size());
        ASSERT_EQ(kv.swapped_count(), host.size());
        ASSERT_LE(kv.occupied_blocks(), kv.capacity_blocks());
      }
      // Tear down: no leaked blocks — everything still occupied must be a
      // reclaimable cached prefix block.
      for (std::int64_t id : device) kv.release(id);
      std::vector<std::int64_t> stranded(host.begin(), host.end());
      for (std::int64_t id : stranded) {
        ASSERT_TRUE(kv.try_swap_in(id));
        kv.release(id);
      }
      EXPECT_EQ(kv.referenced_blocks(), 0);
      EXPECT_EQ(kv.occupied_blocks(), kv.cached_block_count());
      EXPECT_DOUBLE_EQ(kv.used(), 0.0);
      EXPECT_DOUBLE_EQ(kv.host_used(), 0.0);
      EXPECT_TRUE(kv.audit());
    }
  }
}

TEST(PagedKvFuzzTest, RecycledBlockIdsUnderReclaimFaultsAndSwaps) {
  // A 30-block device shared by four prefix families (one of them seen at
  // two prefix lengths) churns through LRU reclaim, fault invalidation of
  // resident and swapped entries, cached-block drops and swap-outs of
  // entries that map shared blocks.  Far more prefix blocks are registered
  // than the device can hold, so block ids are recycled over and over;
  // audit() re-derives refcounts, LRU membership and the family index
  // after every operation.
  const std::int64_t prefix_lens[] = {8, 10, 17, 14, 22};  // family 3 twice
  for (std::uint64_t seed : {7ull, 29ull, 211ull}) {
    KvCacheManager kv = paged(/*capacity=*/120.0, /*block_tokens=*/4,
                              /*prefix_cache=*/true,
                              EvictionPolicy::kSwapToHost,
                              /*host_capacity=*/160.0);
    Rng rng(seed);
    std::set<std::int64_t> device, host;
    std::map<std::int64_t, std::int64_t> prompts;
    const auto pick = [&rng](const std::set<std::int64_t>& ids) {
      return *std::next(ids.begin(),
                        rng.uniform_int(0, static_cast<std::int64_t>(
                                               ids.size()) - 1));
    };
    std::int64_t registered = 0;
    std::int64_t shared_swap_outs = 0;
    std::int64_t invalidated_resident = 0;
    std::int64_t invalidated_swapped = 0;
    std::int64_t dropped = 0;
    for (std::int64_t op = 0; op < 2000; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 8);
      if (kind <= 2 || device.empty()) {
        const std::int64_t family = rng.uniform_int(0, 4);
        const bool tagged = rng.uniform_int(0, 3) > 0;
        const std::int64_t prefix_len = prefix_lens[family];
        const std::int64_t prompt = prefix_len + rng.uniform_int(1, 12);
        KvCacheManager::AdmitOutcome outcome;
        if (kv.try_admit(op, prompt + 1, rng.uniform_int(0, 3),
                         tagged ? std::min<std::int64_t>(family, 3) : -1,
                         tagged ? prefix_len : 0, prompt, &outcome)) {
          device.insert(op);
          prompts[op] = prompt;
          registered += kv.shared_block_count(op) - outcome.shared_blocks;
          kv.note_prefilled(op, rng.uniform_int(0, prompt));
        }
      } else if (kind == 3) {
        const std::int64_t id = pick(device);
        kv.note_prefilled(id, rng.uniform_int(0, prompts[id]));
      } else if (kind == 4) {
        kv.try_grow(pick(device), rng.uniform_int(1, 6));
      } else if (kind == 5) {
        const std::int64_t id = pick(device);
        kv.release(id);
        device.erase(id);
      } else if (kind == 6) {
        const std::int64_t id = pick(device);
        const bool shares = kv.shared_block_count(id) > 0;
        if (kv.try_swap_out(id)) {
          device.erase(id);
          host.insert(id);
          if (shares) ++shared_swap_outs;
        }
      } else if (kind == 7) {
        const bool from_host = !host.empty() && rng.uniform_int(0, 1) == 0;
        const std::int64_t id = from_host ? pick(host) : pick(device);
        ASSERT_GT(kv.invalidate_blocks(id), 0);
        (from_host ? host : device).erase(id);
        ++(from_host ? invalidated_swapped : invalidated_resident);
      } else if (rng.uniform_int(0, 3) == 0) {
        const std::int64_t cached = kv.cached_block_count();
        ASSERT_EQ(kv.drop_cached_blocks(), cached);
        ASSERT_EQ(kv.cached_block_count(), 0);
        dropped += cached;
      }
      if (!host.empty() && rng.uniform_int(0, 2) == 0 &&
          kv.try_swap_in(*host.begin())) {
        device.insert(*host.begin());
        host.erase(host.begin());
      }
      ASSERT_TRUE(kv.audit()) << "seed " << seed << " op " << op;
      ASSERT_EQ(kv.resident_count(), device.size());
      ASSERT_EQ(kv.swapped_count(), host.size());
    }
    // Every mechanism the interleaving is meant to cover actually ran.
    EXPECT_GT(registered, 4 * kv.capacity_blocks()) << "ids not recycled";
    EXPECT_GT(kv.cached_blocks_reclaimed_total(), 0);
    EXPECT_GT(dropped, 0);
    EXPECT_GT(invalidated_resident, 0);
    EXPECT_GT(invalidated_swapped, 0);
    EXPECT_GT(shared_swap_outs, 0);
    for (std::int64_t id : device) kv.release(id);
    for (std::int64_t id : host) kv.invalidate_blocks(id);
    EXPECT_EQ(kv.referenced_blocks(), 0);
    EXPECT_EQ(kv.occupied_blocks(), kv.cached_block_count());
    EXPECT_TRUE(kv.audit());
  }
}

// --- Paged-vs-contiguous lockstep equivalence at block size 1 (satellite) ----

/// The pre-paging contiguous accounting, reimplemented verbatim: used_ is
/// an accumulated byte total, admissions/growth compare used_ + need
/// against capacity, swap moves byte totals.  At block_tokens = 1 the
/// paged manager must make the IDENTICAL decision on every operation.
class ContiguousReference {
 public:
  ContiguousReference(Bytes capacity, Bytes bytes_per_token,
                      Bytes host_capacity)
      : capacity_(capacity),
        bytes_per_token_(bytes_per_token),
        host_capacity_(host_capacity) {}

  bool try_admit(std::int64_t id, std::int64_t tokens) {
    const Bytes need = bytes_per_token_ * static_cast<double>(tokens);
    if (used_ + need > capacity_) return false;
    entries_[id] = tokens;
    used_ += need;
    return true;
  }
  bool try_grow(std::int64_t id, std::int64_t tokens) {
    const Bytes need = bytes_per_token_ * static_cast<double>(tokens);
    if (used_ + need > capacity_) return false;
    entries_[id] += tokens;
    used_ += need;
    return true;
  }
  void release(std::int64_t id) {
    used_ -= bytes_per_token_ * static_cast<double>(entries_.at(id));
    entries_.erase(id);
  }
  bool try_swap_out(std::int64_t id) {
    const Bytes bytes = bytes_per_token_ * static_cast<double>(entries_.at(id));
    if (host_used_ + bytes > host_capacity_) return false;
    host_entries_[id] = entries_.at(id);
    host_used_ += bytes;
    used_ -= bytes;
    entries_.erase(id);
    return true;
  }
  bool try_swap_in(std::int64_t id) {
    const Bytes bytes =
        bytes_per_token_ * static_cast<double>(host_entries_.at(id));
    if (used_ + bytes > capacity_) return false;
    entries_[id] = host_entries_.at(id);
    used_ += bytes;
    host_used_ -= bytes;
    host_entries_.erase(id);
    return true;
  }
  Bytes used() const { return used_; }
  std::int64_t tokens(std::int64_t id) const {
    const auto it = entries_.find(id);
    return it == entries_.end() ? 0 : it->second;
  }

 private:
  Bytes capacity_, bytes_per_token_, host_capacity_;
  Bytes used_ = 0, host_used_ = 0;
  std::map<std::int64_t, std::int64_t> entries_, host_entries_;
};

TEST(PagedContiguousLockstepTest, BlockSizeOneMatchesContiguousDecisions) {
  for (std::uint64_t seed : {5ull, 23ull, 99ull}) {
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      KvCacheManager kv = paged(300.0, /*block_tokens=*/1,
                                /*prefix_cache=*/false, policy,
                                /*host_capacity=*/120.0);
      ContiguousReference reference(300.0, 1.0, 120.0);
      Rng rng(seed);
      std::set<std::int64_t> device, host;
      for (std::int64_t op = 0; op < 500; ++op) {
        const std::int64_t kind = rng.uniform_int(0, 4);
        if (kind == 0 || device.empty()) {
          const std::int64_t tokens = rng.uniform_int(1, 60);
          const bool paged_ok = kv.try_admit(op, tokens);
          ASSERT_EQ(paged_ok, reference.try_admit(op, tokens)) << "op " << op;
          if (paged_ok) device.insert(op);
        } else if (kind == 1) {
          const std::int64_t id = *device.begin();
          const std::int64_t tokens = rng.uniform_int(1, 8);
          ASSERT_EQ(kv.try_grow(id, tokens), reference.try_grow(id, tokens));
        } else if (kind == 2) {
          const std::int64_t id = *device.rbegin();
          kv.release(id);
          reference.release(id);
          device.erase(id);
        } else if (kind == 3) {
          const std::int64_t id = *device.begin();
          const bool paged_ok = kv.try_swap_out(id);
          ASSERT_EQ(paged_ok, reference.try_swap_out(id));
          if (paged_ok) {
            device.erase(id);
            host.insert(id);
          }
        } else if (!host.empty()) {
          const std::int64_t id = *host.begin();
          const bool paged_ok = kv.try_swap_in(id);
          ASSERT_EQ(paged_ok, reference.try_swap_in(id));
          if (paged_ok) {
            host.erase(id);
            device.insert(id);
          }
        }
        ASSERT_DOUBLE_EQ(kv.used(), reference.used()) << "op " << op;
        for (std::int64_t id : device) {
          ASSERT_EQ(kv.resident_tokens(id), reference.tokens(id));
        }
        ASSERT_TRUE(kv.audit());
      }
    }
  }
}

// --- Scheduler integration: prefix hits skip prefill work --------------------

TEST(PagedSchedulerTest, PrefixHitsSkipPrefillAndStartMidSequence) {
  KvCacheManager kv = paged(1e6, /*block_tokens=*/16, /*prefix_cache=*/true,
                            EvictionPolicy::kNone);
  SchedulerConfig config;
  config.kv_block_tokens = 16;
  config.enable_prefix_cache = true;
  config.max_prefill_batch = 1;  // serialized admissions: every request
                                 // after the first sees a computed prefix
  ContinuousBatchScheduler scheduler(config, &kv);
  const std::int64_t prefix_len = 64;
  std::vector<Request> requests;
  for (std::int64_t id = 0; id < 6; ++id) {
    Request request;
    request.id = id;
    request.prompt_len = prefix_len + 32;
    request.output_len = 4;
    request.prefix_id = 0;
    request.prefix_len = prefix_len;
    requests.push_back(request);
    scheduler.enqueue(request);
  }
  std::int64_t prefill_tokens = 0;
  std::int64_t nonzero_first_chunks = 0;
  std::map<std::int64_t, std::int64_t> finish_count;
  StepRecord record;
  while (scheduler.next_step(&record)) {
    if (record.kind == StepRecord::Kind::kPrefill) {
      for (std::size_t i = 0; i < record.chunk_lens.size(); ++i) {
        prefill_tokens += record.chunk_lens[i];
        if (record.prev_lens[i] == prefix_len) ++nonzero_first_chunks;
      }
    }
    for (std::int64_t id : record.finished_ids) ++finish_count[id];
    EXPECT_TRUE(kv.audit());
    EXPECT_TRUE(scheduler.aggregates_consistent());
  }
  for (const Request& request : requests) {
    EXPECT_EQ(finish_count[request.id], 1);
  }
  // Request 0 prefills all 96 tokens; the other five skip the 64-token
  // prefix and prefill only their 32-token turns, starting mid-sequence.
  EXPECT_EQ(prefill_tokens, 96 + 5 * 32);
  EXPECT_EQ(nonzero_first_chunks, 5);
  EXPECT_EQ(scheduler.counters().prefix_hit_tokens, 5 * prefix_len);
  EXPECT_GT(scheduler.counters().prefix_shared_blocks, 0);
}

TEST(PagedSchedulerTest, BlockSixteenCachingOffServesSameTokens) {
  // Block granularity changes allocation timing, never the work served:
  // every request completes with the same generated-token total.
  RequestStreamConfig stream;
  stream.seed = 13;
  stream.num_requests = 80;
  stream.arrival_rate = 40.0;
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = 64;
  stream.prompt.max_len = 320;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 16;
  stream.output.max_len = 128;
  const auto requests = generate_requests(stream);
  ServingScenario contiguous = llama7b_pressured_scenario(
      1, ir::DType::kInt4, EvictionPolicy::kPreemptNewest, 0,
      /*kv_budget_tokens=*/2000);
  ServingScenario blocked = contiguous;
  blocked.scheduler.kv_block_tokens = 16;
  const ServingMetrics a = run_serving(contiguous, requests);
  const ServingMetrics b = run_serving(blocked, requests);
  EXPECT_EQ(a.completed, 80);
  EXPECT_EQ(b.completed, 80);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_DOUBLE_EQ(a.kv_internal_fragmentation, 0.0);
  EXPECT_GT(b.kv_internal_fragmentation, 0.0);
}

// --- Request generation: the fourth decoupled rng stream ---------------------

TEST(PrefixStreamTest, PrefixAssignmentDecoupledFromOtherStreams) {
  RequestStreamConfig base = zipf_chat_stream(11, 400, 20.0,
                                              /*priority_classes=*/3);
  base.num_tenants = 2;
  RequestStreamConfig prefixed = base;
  prefixed.prefix_pool_size = 4;
  prefixed.prefix_len_tokens = 100;
  const auto plain = generate_requests(base);
  const auto tagged = generate_requests(prefixed);
  ASSERT_EQ(plain.size(), tagged.size());
  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].arrival_time, tagged[i].arrival_time);
    EXPECT_EQ(plain[i].prompt_len + 100, tagged[i].prompt_len);
    EXPECT_EQ(plain[i].output_len, tagged[i].output_len);
    EXPECT_EQ(plain[i].priority, tagged[i].priority);
    EXPECT_EQ(plain[i].tenant_id, tagged[i].tenant_id);
    EXPECT_EQ(plain[i].prefix_id, -1);
    EXPECT_EQ(plain[i].prefix_len, 0);
    EXPECT_GE(tagged[i].prefix_id, 0);
    EXPECT_LT(tagged[i].prefix_id, 4);
    EXPECT_EQ(tagged[i].prefix_len, 100);
    seen.insert(tagged[i].prefix_id);
  }
  EXPECT_EQ(seen.size(), 4u);  // all pool members drawn over 400 requests

  RequestStreamConfig bad = prefixed;
  bad.prefix_len_tokens = 0;  // pool without a length
  EXPECT_THROW(generate_requests(bad), ConfigError);
  bad.prefix_len_tokens = -5;
  EXPECT_THROW(generate_requests(bad), ConfigError);
  bad.prefix_len_tokens = 100;
  bad.prefix_pool_size = -1;
  EXPECT_THROW(generate_requests(bad), ConfigError);
}

// --- End-to-end acceptance: the canonical chatbot study ----------------------

TEST(PrefixCacheEndToEndTest, ChatbotHitRateAboveHalfAndGoodputWin) {
  const auto requests = generate_requests(
      prefix_chatbot_stream(/*seed=*/42, /*num_requests=*/200,
                            /*arrival_rate=*/30.0));
  const ServingMetrics off = run_serving(
      prefix_cache_scenario(ir::DType::kInt4, /*enable_prefix_cache=*/false),
      requests);
  const ServingMetrics on = run_serving(
      prefix_cache_scenario(ir::DType::kInt4, /*enable_prefix_cache=*/true),
      requests);
  EXPECT_EQ(off.completed, 200);
  EXPECT_EQ(on.completed, 200);
  EXPECT_EQ(off.generated_tokens, on.generated_tokens);
  // The acceptance bar: most prefix tokens served from cache, strictly
  // higher goodput than the caching-off deployment on identical traffic.
  EXPECT_GT(on.prefix_hit_rate, 0.5);
  EXPECT_GT(on.goodput_tokens_per_second, off.goodput_tokens_per_second);
  EXPECT_GT(on.counters.prefix_shared_blocks, 0);
  EXPECT_GT(on.counters.prefix_cow_blocks, 0);  // 1000 % 16 != 0: tail CoW
  EXPECT_DOUBLE_EQ(off.prefix_hit_rate, 0.0);
  EXPECT_LE(on.ttft.p50, off.ttft.p50);  // skipped prefill shows up in TTFT
  // Determinism: the identical run reproduces bit for bit.
  const ServingMetrics again = run_serving(
      prefix_cache_scenario(ir::DType::kInt4, /*enable_prefix_cache=*/true),
      requests);
  EXPECT_EQ(on.total_steps, again.total_steps);
  EXPECT_DOUBLE_EQ(on.goodput_tokens_per_second,
                   again.goodput_tokens_per_second);
  EXPECT_DOUBLE_EQ(on.prefix_hit_rate, again.prefix_hit_rate);
  EXPECT_DOUBLE_EQ(on.kv_internal_fragmentation,
                   again.kv_internal_fragmentation);
}

// --- Golden pins for the paged, prefix-cached path ---------------------------
//
// kGoldens (serving_policy_test.cpp) pins block size 1 with caching off.
// These pin the paged path: the three prefix_cache_grid_points cells
// (block 16 off/on, block 64 on) on the canonical chatbot stream, plus one
// pressured prefix-cache cell whose tight budget makes cached-block
// reclaim, recompute preemption and head-of-line admission blocking all
// fire (PagedGoldenTest.PressuredCellExercisesEveryPressureMechanism
// proves each one did).  Counts and doubles are compared EXACTLY: the
// KV bookkeeping is integer arithmetic and every cost comes from the same
// memoized model, so a refactor of the KV manager or of decode planning
// must reproduce these bit for bit.
//
// UPDATE PROCEDURE (only after an INTENTIONAL behaviour change):
//   1. Re-run ./serving_paged_kv_test with
//        --gtest_also_run_disabled_tests
//        --gtest_filter='*PrintPagedGoldenValues*'
//   2. Paste the printed rows over kPagedGoldens below.
//   3. Explain the drift (which change moved which metric) in your PR.

struct PagedGolden {
  const char* label;
  std::int64_t steps;
  std::int64_t preemptions;
  std::int64_t blocks_allocated;
  std::int64_t blocks_reclaimed;
  std::int64_t cow_blocks;
  std::int64_t prefix_hit_tokens;
  double fragmentation;
  double ttft_p50;
  double ttft_p99;
  double tpot_p50;
  double tpot_p99;
};

constexpr const char* kPressuredLabel = "block=16 prefix_cache=on pressured";
constexpr std::int64_t kPressuredBudgetTokens = 6000;

const std::vector<Request>& paged_golden_requests() {
  static const std::vector<Request> requests = generate_requests(
      prefix_chatbot_stream(/*seed=*/42, /*num_requests=*/200,
                            /*arrival_rate=*/30.0));
  return requests;
}

/// The pinned cells, in kPagedGoldens order: the canonical grid, then the
/// pressured cell (caching on, block 16, kPressuredBudgetTokens budget).
std::vector<SweepPoint> paged_golden_points() {
  const ServingScenario base = prefix_cache_scenario(ir::DType::kInt4, true);
  std::vector<SweepPoint> points =
      prefix_cache_grid_points(base.model, &paged_golden_requests());
  SweepPoint pressured;
  pressured.label = kPressuredLabel;
  pressured.scenario = prefix_cache_scenario(
      ir::DType::kInt4, /*enable_prefix_cache=*/true, /*kv_block_tokens=*/16,
      kPressuredBudgetTokens);
  pressured.requests = &paged_golden_requests();
  points.push_back(std::move(pressured));
  return points;
}

std::int64_t registry_counter(const ServingMetrics& metrics,
                              const std::string& name) {
  return metrics.registry.counters().at(name);
}

const PagedGolden kPagedGoldens[] = {
    {"block=16 prefix_cache=off", 928, 9, 14837, 0, 0, 0, 0.0063445032652685212, 19.593841514726076, 43.673329200039355, 0.082288925030609444, 0.13996829189225996},
    {"block=16 prefix_cache=on", 624, 0, 2293, 0, 178, 191888, 0.0062220527793078522, 3.6543884554303889, 10.033460462626643, 0.057666004371642508, 0.089803803024701812},
    {"block=64 prefix_cache=on", 624, 0, 759, 0, 178, 191440, 0.026612382796193757, 3.6543884554303889, 10.033460462626643, 0.057666004371642508, 0.089803803024701812},
    {"block=16 prefix_cache=on pressured", 1020, 115, 2970, 250, 251, 303512, 0.0063357157669539131, 8.6671368087179825, 21.271374424308899, 0.043389138676058085, 0.12177050090119614},
};

TEST(PagedGoldenTest, GridAndPressuredCellsMatchPins) {
  const std::vector<SweepPoint> points = paged_golden_points();
  ASSERT_EQ(points.size(), std::size(kPagedGoldens));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PagedGolden& golden = kPagedGoldens[i];
    ASSERT_EQ(points[i].label, golden.label);
    const ServingMetrics metrics =
        run_serving(points[i].scenario, *points[i].requests);
    SCOPED_TRACE(golden.label);
    EXPECT_EQ(metrics.completed, 200);
    EXPECT_EQ(metrics.total_steps, golden.steps);
    EXPECT_EQ(metrics.preemptions, golden.preemptions);
    EXPECT_EQ(registry_counter(metrics, "kv.blocks_allocated_total"),
              golden.blocks_allocated);
    EXPECT_EQ(registry_counter(metrics, "kv.cached_blocks_reclaimed_total"),
              golden.blocks_reclaimed);
    EXPECT_EQ(metrics.counters.prefix_cow_blocks, golden.cow_blocks);
    EXPECT_EQ(metrics.counters.prefix_hit_tokens, golden.prefix_hit_tokens);
    EXPECT_EQ(metrics.kv_internal_fragmentation, golden.fragmentation);
    EXPECT_EQ(metrics.ttft.p50, golden.ttft_p50);
    EXPECT_EQ(metrics.ttft.p99, golden.ttft_p99);
    EXPECT_EQ(metrics.tpot.p50, golden.tpot_p50);
    EXPECT_EQ(metrics.tpot.p99, golden.tpot_p99);
  }
}

/// Steps whose admission phase ended with a request still waiting although
/// neither the batch cap nor the per-step admission cap stopped it,
/// reconstructed from a traced run.  Under FIFO admission with nothing
/// swapped out and no degradation, only a failed KvCacheManager::try_admit
/// probe (or the memo of one) ends admission that way.
std::int64_t head_of_line_blocked_steps(const std::vector<TraceEvent>& events,
                                        const SchedulerConfig& config) {
  std::int64_t waiting = 0;
  std::int64_t resident = 0;
  std::int64_t admitted = 0;     // admissions in the current step
  std::int64_t step = -1;        // step whose admission phase is open
  bool judged = true;            // current step's admission phase judged
  std::int64_t blocked = 0;
  for (const TraceEvent& event : events) {
    if (event.step >= 0 && event.step != step) {
      step = event.step;
      admitted = 0;
      judged = false;
    }
    const bool admission_phase = event.type == TraceEventType::kAdmit ||
                                 event.type == TraceEventType::kPrefixHit;
    if (!judged && event.step == step && !admission_phase) {
      judged = true;
      if (waiting > 0 && admitted < config.max_prefill_batch &&
          resident < config.max_batch) {
        ++blocked;
      }
    }
    switch (event.type) {
      case TraceEventType::kArrive: ++waiting; break;
      case TraceEventType::kAdmit:
        --waiting;
        ++resident;
        ++admitted;
        break;
      case TraceEventType::kPreempt:
        --resident;
        ++waiting;
        break;
      case TraceEventType::kFinish: --resident; break;
      default: break;
    }
  }
  return blocked;
}

TEST(PagedGoldenTest, PressuredCellExercisesEveryPressureMechanism) {
  const SweepPoint pressured = paged_golden_points().back();
  ASSERT_EQ(pressured.label, kPressuredLabel);
  ASSERT_EQ(pressured.scenario.eviction, EvictionPolicy::kPreemptNewest);
  ASSERT_EQ(pressured.scenario.scheduler.admission.policy, "fifo");
  ServingScenario traced = pressured.scenario;
  traced.trace.enabled = true;
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(traced, *pressured.requests, nullptr, &trace);
  EXPECT_GT(registry_counter(metrics, "kv.cached_blocks_reclaimed_total"), 0)
      << "no cached prefix block was reclaimed under pressure";
  EXPECT_GT(metrics.counters.preemptions_recompute, 0)
      << "no recompute preemption fired";
  EXPECT_GT(head_of_line_blocked_steps(trace.events(),
                                       pressured.scenario.scheduler),
            0)
      << "no head-of-line admission probe failed";
}

// Regenerates the kPagedGoldens table (see UPDATE PROCEDURE above).
TEST(PagedGoldenTest, DISABLED_PrintPagedGoldenValues) {
  for (const SweepPoint& point : paged_golden_points()) {
    const ServingMetrics metrics =
        run_serving(point.scenario, *point.requests);
    std::printf(
        "    {\"%s\", %lld, %lld, %lld, %lld, %lld, %lld, %.17g, %.17g, "
        "%.17g, %.17g, %.17g},\n",
        point.label.c_str(), static_cast<long long>(metrics.total_steps),
        static_cast<long long>(metrics.preemptions),
        static_cast<long long>(
            registry_counter(metrics, "kv.blocks_allocated_total")),
        static_cast<long long>(
            registry_counter(metrics, "kv.cached_blocks_reclaimed_total")),
        static_cast<long long>(metrics.counters.prefix_cow_blocks),
        static_cast<long long>(metrics.counters.prefix_hit_tokens),
        metrics.kv_internal_fragmentation, metrics.ttft.p50,
        metrics.ttft.p99, metrics.tpot.p50, metrics.tpot.p99);
  }
}

}  // namespace
}  // namespace cimtpu::serving
