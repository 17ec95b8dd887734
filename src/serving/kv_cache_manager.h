#pragma once
// Block-granular (paged) KV-cache allocator with ref-counted prefix
// sharing, against a chip's memory capacity.
//
// Under continuous batching the KV cache — not compute — usually caps how
// many requests can decode concurrently: each resident sequence pins
// 2 * kv_len * d_model * dtype_bytes per layer (models::kv_cache_bytes_
// per_layer).  Real engines do not reserve that footprint contiguously:
// vLLM's PagedAttention (Kwon et al., SOSP'23) carves the budget into
// fixed-size token BLOCKS so sequences grow a block at a time with no
// external fragmentation, and SGLang's RadixAttention shares the blocks
// of a common prompt prefix across requests.  This manager models both:
//
//   * PAGING — every mapping is ceil(tokens / block_tokens) blocks; the
//     capacity is an integer number of blocks; growth allocates a new
//     block only when a sequence crosses a block boundary.  With
//     block_tokens = 1 the accounting reduces exactly to the historical
//     contiguous per-token model (the compatibility contract the golden
//     pins run under).
//   * REF-COUNTED PREFIX CACHING (opt-in) — a prefix index keyed on
//     (prefix id, block index) maps the FULL blocks of a shared prompt
//     prefix to one physical block; requests with the same prefix map the
//     same blocks (refcount++) and skip prefilling the covered tokens.
//     Released prefix blocks stay CACHED (refcount 0, still occupying
//     capacity, still hittable) until allocation pressure reclaims them
//     in LRU order.  A shared partial TAIL block (prefix_len not a block
//     multiple) is served copy-on-write: the prefix tokens are reused but
//     the divergence point is inside the block, so the sharer gets a
//     private copy.  The copy is made at admission — divergence is
//     certain (every request appends at least one token past the prefix)
//     — which is observationally identical to copying lazily at the first
//     divergent write.
//
// The manager gates admission, implements the eviction side of every
// preemption policy (recompute victims drop their blocks outright, swap
// victims move them to a modeled host pool and restore them later over
// PCIe), and keeps incremental victim-order indices so
// `pick_eviction_victim` never rescans the resident set.  It is pure
// bookkeeping — deterministic and allocation-cheap — so million-request
// streams stay fast.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/math_util.h"
#include "common/units.h"
#include "models/transformer.h"

namespace cimtpu::serving {

class MetricsRegistry;

/// What to do when a resident request cannot grow its KV cache.
enum class EvictionPolicy {
  kNone,            ///< never evict; admission simply blocks until releases
  kPreemptNewest,   ///< preempt the most recently admitted request
                    ///< (vLLM's recompute policy: its KV is dropped and the
                    ///< request re-queues from scratch)
  kSwapToHost,      ///< newest victim, but its KV blocks cross PCIe into a
                    ///< modeled host pool and are restored on re-admission —
                    ///< prompt tokens are never recomputed
  kPriorityVictim,  ///< evict the lowest-priority resident request,
                    ///< breaking ties by largest KV footprint (recompute).
                    ///< The oldest resident is exempt — a forward-progress
                    ///< guarantee, else the most-progressed low-priority
                    ///< sequence is reset every pressure cycle and starves
};

std::string eviction_policy_name(EvictionPolicy policy);

class KvCacheManager {
 public:
  /// `capacity` is the device byte budget available for KV blocks; it is
  /// floored to whole blocks of `block_tokens * bytes_per_token` bytes.
  /// `bytes_per_token` is the whole-model footprint of one cached token.
  /// `host_capacity` bounds the kSwapToHost pool; swap-outs that would
  /// overflow it fail and the caller falls back to recompute.
  /// `enable_prefix_cache` turns on the prefix index (off by default: the
  /// historical behaviour, and the mode the golden pins freeze).
  KvCacheManager(Bytes capacity, Bytes bytes_per_token,
                 EvictionPolicy policy = EvictionPolicy::kPreemptNewest,
                 Bytes host_capacity = 1024 * GiB,
                 std::int64_t block_tokens = 1,
                 bool enable_prefix_cache = false);

  /// Whole-model KV byte budget for a `chips`-way pipeline over chips with
  /// `chip_hbm_capacity` of HBM each.  Sized so the BOTTLENECK stage
  /// (ceil(layers/chips) layers) fits its weights plus its layer share of
  /// every admitted token in one chip's HBM; for even layer splits this
  /// reduces to chips * HBM - weights.
  static Bytes hbm_kv_budget(const models::TransformerConfig& model,
                             Bytes chip_hbm_capacity, int chips);

  /// Whole-model KV bytes pinned per cached token.
  static Bytes token_bytes(const models::TransformerConfig& model);

  /// What an admission's prefix lookup found (all zero when the cache is
  /// disabled or the request carries no prefix tag).
  struct AdmitOutcome {
    std::int64_t lookup_tokens = 0;  ///< prefix tokens eligible for reuse
    std::int64_t prefix_hit_tokens = 0;  ///< leading prompt tokens whose KV
                                         ///< was reused (prefill starts here)
    std::int64_t shared_blocks = 0;  ///< mappings served by refcount++ on an
                                     ///< existing block (blocks saved)
    std::int64_t cow_blocks = 0;     ///< private copies of a shared partial
                                     ///< tail block (copy-on-write)
  };

  /// Reserves `tokens` worth of KV blocks for a new request.  Returns
  /// false (and reserves nothing) when it does not fit even after
  /// reclaiming cached prefix blocks; the caller keeps the request queued.
  /// `priority` feeds kPriorityVictim selection (larger = more important).
  /// With the prefix cache enabled and `prefix_id >= 0`, the first
  /// `prefix_len` tokens of the `prompt_len`-token prompt are looked up in
  /// the prefix index: hit blocks are mapped by reference instead of
  /// allocated, and `outcome->prefix_hit_tokens` tells the caller how many
  /// leading prompt tokens need no prefill (always capped at
  /// prompt_len - 1 so the final prompt token is recomputed for logits).
  /// Missed full prefix blocks are registered so later requests can share
  /// them once this request's prefill has computed their contents.
  bool try_admit(std::int64_t request_id, std::int64_t tokens,
                 std::int64_t priority = 0, std::int64_t prefix_id = -1,
                 std::int64_t prefix_len = 0, std::int64_t prompt_len = 0,
                 AdmitOutcome* outcome = nullptr);

  /// Grows a resident request by `tokens` (one per decode step).  A new
  /// block is consumed only when the growth crosses a block boundary.
  /// Returns false when the growth does not fit; the caller decides
  /// whether to evict (see `pick_eviction_victim`).
  bool try_grow(std::int64_t request_id, std::int64_t tokens = 1);

  /// Frees a request's device blocks (finished or preempted-for-
  /// recompute).  Shared prefix blocks lose one reference; fully released
  /// computed prefix blocks stay cached for future hits.
  void release(std::int64_t request_id);

  /// Moves a resident request's blocks device -> host pool.  Returns false
  /// (and moves nothing) when the host pool cannot hold them.  Shared
  /// prefix blocks are privatized on the way out (the host copy is whole).
  bool try_swap_out(std::int64_t request_id);

  /// Moves a swapped request's blocks host -> device (as private blocks —
  /// its KV returns over PCIe, not through the prefix index).  Returns
  /// false when the device budget cannot hold them; the request stays
  /// swapped.  On success the request counts as the newest admission.
  bool try_swap_in(std::int64_t request_id);

  /// Tells the manager how many leading prompt tokens of `request_id` have
  /// been prefilled, so prefix blocks this request registered become
  /// hittable once their contents exist.  No-op bookkeeping when the
  /// prefix cache is disabled.
  void note_prefilled(std::int64_t request_id, std::int64_t computed_tokens);

  // --- Fault injection / recovery (serving/fault.h) --------------------------

  /// Drops every block `request_id` holds — device blocks when resident
  /// (exact release() accounting), host-pool blocks when swapped out — as
  /// a FAULT, not a lifecycle release: the blocks' contents are lost, and
  /// the drop counts in `blocks_invalidated_total`.  Returns the number
  /// of blocks invalidated; 0 when the request holds nothing.
  std::int64_t invalidate_blocks(std::int64_t request_id);

  /// Re-materializes a RESIDENT request's device blocks from a host
  /// shadow copy after a kv-loss fault.  Models a write-through backup:
  /// succeeds when the host pool could hold the entry's blocks alongside
  /// the current swap occupancy; the device mapping is unchanged (lost
  /// blocks are re-filled in place) and the caller charges the re-fetch
  /// PCIe traffic (entry blocks * block_bytes).  Returns false — and the
  /// caller falls back to recompute — when the shadow does not fit or
  /// the request is not resident.  Counts in `blocks_restored_total`.
  bool restore_from_host(std::int64_t request_id);

  /// Reclaims EVERY cached (refcount-0) prefix block — a device failure
  /// wipes their contents, so they must stop being hittable.  Returns
  /// the number of blocks dropped (counted as invalidated, not as
  /// pressure reclaims).
  std::int64_t drop_cached_blocks();

  /// Graceful degradation: while paused, admissions neither hit nor
  /// register prefix blocks (existing shared mappings are untouched).
  void set_prefix_admission_paused(bool paused) {
    prefix_admission_paused_ = paused;
  }
  bool prefix_admission_paused() const { return prefix_admission_paused_; }

  /// Lifetime blocks dropped by faults (invalidate_blocks +
  /// drop_cached_blocks) and re-materialized from the host shadow.
  std::int64_t blocks_invalidated_total() const {
    return blocks_invalidated_total_;
  }
  std::int64_t blocks_restored_total() const { return blocks_restored_total_; }

  /// Would appending one token to `request_id` consume a new block?  The
  /// scheduler's incremental pending-growth aggregate is built on this.
  bool grow_needs_block(std::int64_t request_id) const;

  // --- Dense slot handles (hot path) -----------------------------------------
  // Entries live in a dense slot array with a free list; the id map only
  // resolves ids to slots.  A slot is stable from admission (or swap-in)
  // until the entry leaves the device (release / swap-out / invalidate),
  // then recycled.  The scheduler caches one slot per resident sequence so
  // per-decode-step grow checks index a flat array instead of hashing the
  // request id — the single hottest lookup in the simulator.

  /// Slot of a RESIDENT request (CHECKs that it is resident).
  std::int32_t resident_slot(std::int64_t request_id) const;

  /// grow_needs_block by slot: one indexed load, no hashing.
  bool grow_needs_block_slot(std::int32_t slot) const {
    return entry_slots_[static_cast<std::size_t>(slot)].tokens %
               block_tokens_ ==
           0;
  }

  /// try_grow by slot — identical semantics and accounting.  Defined
  /// in-class so the decode hot loop (one grow per decoder per step — the
  /// most-called mutation in the simulator) inlines it instead of paying a
  /// cross-TU call.
  bool try_grow_slot(std::int32_t slot, std::int64_t tokens = 1) {
    CIMTPU_CHECK(tokens >= 0);
    Entry& entry = entry_slots_[static_cast<std::size_t>(slot)];
    // At block size 1 every token is its own block, so the rounded-block
    // delta is just `tokens` — the common configuration skips both
    // ceil-divisions.
    const std::int64_t new_blocks =
        block_tokens_ == 1
            ? tokens
            : blocks_for_tokens(entry.tokens + tokens) - entry_blocks(entry);
    if (new_blocks > 0) {
      if (!fits_blocks(new_blocks)) return false;
      const std::int64_t free_now = capacity_blocks_ - occupied_blocks();
      if (new_blocks > free_now) reclaim_cached(new_blocks - free_now);
      entry.private_blocks += new_blocks;
      private_used_ += new_blocks;
      blocks_allocated_total_ += new_blocks;
      entry_block_tokens_ += new_blocks * block_tokens_;
    }
    entry.tokens += tokens;
    mapped_tokens_ += tokens;
    return true;
  }

  /// note_prefilled by slot — identical semantics.
  void note_prefilled_slot(std::int32_t slot, std::int64_t computed_tokens);

  /// Mapped KV tokens of the entry in `slot` (hot-path mirror of
  /// resident_tokens).
  std::int64_t slot_tokens(std::int32_t slot) const {
    return entry_slots_[static_cast<std::size_t>(slot)].tokens;
  }

  /// Chooses the request to preempt under the configured policy, excluding
  /// `protect` (the request currently being grown).  Returns -1 when
  /// nothing can be evicted (empty, policy kNone, or only `protect`
  /// resident).  Victim selection scans the resident set (bounded by max
  /// batch); admission recency comes from the incremental admit-order
  /// index.  The caller must release/swap the victim and re-queue it.
  std::int64_t pick_eviction_victim(std::int64_t protect) const;

  // --- Bulk decode growth (hot path) -----------------------------------------
  // A decode step grows every continuing decoder by one token.  At block
  // size 1 each grow allocates exactly one block, so when the device has
  // room for `grows` more blocks outright (no reclaim, no failure), the
  // per-grow capacity checks and global accounting collapse: the caller
  // applies grow_slot_unit_nocheck per entry and one commit_bulk_growth
  // for the step.  Releases interleaved by the caller only free blocks, so
  // the precheck is conservative and the final state is bit-identical to
  // `grows` individual try_grow_slot(slot, 1) calls.

  /// True when `grows` single-block grows are guaranteed to succeed
  /// without reclaiming cached prefix blocks.
  bool can_bulk_grow(std::int64_t grows) const {
    return block_tokens_ == 1 &&
           referenced_blocks() + grows <= capacity_blocks_ &&
           occupied_blocks() + grows <= capacity_blocks_;
  }
  /// `grows` one-token, one-block grows of `slot` with all capacity checks
  /// and global rollups hoisted to can_bulk_grow / commit_bulk_growth.
  void grow_slot_unit_nocheck(std::int32_t slot, std::int64_t grows = 1) {
    Entry& entry = entry_slots_[static_cast<std::size_t>(slot)];
    entry.tokens += grows;
    entry.private_blocks += grows;
  }
  /// Applies the global accounting for `grows` unit grows in one shot.
  void commit_bulk_growth(std::int64_t grows) {
    private_used_ += grows;
    blocks_allocated_total_ += grows;
    entry_block_tokens_ += grows * block_tokens_;
    mapped_tokens_ += grows;
  }

  bool resident(std::int64_t request_id) const {
    return entries_.count(request_id) > 0;
  }
  bool swapped(std::int64_t request_id) const {
    return host_entries_.count(request_id) > 0;
  }
  std::int64_t resident_tokens(std::int64_t request_id) const;
  std::int64_t swapped_tokens(std::int64_t request_id) const;
  std::size_t resident_count() const { return entries_.size(); }
  std::size_t swapped_count() const { return host_entries_.size(); }

  // --- Block-level accounting ------------------------------------------------
  std::int64_t block_tokens() const { return block_tokens_; }
  Bytes block_bytes() const { return block_bytes_; }
  bool prefix_cache_enabled() const { return enable_prefix_cache_; }
  std::int64_t blocks_for_tokens(std::int64_t tokens) const {
    return ceil_div(tokens, block_tokens_);
  }
  std::int64_t capacity_blocks() const { return capacity_blocks_; }
  std::int64_t host_capacity_blocks() const { return host_capacity_blocks_; }
  /// Physical blocks in use, INCLUDING cached (refcount-0) prefix blocks.
  std::int64_t occupied_blocks() const {
    return private_used_ + static_cast<std::int64_t>(shared_blocks_.size());
  }
  /// Cached prefix blocks: refcount 0, reclaimable on demand.
  std::int64_t cached_block_count() const {
    return static_cast<std::int64_t>(cached_lru_.size());
  }
  /// Blocks some resident request currently references.
  std::int64_t referenced_blocks() const {
    return occupied_blocks() - cached_block_count();
  }
  /// Could `blocks` more blocks be allocated right now (reclaiming cached
  /// prefix blocks if necessary)?
  bool fits_blocks(std::int64_t blocks) const {
    return referenced_blocks() + blocks <= capacity_blocks_;
  }
  /// Shared (prefix) block mappings held by `request_id` — test
  /// introspection for refcount assertions.
  std::int64_t shared_block_count(std::int64_t request_id) const;
  /// Last-block waste across resident mappings: 1 - mapped_tokens /
  /// mapped_block_tokens, in [0, 1).  Always 0 at block_tokens = 1.
  double internal_fragmentation() const {
    return entry_block_tokens_ == 0
               ? 0.0
               : 1.0 - static_cast<double>(mapped_tokens_) /
                           static_cast<double>(entry_block_tokens_);
  }

  /// Cumulative device blocks allocated over the manager's lifetime
  /// (admission reservations, decode growth, swap-ins; prefix-shared
  /// mappings reuse a block and do not count).  Monotone — per-step churn
  /// is the delta between two reads.
  std::int64_t blocks_allocated_total() const {
    return blocks_allocated_total_;
  }
  /// Cumulative cached (refcount-0) prefix blocks reclaimed under
  /// allocation pressure.  Monotone.
  std::int64_t cached_blocks_reclaimed_total() const {
    return cached_blocks_reclaimed_total_;
  }

  /// Publishes capacity/occupancy/churn gauges and counters into
  /// `registry` under "kv.*" names (serving/obs_registry.h).
  void publish(MetricsRegistry* registry) const;

  Bytes used() const {
    return block_bytes_ * static_cast<double>(referenced_blocks());
  }
  Bytes host_used() const {
    return block_bytes_ * static_cast<double>(host_used_blocks_);
  }
  Bytes capacity() const { return capacity_; }
  Bytes host_capacity() const { return host_capacity_; }
  Bytes bytes_per_token() const { return bytes_per_token_; }
  EvictionPolicy policy() const { return policy_; }

  /// Accounting invariant for tests: per-entry block counts match their
  /// token counts, refcounts match a full recount (and are >= 1 for every
  /// mapped shared block), cached blocks are exactly the computed
  /// refcount-0 ones, the prefix index and victim-order indices are
  /// consistent, and device/host occupancy never exceeds capacity.
  bool audit() const;

 private:
  struct Entry {
    // Field order is deliberate: the decode hot loop touches `tokens` and
    // `private_blocks` once per decoder per step (try_grow_slot), so they
    // share the entry's first cache line with `id`.
    std::int64_t id = -1;         ///< owning request (slot back-reference)
    std::int64_t tokens = 0;      ///< KV tokens mapped (reserved)
    std::int64_t private_blocks = 0;   ///< blocks owned by this entry alone
    std::int64_t admit_seq = 0;   ///< admission order for eviction policy
    std::int64_t priority = 0;    ///< larger = more important
    std::int64_t computed_tokens = 0;  ///< leading prompt tokens prefilled
    std::int64_t prefix_id = -1;
    std::int64_t prefix_len = 0;
    std::vector<std::int64_t> shared;  ///< leading shared physical block ids
  };

  struct SharedBlock {
    std::int64_t ref = 0;
    std::int64_t prefix_id = -1;
    std::int64_t block_index = 0;  ///< k: covers tokens [k*B, (k+1)*B)
    std::int64_t registrant = -1;  ///< entry whose prefill computes it
    bool computed = false;         ///< contents exist (hittable)
    std::int64_t lru_seq = -1;     ///< reclaim order while cached (ref 0)
  };

  /// Victim preference under kPriorityVictim: lowest priority first, then
  /// largest KV footprint, then newest admission, then largest id — the
  /// exact order the historical full scan produced.  Victims are found by
  /// a linear scan over the (small, bounded-by-batch) resident set at
  /// selection time; keeping a sorted index current would cost two
  /// red-black-tree updates per decoded token.
  struct VictimKey {
    std::int64_t priority;
    std::int64_t tokens;
    std::int64_t admit_seq;
    std::int64_t id;
    bool operator<(const VictimKey& other) const {
      if (priority != other.priority) return priority < other.priority;
      if (tokens != other.tokens) return tokens > other.tokens;
      if (admit_seq != other.admit_seq) return admit_seq > other.admit_seq;
      return id > other.id;
    }
  };

  std::int64_t entry_blocks(const Entry& entry) const {
    return blocks_for_tokens(entry.tokens);
  }
  void victim_index_insert(std::int64_t id, const Entry& entry);
  void victim_index_erase(std::int64_t id, const Entry& entry);
  /// Reclaims `blocks` cached prefix blocks, oldest first.  The caller
  /// must have checked fits_blocks; reclaimed blocks leave the index.
  void reclaim_cached(std::int64_t blocks);
  /// Drops one reference on a shared block; a computed block that reaches
  /// refcount 0 becomes cached, an uncomputed one is destroyed.
  void unref_shared(std::int64_t block_id);

  Bytes capacity_;
  Bytes bytes_per_token_;
  EvictionPolicy policy_;
  Bytes host_capacity_;
  std::int64_t block_tokens_;
  bool enable_prefix_cache_;
  bool prefix_admission_paused_ = false;
  Bytes block_bytes_;
  std::int64_t capacity_blocks_;
  std::int64_t host_capacity_blocks_;

  std::int64_t blocks_allocated_total_ = 0;         ///< lifetime counter
  std::int64_t cached_blocks_reclaimed_total_ = 0;  ///< lifetime counter
  std::int64_t blocks_invalidated_total_ = 0;       ///< fault drops
  std::int64_t blocks_restored_total_ = 0;          ///< host-shadow restores
  std::int64_t private_used_ = 0;      ///< device blocks owned privately
  std::int64_t host_used_blocks_ = 0;  ///< host-pool blocks
  std::int64_t mapped_tokens_ = 0;     ///< sum of resident entry tokens
  std::int64_t entry_block_tokens_ = 0;  ///< sum of resident blocks * B
  std::int64_t next_seq_ = 0;
  std::int64_t next_block_id_ = 0;
  std::int64_t next_lru_seq_ = 0;
  /// Acquires a dense slot for `entry` and indexes it; returns the slot.
  std::int32_t slot_insert(std::int64_t request_id, Entry&& entry);
  /// Unlinks the entry in `slot` from the id map and recycles the slot.
  void slot_erase(std::int32_t slot);
  Entry& slot_entry(std::int32_t slot) {
    return entry_slots_[static_cast<std::size_t>(slot)];
  }
  const Entry& slot_entry(std::int32_t slot) const {
    return entry_slots_[static_cast<std::size_t>(slot)];
  }

  std::vector<Entry> entry_slots_;        ///< dense device entries (slot API)
  std::vector<std::int32_t> free_slots_;  ///< recycled entry_slots_ indices
  std::unordered_map<std::int64_t, std::int32_t> entries_;  ///< id -> slot
  std::unordered_map<std::int64_t, Entry> host_entries_;  ///< swapped out
  std::unordered_map<std::int64_t, SharedBlock> shared_blocks_;  ///< by id
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t>
      prefix_index_;  ///< (prefix_id, block_index) -> physical block id
  std::map<std::int64_t, std::int64_t> cached_lru_;  ///< lru_seq -> block id
  std::map<std::int64_t, std::int64_t> tail_donors_;  ///< prefix_id -> entry
                                                      ///< owning the partial
                                                      ///< tail block's tokens
  std::map<std::int64_t, std::int64_t> admit_order_;  ///< admit_seq -> id
};

}  // namespace cimtpu::serving
