#include "serving/kv_cache_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"
#include "serving/obs_registry.h"

namespace cimtpu::serving {

std::string eviction_policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kNone: return "none";
    case EvictionPolicy::kPreemptNewest: return "preempt_newest";
    case EvictionPolicy::kSwapToHost: return "swap_to_host";
    case EvictionPolicy::kPriorityVictim: return "priority_victim";
  }
  return "?";
}

KvCacheManager::KvCacheManager(Bytes capacity, Bytes bytes_per_token,
                               EvictionPolicy policy, Bytes host_capacity,
                               std::int64_t block_tokens,
                               bool enable_prefix_cache)
    : capacity_(capacity),
      bytes_per_token_(bytes_per_token),
      policy_(policy),
      host_capacity_(host_capacity),
      block_tokens_(block_tokens),
      enable_prefix_cache_(enable_prefix_cache) {
  CIMTPU_CONFIG_CHECK(capacity > 0, "KV budget must be positive, got "
                                        << format_bytes(capacity));
  CIMTPU_CONFIG_CHECK(bytes_per_token > 0,
                      "KV token bytes must be positive, got "
                          << format_bytes(bytes_per_token));
  CIMTPU_CONFIG_CHECK(host_capacity >= 0,
                      "host pool capacity must be >= 0, got "
                          << format_bytes(host_capacity));
  CIMTPU_CONFIG_CHECK(block_tokens >= 1,
                      "kv_block_tokens must be >= 1, got " << block_tokens);
  block_bytes_ = bytes_per_token_ * static_cast<double>(block_tokens_);
  capacity_blocks_ = static_cast<std::int64_t>(capacity_ / block_bytes_);
  host_capacity_blocks_ =
      static_cast<std::int64_t>(host_capacity_ / block_bytes_);
  CIMTPU_CONFIG_CHECK(capacity_blocks_ >= 1,
                      "KV budget " << format_bytes(capacity_)
                                   << " smaller than one "
                                   << block_tokens_ << "-token block ("
                                   << format_bytes(block_bytes_) << ")");
}

Bytes KvCacheManager::hbm_kv_budget(const models::TransformerConfig& model,
                                    Bytes chip_hbm_capacity, int chips) {
  CIMTPU_CONFIG_CHECK(chips >= 1, "KV budget needs >= 1 chip");
  CIMTPU_CONFIG_CHECK(model.num_layers >= chips,
                      "fewer layers than pipeline stages");
  // The bottleneck stage holds ceil(layers/chips) layers: its weights and
  // its per-layer share of every cached token must fit ONE chip's HBM.
  // The admissible whole-model KV is the bottleneck's headroom scaled by
  // the inverse of its layer share (for even splits this reduces to
  // chips * HBM - weights).
  const std::int64_t stage_layers =
      ceil_div<std::int64_t>(model.num_layers, chips);
  const Bytes stage_weights =
      model.layer_weight_bytes() * static_cast<double>(stage_layers);
  const Bytes stage_free = chip_hbm_capacity - stage_weights;
  CIMTPU_CONFIG_CHECK(stage_free > 0,
                      "model '" << model.name << "' bottleneck stage ("
                                << stage_layers << " layers, "
                                << format_bytes(stage_weights)
                                << ") exceeds one chip's HBM over " << chips
                                << " chip(s)");
  return stage_free * static_cast<double>(model.num_layers) /
         static_cast<double>(stage_layers);
}

Bytes KvCacheManager::token_bytes(const models::TransformerConfig& model) {
  return models::kv_cache_bytes_per_layer(model, /*batch=*/1, /*kv_len=*/1) *
         static_cast<double>(model.num_layers);
}

// --- Shared block store -------------------------------------------------------

std::int32_t KvCacheManager::family_for(std::int64_t prefix_id) {
  const auto [it, inserted] = family_of_prefix_.try_emplace(
      prefix_id, static_cast<std::int32_t>(families_.size()));
  if (inserted) families_.emplace_back();
  return it->second;
}

std::int32_t KvCacheManager::new_shared_block(std::int32_t family,
                                              std::int32_t index) {
  std::int32_t block_id;
  if (!free_blocks_.empty()) {
    block_id = free_blocks_.back();
    free_blocks_.pop_back();
  } else {
    block_id = static_cast<std::int32_t>(blocks_.size());
    blocks_.emplace_back();
  }
  SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
  block = SharedBlock{};
  block.ref = 1;
  block.family = family;
  block.index = index;
  families_[static_cast<std::size_t>(family)]
      .blocks[static_cast<std::size_t>(index)] = block_id;
  return block_id;
}

void KvCacheManager::destroy_block(std::int32_t block_id) {
  SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
  families_[static_cast<std::size_t>(block.family)]
      .blocks[static_cast<std::size_t>(block.index)] = -1;
  block.family = -1;
  free_blocks_.push_back(block_id);
}

void KvCacheManager::lru_append(std::int32_t block_id) {
  SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
  block.lru_prev = lru_newest_;
  block.lru_next = -1;
  if (lru_newest_ >= 0) {
    blocks_[static_cast<std::size_t>(lru_newest_)].lru_next = block_id;
  } else {
    lru_oldest_ = block_id;
  }
  lru_newest_ = block_id;
  ++cached_blocks_;
}

void KvCacheManager::lru_unlink(std::int32_t block_id) {
  SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
  if (block.lru_prev >= 0) {
    blocks_[static_cast<std::size_t>(block.lru_prev)].lru_next =
        block.lru_next;
  } else {
    lru_oldest_ = block.lru_next;
  }
  if (block.lru_next >= 0) {
    blocks_[static_cast<std::size_t>(block.lru_next)].lru_prev =
        block.lru_prev;
  } else {
    lru_newest_ = block.lru_prev;
  }
  block.lru_prev = block.lru_next = -1;
  --cached_blocks_;
}

void KvCacheManager::reclaim_cached(std::int64_t blocks) {
  cached_blocks_reclaimed_total_ += blocks;
  for (std::int64_t i = 0; i < blocks; ++i) {
    const std::int32_t block_id = lru_oldest_;
    CIMTPU_CHECK(block_id >= 0);
    lru_unlink(block_id);
    destroy_block(block_id);
  }
}

void KvCacheManager::unref_shared(std::int32_t block_id) {
  SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
  CIMTPU_CHECK(block.ref >= 1);
  if (--block.ref > 0) return;
  if (block.computed) {
    // Fully released but computed: stays cached (and hittable) until
    // allocation pressure reclaims it, LRU order.
    lru_append(block_id);
  } else {
    // The registrant died before prefilling it; the contents never
    // existed, so the block (and its index entry) is useless.
    destroy_block(block_id);
  }
}

// --- Resident entry slots -----------------------------------------------------

std::int32_t KvCacheManager::slot_insert(std::int64_t request_id) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(entry_slots_.size());
    entry_slots_.emplace_back();
  }
  Entry& entry = slot_entry(slot);
  std::vector<std::int32_t> shared = std::move(entry.shared);  // keep capacity
  entry = Entry{};
  entry.shared = std::move(shared);
  entry.id = request_id;
  entry.admit_seq = next_seq_++;
  // Newest admission: append to the admission-order list.
  entry.older = newest_slot_;
  if (newest_slot_ >= 0) {
    slot_entry(newest_slot_).newer = slot;
  } else {
    oldest_slot_ = slot;
  }
  newest_slot_ = slot;
  if (spare_id_nodes_.empty()) {
    entries_.emplace(request_id, slot);
  } else {
    IdMap::node_type node = std::move(spare_id_nodes_.back());
    spare_id_nodes_.pop_back();
    node.key() = request_id;
    node.mapped() = slot;
    entries_.insert(std::move(node));
  }
  return slot;
}

void KvCacheManager::slot_erase(std::int32_t slot) {
  Entry& entry = slot_entry(slot);
  spare_id_nodes_.push_back(entries_.extract(entry.id));
  if (entry.older >= 0) {
    slot_entry(entry.older).newer = entry.newer;
  } else {
    oldest_slot_ = entry.newer;
  }
  if (entry.newer >= 0) {
    slot_entry(entry.newer).older = entry.older;
  } else {
    newest_slot_ = entry.older;
  }
  entry.id = -1;
  entry.shared.clear();
  free_slots_.push_back(slot);
}

std::int32_t KvCacheManager::resident_slot(std::int64_t request_id) const {
  const auto it = entries_.find(request_id);
  CIMTPU_CHECK(it != entries_.end());
  return it->second;
}

void KvCacheManager::unmap_entry(std::int32_t slot) {
  const Entry& entry = slot_entry(slot);
  for (std::int32_t block_id : entry.shared) unref_shared(block_id);
  private_used_ -= entry.private_blocks;
  mapped_tokens_ -= entry.tokens;
  entry_block_tokens_ -= entry_blocks(entry) * block_tokens_;
  if (entry.family >= 0) {
    PrefixFamily& family = families_[static_cast<std::size_t>(entry.family)];
    if (family.tail_donor == slot) family.tail_donor = -1;
  }
}

// --- Lifecycle ----------------------------------------------------------------

bool KvCacheManager::try_admit(std::int64_t request_id, std::int64_t tokens,
                               std::int64_t priority, std::int64_t prefix_id,
                               std::int64_t prefix_len,
                               std::int64_t prompt_len,
                               AdmitOutcome* outcome) {
  CIMTPU_CHECK(entries_.count(request_id) == 0);
  CIMTPU_CHECK(host_entries_.count(request_id) == 0);
  CIMTPU_CHECK(tokens >= 0);
  CIMTPU_CHECK(prefix_len >= 0 && prefix_len <= std::max<std::int64_t>(
                                                    prompt_len, 0));
  if (outcome != nullptr) *outcome = AdmitOutcome{};

  const std::int64_t total_blocks = blocks_for_tokens(tokens);

  // --- Plan the prefix reuse (no block state mutated yet) --------------------
  // Eligibility requires the reservation to cover the whole prompt (every
  // scheduler reserve does: prompt + 1 at minimum), so shared and
  // registered prefix blocks always lie within the entry's own mapping.
  const bool prefix_eligible = enable_prefix_cache_ &&
                               !prefix_admission_paused_ && prefix_id >= 0 &&
                               prefix_len > 0 && prompt_len > 1 &&
                               tokens >= prompt_len;
  std::int32_t family = -1;
  std::int64_t full_blocks = 0;
  std::int64_t hits = 0;  // contiguous leading full blocks reused
  std::int64_t cached_hits = 0;
  std::int64_t hit_tokens = 0;
  std::int64_t cow_blocks = 0;
  if (prefix_eligible) {
    family = family_for(prefix_id);
    const PrefixFamily& prefix = families_[static_cast<std::size_t>(family)];
    full_blocks = prefix_len / block_tokens_;
    CIMTPU_CHECK(full_blocks <= std::numeric_limits<std::int32_t>::max());
    const std::int64_t indexed = std::min<std::int64_t>(
        full_blocks, static_cast<std::int64_t>(prefix.blocks.size()));
    for (; hits < indexed; ++hits) {
      const std::int32_t block_id =
          prefix.blocks[static_cast<std::size_t>(hits)];
      if (block_id < 0) break;
      const SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
      if (!block.computed) break;  // a concurrent request is still
                                   // prefilling it; contents don't exist yet
      if (block.ref == 0) ++cached_hits;
    }
    hit_tokens = hits * block_tokens_;
    // Partial tail: prefix tokens past the last full block live inside a
    // block that also holds post-prefix content.  If a live donor with the
    // same prefix has computed through prefix_len, the sharer reuses those
    // tokens via a private COPY of the block (copy-on-write: the sharer's
    // own content diverges inside it).
    if (hits == full_blocks && prefix_len % block_tokens_ != 0 &&
        prefix.tail_donor >= 0 &&
        slot_entry(prefix.tail_donor).computed_tokens >= prefix_len) {
      cow_blocks = 1;
      hit_tokens = prefix_len;
    }
    // The final prompt token is always recomputed (real engines need its
    // logits), so prefill can never be skipped entirely.  Its KV already
    // lives in a shared block when the cap bites, so no extra allocation.
    hit_tokens = std::min(hit_tokens, prompt_len - 1);
  }

  // --- Capacity check (reclaim-aware), then commit ---------------------------
  const std::int64_t new_blocks = total_blocks - hits;
  CIMTPU_CHECK(new_blocks >= cow_blocks);
  const std::int64_t free_now = capacity_blocks_ - occupied_blocks();
  const std::int64_t reclaimable = cached_blocks_ - cached_hits;
  if (new_blocks > free_now + reclaimable) return false;

  const std::int32_t slot = slot_insert(request_id);
  Entry& entry = slot_entry(slot);
  entry.tokens = tokens;
  entry.priority = priority;
  entry.computed_tokens = hit_tokens;
  entry.family = family;
  entry.pending = static_cast<std::int32_t>(hits);
  entry.private_blocks = new_blocks;
  private_used_ += new_blocks;
  blocks_allocated_total_ += new_blocks;
  if (prefix_eligible) {
    // Reference the hit blocks first (pulls cached ones off the LRU so the
    // reclaim below can never steal a block we are about to share).
    const PrefixFamily& prefix = families_[static_cast<std::size_t>(family)];
    for (std::int64_t k = 0; k < hits; ++k) {
      const std::int32_t block_id = prefix.blocks[static_cast<std::size_t>(k)];
      SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
      if (block.ref == 0) lru_unlink(block_id);
      ++block.ref;
      entry.shared.push_back(block_id);
    }
  }
  if (new_blocks > free_now) reclaim_cached(new_blocks - free_now);

  // --- Register missed full prefix blocks so later requests can share -------
  if (prefix_eligible) {
    PrefixFamily& prefix = families_[static_cast<std::size_t>(family)];
    if (static_cast<std::int64_t>(prefix.blocks.size()) < full_blocks) {
      prefix.blocks.resize(static_cast<std::size_t>(full_blocks), -1);
    }
    for (std::int64_t k = hits; k < full_blocks; ++k) {
      // A concurrent registrant got here first; our copy stays private.
      if (prefix.blocks[static_cast<std::size_t>(k)] >= 0) continue;
      // A registered block is always a MISS, so its contents cannot exist
      // yet: note_prefilled flips it computed once this request's prefill
      // passes the block's upper boundary.
      entry.shared.push_back(
          new_shared_block(family, static_cast<std::int32_t>(k)));
      entry.private_blocks -= 1;
      private_used_ -= 1;
      CIMTPU_CHECK(entry.private_blocks >= 0);
    }
    // Volunteer as the partial-tail donor so later same-prefix admissions
    // can copy the tail's prefix tokens out of this entry's block.
    if (prefix_len % block_tokens_ != 0 && prefix.tail_donor < 0) {
      prefix.tail_donor = slot;
    }
  }

  mapped_tokens_ += entry.tokens;
  entry_block_tokens_ += entry_blocks(entry) * block_tokens_;

  if (outcome != nullptr) {
    outcome->lookup_tokens =
        prefix_eligible ? std::min(prefix_len, prompt_len - 1) : 0;
    outcome->prefix_hit_tokens = hit_tokens;
    outcome->shared_blocks = hits;
    outcome->cow_blocks = cow_blocks;
  }
  return true;
}

bool KvCacheManager::try_grow(std::int64_t request_id, std::int64_t tokens) {
  const auto it = entries_.find(request_id);
  CIMTPU_CHECK(it != entries_.end());
  return try_grow_slot(it->second, tokens);
}

void KvCacheManager::release(std::int64_t request_id) {
  const auto it = entries_.find(request_id);
  CIMTPU_CHECK(it != entries_.end());
  const std::int32_t slot = it->second;
  unmap_entry(slot);
  slot_erase(slot);
}

bool KvCacheManager::try_swap_out(std::int64_t request_id) {
  const auto it = entries_.find(request_id);
  CIMTPU_CHECK(it != entries_.end());
  const std::int32_t slot = it->second;
  const Entry& entry = slot_entry(slot);
  const std::int64_t blocks = entry_blocks(entry);
  if (host_used_blocks_ + blocks > host_capacity_blocks_) return false;
  // The host copy is whole and private: shared prefix blocks are
  // privatized on the way out (their device copies just lose a reference).
  host_entries_[request_id] =
      HostEntry{entry.tokens, entry.priority, entry.computed_tokens};
  host_used_blocks_ += blocks;
  unmap_entry(slot);
  slot_erase(slot);
  return true;
}

bool KvCacheManager::try_swap_in(std::int64_t request_id) {
  const auto it = host_entries_.find(request_id);
  CIMTPU_CHECK(it != host_entries_.end());
  const HostEntry host = it->second;
  const std::int64_t blocks = blocks_for_tokens(host.tokens);
  if (!fits_blocks(blocks)) return false;
  const std::int64_t free_now = capacity_blocks_ - occupied_blocks();
  if (blocks > free_now) reclaim_cached(blocks - free_now);
  // Re-entry counts as the newest admission, with private blocks only:
  // the KV returns over PCIe, not through the prefix index.
  Entry& entry = slot_entry(slot_insert(request_id));
  entry.tokens = host.tokens;
  entry.priority = host.priority;
  entry.computed_tokens = host.computed_tokens;
  entry.private_blocks = blocks;
  private_used_ += blocks;
  blocks_allocated_total_ += blocks;
  mapped_tokens_ += entry.tokens;
  entry_block_tokens_ += blocks * block_tokens_;
  host_used_blocks_ -= blocks;
  host_entries_.erase(it);
  return true;
}

void KvCacheManager::note_prefilled(std::int64_t request_id,
                                    std::int64_t computed_tokens) {
  const auto it = entries_.find(request_id);
  CIMTPU_CHECK(it != entries_.end());
  note_prefilled_slot(it->second, computed_tokens);
}

void KvCacheManager::note_prefilled_slot(std::int32_t slot,
                                         std::int64_t computed_tokens) {
  Entry& entry = slot_entry(slot);
  entry.computed_tokens = std::min(
      std::max(entry.computed_tokens, computed_tokens), entry.tokens);
  // Blocks this entry registered become hittable once the prefill has
  // passed their upper token boundary; they wait in block-index order.
  const std::int32_t registered = static_cast<std::int32_t>(entry.shared.size());
  for (; entry.pending < registered; ++entry.pending) {
    SharedBlock& block = blocks_[static_cast<std::size_t>(
        entry.shared[static_cast<std::size_t>(entry.pending)])];
    if ((block.index + 1) * block_tokens_ > entry.computed_tokens) break;
    block.computed = true;
  }
}

std::int64_t KvCacheManager::invalidate_blocks(std::int64_t request_id) {
  const auto it = entries_.find(request_id);
  if (it != entries_.end()) {
    const std::int64_t blocks = entry_blocks(slot_entry(it->second));
    blocks_invalidated_total_ += blocks;
    release(request_id);
    return blocks;
  }
  const auto host_it = host_entries_.find(request_id);
  if (host_it != host_entries_.end()) {
    const std::int64_t blocks = blocks_for_tokens(host_it->second.tokens);
    blocks_invalidated_total_ += blocks;
    host_used_blocks_ -= blocks;
    host_entries_.erase(host_it);
    return blocks;
  }
  return 0;
}

bool KvCacheManager::restore_from_host(std::int64_t request_id) {
  const auto it = entries_.find(request_id);
  if (it == entries_.end()) return false;
  const std::int64_t blocks = entry_blocks(slot_entry(it->second));
  // The shadow is a transient host-side checkpoint slot: it must fit
  // next to the blocks the swap pool currently holds.
  if (host_used_blocks_ + blocks > host_capacity_blocks_) return false;
  blocks_restored_total_ += blocks;
  return true;
}

std::int64_t KvCacheManager::drop_cached_blocks() {
  const std::int64_t dropped = cached_blocks_;
  while (lru_oldest_ >= 0) {
    const std::int32_t block_id = lru_oldest_;
    lru_unlink(block_id);
    destroy_block(block_id);
  }
  blocks_invalidated_total_ += dropped;
  return dropped;
}

bool KvCacheManager::grow_needs_block(std::int64_t request_id) const {
  const auto it = entries_.find(request_id);
  CIMTPU_CHECK(it != entries_.end());
  return grow_needs_block_slot(it->second);
}

std::int64_t KvCacheManager::resident_tokens(std::int64_t request_id) const {
  const auto it = entries_.find(request_id);
  return it == entries_.end() ? 0 : slot_entry(it->second).tokens;
}

std::int64_t KvCacheManager::swapped_tokens(std::int64_t request_id) const {
  const auto it = host_entries_.find(request_id);
  return it == host_entries_.end() ? 0 : it->second.tokens;
}

std::int64_t KvCacheManager::shared_block_count(
    std::int64_t request_id) const {
  const auto it = entries_.find(request_id);
  return it == entries_.end()
             ? 0
             : static_cast<std::int64_t>(slot_entry(it->second).shared.size());
}

std::int64_t KvCacheManager::pick_eviction_victim(std::int64_t protect) const {
  if (policy_ == EvictionPolicy::kNone) return -1;
  if (policy_ == EvictionPolicy::kPreemptNewest ||
      policy_ == EvictionPolicy::kSwapToHost) {
    // Newest admission first: the admission-order list's tail, with at
    // most one protect skip.
    for (std::int32_t slot = newest_slot_; slot >= 0;
         slot = slot_entry(slot).older) {
      if (slot_entry(slot).id != protect) return slot_entry(slot).id;
    }
    return -1;
  }
  // kPriorityVictim.  Forward-progress guarantee: the oldest resident is
  // exempt.  Without it, the largest-KV tie-break livelocks under
  // recompute — the most-progressed low-priority sequence is always the
  // largest, so it is reset every pressure cycle and never finishes.
  std::int64_t eligible = static_cast<std::int64_t>(entries_.size());
  if (protect >= 0 && entries_.count(protect) > 0) --eligible;
  if (eligible <= 0) return -1;
  std::int64_t exempt = -1;
  if (eligible >= 2) {  // a sole candidate stays evictable
    for (std::int32_t slot = oldest_slot_; slot >= 0;
         slot = slot_entry(slot).newer) {
      if (slot_entry(slot).id != protect) {
        exempt = slot_entry(slot).id;
        break;
      }
    }
  }
  // Linear min-scan with the VictimKey order: the resident set is bounded
  // by max batch, so this beats keeping a sorted index current (which
  // would charge two tree updates to every decoded token).  The order is
  // a strict total order (id tie-break), so the minimum is unique and the
  // scan order is immaterial.
  std::int64_t best_id = -1;
  VictimKey best{};
  for (std::int32_t slot = oldest_slot_; slot >= 0;
       slot = slot_entry(slot).newer) {
    const Entry& entry = slot_entry(slot);
    if (entry.id == protect || entry.id == exempt) continue;
    const VictimKey key{entry.priority, entry.tokens, entry.admit_seq,
                        entry.id};
    if (best_id < 0 || key < best) {
      best = key;
      best_id = entry.id;
    }
  }
  return best_id;
}

bool KvCacheManager::audit() const {
  // --- Slot storage: id map and free list partition the slot array -----------
  if (entries_.size() + free_slots_.size() != entry_slots_.size()) {
    return false;
  }
  for (std::int32_t slot : free_slots_) {
    if (slot < 0 || static_cast<std::size_t>(slot) >= entry_slots_.size() ||
        slot_entry(slot).id != -1) {
      return false;
    }
  }
  // --- Admission-order list: every resident once, admit_seq ascending -------
  std::size_t listed = 0;
  std::int32_t previous = -1;
  for (std::int32_t slot = oldest_slot_; slot >= 0;
       slot = slot_entry(slot).newer) {
    if (static_cast<std::size_t>(slot) >= entry_slots_.size() ||
        ++listed > entries_.size()) {
      return false;
    }
    const Entry& entry = slot_entry(slot);
    const auto indexed = entries_.find(entry.id);
    if (entry.id < 0 || indexed == entries_.end() || indexed->second != slot ||
        entry.older != previous ||
        (previous >= 0 && slot_entry(previous).admit_seq >= entry.admit_seq)) {
      return false;
    }
    previous = slot;
  }
  if (listed != entries_.size() || newest_slot_ != previous) return false;
  // --- Device entries: block math and rollups --------------------------------
  std::int64_t private_sum = 0;
  std::int64_t token_sum = 0;
  std::int64_t block_token_sum = 0;
  std::vector<std::int64_t> ref_recount(blocks_.size(), 0);
  for (const auto& [id, slot] : entries_) {
    const Entry& entry = slot_entry(slot);
    if (entry.tokens < 0 || entry.private_blocks < 0) return false;
    if (entry_blocks(entry) !=
        static_cast<std::int64_t>(entry.shared.size()) +
            entry.private_blocks) {
      return false;
    }
    if (entry.family < -1 ||
        entry.family >= static_cast<std::int32_t>(families_.size()) ||
        (entry.family < 0 && !entry.shared.empty()) || entry.pending < 0 ||
        entry.pending > static_cast<std::int32_t>(entry.shared.size())) {
      return false;
    }
    private_sum += entry.private_blocks;
    token_sum += entry.tokens;
    block_token_sum += entry_blocks(entry) * block_tokens_;
    for (std::size_t i = 0; i < entry.shared.size(); ++i) {
      const std::int32_t block_id = entry.shared[i];
      if (block_id < 0 ||
          static_cast<std::size_t>(block_id) >= blocks_.size()) {
        return false;
      }
      const SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
      // Hits and finished registrations precede the pending ones.
      if (block.family != entry.family ||
          block.computed != (static_cast<std::int32_t>(i) < entry.pending)) {
        return false;
      }
      ++ref_recount[static_cast<std::size_t>(block_id)];
    }
  }
  if (private_sum != private_used_ || token_sum != mapped_tokens_ ||
      block_token_sum != entry_block_tokens_) {
    return false;
  }
  // --- Block store: free list, refcounts, family index -----------------------
  std::vector<bool> free(blocks_.size(), false);
  for (std::int32_t block_id : free_blocks_) {
    if (block_id < 0 || static_cast<std::size_t>(block_id) >= blocks_.size() ||
        free[static_cast<std::size_t>(block_id)] ||
        blocks_[static_cast<std::size_t>(block_id)].family != -1) {
      return false;
    }
    free[static_cast<std::size_t>(block_id)] = true;
  }
  std::int64_t live = 0;
  std::int64_t unreferenced = 0;
  for (std::size_t block_id = 0; block_id < blocks_.size(); ++block_id) {
    if (free[block_id]) continue;
    const SharedBlock& block = blocks_[block_id];
    if (block.ref != ref_recount[block_id]) return false;
    if (!block.computed && block.ref != 1) return false;  // only the
                                                          // registrant maps it
    if (block.ref == 0) ++unreferenced;
    if (block.family < 0 ||
        block.family >= static_cast<std::int32_t>(families_.size())) {
      return false;
    }
    const std::vector<std::int32_t>& index =
        families_[static_cast<std::size_t>(block.family)].blocks;
    if (block.index < 0 || static_cast<std::size_t>(block.index) >= index.size() ||
        index[static_cast<std::size_t>(block.index)] !=
            static_cast<std::int32_t>(block_id)) {
      return false;
    }
    ++live;
  }
  std::int64_t indexed = 0;
  for (std::size_t f = 0; f < families_.size(); ++f) {
    for (std::int32_t block_id : families_[f].blocks) {
      if (block_id >= 0) ++indexed;
    }
    const std::int32_t donor = families_[f].tail_donor;
    if (donor >= 0 &&
        (static_cast<std::size_t>(donor) >= entry_slots_.size() ||
         slot_entry(donor).id < 0 ||
         slot_entry(donor).family != static_cast<std::int32_t>(f))) {
      return false;
    }
  }
  if (indexed != live) return false;
  // --- LRU list: exactly the unreferenced blocks, consistently linked --------
  std::int64_t cached = 0;
  previous = -1;
  for (std::int32_t block_id = lru_oldest_; block_id >= 0;
       block_id = blocks_[static_cast<std::size_t>(block_id)].lru_next) {
    if (static_cast<std::size_t>(block_id) >= blocks_.size() ||
        ++cached > unreferenced) {
      return false;
    }
    const SharedBlock& block = blocks_[static_cast<std::size_t>(block_id)];
    if (free[static_cast<std::size_t>(block_id)] || block.ref != 0 ||
        block.lru_prev != previous) {
      return false;
    }
    previous = block_id;
  }
  if (cached != unreferenced || cached != cached_blocks_ ||
      lru_newest_ != previous) {
    return false;
  }
  if (occupied_blocks() > capacity_blocks_) return false;
  // --- Host pool -------------------------------------------------------------
  std::int64_t host_sum = 0;
  for (const auto& [id, entry] : host_entries_) {
    if (entry.tokens < 0) return false;
    host_sum += blocks_for_tokens(entry.tokens);
  }
  return host_sum == host_used_blocks_ &&
         host_used_blocks_ <= host_capacity_blocks_;
}

void KvCacheManager::publish(MetricsRegistry* registry) const {
  CIMTPU_CHECK(registry != nullptr);
  registry->set_counter("kv.capacity_blocks", capacity_blocks_);
  registry->set_counter("kv.occupied_blocks", occupied_blocks());
  registry->set_counter("kv.referenced_blocks", referenced_blocks());
  registry->set_counter("kv.cached_blocks", cached_block_count());
  registry->set_counter("kv.blocks_allocated_total", blocks_allocated_total_);
  registry->set_counter("kv.cached_blocks_reclaimed_total",
                        cached_blocks_reclaimed_total_);
  registry->set_counter("kv.host_used_blocks", host_used_blocks_);
  registry->set_counter("kv.blocks_invalidated_total",
                        blocks_invalidated_total_);
  registry->set_counter("kv.blocks_restored_total", blocks_restored_total_);
  registry->set_gauge("kv.internal_fragmentation", internal_fragmentation());
}

}  // namespace cimtpu::serving
