#include "serving/scheduler.h"

#include <algorithm>
#include <limits>

#include "common/math_util.h"
#include "common/status.h"

namespace cimtpu::serving {

void SchedulerConfig::validate() const {
  CIMTPU_CONFIG_CHECK(max_batch >= 1, "max_batch must be >= 1");
  CIMTPU_CONFIG_CHECK(max_prefill_batch >= 1, "max_prefill_batch must be >= 1");
  CIMTPU_CONFIG_CHECK(seqlen_bucket >= 1, "seqlen_bucket must be >= 1");
  CIMTPU_CONFIG_CHECK(
      prefill_chunk_tokens == 0 || prefill_chunk_tokens >= seqlen_bucket,
      "prefill_chunk_tokens (" << prefill_chunk_tokens
                               << ") must be 0 (disabled) or >= seqlen_bucket ("
                               << seqlen_bucket
                               << ") so every chunk advances its cost bucket");
  CIMTPU_CONFIG_CHECK(kv_block_tokens >= 1,
                      "kv_block_tokens must be >= 1, got " << kv_block_tokens);
  admission.validate();
}

void StepRecord::clear() {
  kind = Kind::kDecode;
  batch = 0;
  kv_lens.clear();
  chunk_lens.clear();
  prev_lens.clear();
  decode_groups.clear();
  first_token_ids.clear();
  finished_ids.clear();
  preempted_ids.clear();
  swapped_out_ids.clear();
  swapped_in_ids.clear();
  shed_ids.clear();
  swap_bytes = 0;
  chunked = false;
  batched_cost = false;
}

StepCost cost_step(StepCostCache& costs, const StepRecord& step) {
  CIMTPU_CHECK(step.batch ==
               static_cast<std::int64_t>(step.kv_lens.size()));
  StepCost total;
  const auto accumulate = [&total](const StepCost& cost, double sign) {
    total.latency += sign * cost.latency;
    total.mxu_busy_time += sign * cost.mxu_busy_time;
    total.mxu_energy += sign * cost.mxu_energy;
    total.total_energy += sign * cost.total_energy;
  };
  if (step.kind == StepRecord::Kind::kPrefill) {
    if (step.batched_cost && step.batch > 1) {
      // Batched fidelity mode (SchedulerConfig::batched_prefill_cost):
      // participants entering the step at the same (prev, chunk) shape run
      // as ONE batched prefill, sharing a single weight pass — the same
      // amortization decode batching already models.  The telescoped
      // difference is taken at the group's batch, so a chunked prompt's
      // total still telescopes to its unchunked cost at that batch.
      // Grouping by exact shape (sorted, ascending) keeps accumulation
      // order deterministic.
      std::vector<std::pair<std::int64_t, std::int64_t>>& shapes =
          costs.prefill_shape_scratch();
      shapes.clear();
      shapes.reserve(step.kv_lens.size());
      for (std::size_t i = 0; i < step.kv_lens.size(); ++i) {
        shapes.emplace_back(step.prev_lens[i], step.chunk_lens[i]);
      }
      std::sort(shapes.begin(), shapes.end());
      for (std::size_t i = 0; i < shapes.size();) {
        std::size_t j = i;
        while (j < shapes.size() && shapes[j] == shapes[i]) ++j;
        const std::int64_t group = static_cast<std::int64_t>(j - i);
        accumulate(
            costs.prefill_layer(group, shapes[i].first + shapes[i].second),
            +1.0);
        if (shapes[i].first > 0) {
          accumulate(costs.prefill_layer(group, shapes[i].first), -1.0);
        }
        i = j;
      }
      return total;
    }
    // A chunk of new prompt tokens attends over everything prefilled so
    // far, so its cost is the increment between two full-prefill shapes:
    // prefill(prev + chunk) - prefill(prev).  Prefill cost is monotone in
    // sequence length, so the difference is non-negative, and summed over
    // a prompt's chunks it telescopes to exactly the unchunked cost.
    // Each participant is costed at batch 1: the historical (pessimistic)
    // model every golden pin was recorded under — see the batched branch
    // above for the shared-weight-pass alternative.
    for (std::size_t i = 0; i < step.kv_lens.size(); ++i) {
      accumulate(costs.prefill_layer(1, step.prev_lens[i] + step.chunk_lens[i]),
                 +1.0);
      if (step.prev_lens[i] > 0) {
        accumulate(costs.prefill_layer(1, step.prev_lens[i]), -1.0);
      }
    }
  } else if (!step.decode_groups.empty()) {
    // Scheduler-built steps carry the bucketed grouping (a copy of the
    // incremental histogram, ascending): one memoized decode shape per
    // group, no per-step re-derivation.  Steady decode runs repeat the
    // same grouping step after step, so the summed cost itself is memoized
    // on the grouping (see StepCostCache::remember_decode_groups).
    if (costs.last_decode_groups_match(step.decode_groups)) {
      CIMTPU_CHECK(costs.last_decode_groups_batch() == step.batch);
      return costs.last_decode_groups_cost();
    }
    std::int64_t grouped = 0;
    for (const auto& [kv_len, batch] : step.decode_groups) {
      accumulate(costs.decode_layer(batch, kv_len), +1.0);
      grouped += batch;
    }
    CIMTPU_CHECK(grouped == step.batch);
    costs.remember_decode_groups(step.decode_groups, step.batch, total);
  } else {
    // Hand-built records (tests, external callers): derive the grouping
    // from kv_lens in the cache's reusable scratch.  Sorting ascending
    // reproduces the histogram path's accumulation order bit for bit.
    std::vector<std::int64_t>& scratch = costs.decode_group_scratch();
    scratch.clear();
    scratch.reserve(step.kv_lens.size());
    for (std::int64_t kv_len : step.kv_lens) {
      scratch.push_back(costs.bucket_up(kv_len));
    }
    std::sort(scratch.begin(), scratch.end());
    for (std::size_t i = 0; i < scratch.size();) {
      std::size_t j = i;
      while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
      accumulate(costs.decode_layer(static_cast<std::int64_t>(j - i),
                                    scratch[i]),
                 +1.0);
      i = j;
    }
  }
  return total;
}

std::int32_t ContinuousBatchScheduler::SequencePool::acquire() {
  if (!free_list.empty()) {
    const std::int32_t slot = free_list.back();
    free_list.pop_back();
    return slot;
  }
  const std::int32_t slot = static_cast<std::int32_t>(prompt_len.size());
  prompt_len.push_back(0);
  output_len.push_back(0);
  prefilled.push_back(0);
  generated.push_back(0);
  prefix_skipped.push_back(0);
  bucket.push_back(0);
  kv_slot.push_back(-1);
  request.emplace_back();
  return slot;
}

ContinuousBatchScheduler::ContinuousBatchScheduler(
    const SchedulerConfig& config, KvCacheManager* kv_cache)
    : config_(config),
      kv_cache_(kv_cache),
      admission_(make_admission_policy(config.admission)) {
  config_.validate();
  may_shed_ = admission_->may_shed();
  admit_memo_ok_ = admission_->select_is_pure();
  CIMTPU_CHECK(kv_cache != nullptr);
  CIMTPU_CONFIG_CHECK(
      kv_cache->block_tokens() == config_.kv_block_tokens,
      "SchedulerConfig::kv_block_tokens ("
          << config_.kv_block_tokens << ") disagrees with the KvCacheManager ("
          << kv_cache->block_tokens() << ")");
  CIMTPU_CONFIG_CHECK(
      kv_cache->prefix_cache_enabled() == config_.enable_prefix_cache,
      "SchedulerConfig::enable_prefix_cache disagrees with the "
      "KvCacheManager");
}

void ContinuousBatchScheduler::enqueue(const Request& request) {
  CIMTPU_CONFIG_CHECK(request.prompt_len >= 1,
                      "request " << request.id << " has empty prompt");
  CIMTPU_CONFIG_CHECK(request.output_len >= 1,
                      "request " << request.id << " generates no tokens");
  CIMTPU_CONFIG_CHECK(
      request.prefix_len >= 0 && request.prefix_len <= request.prompt_len,
      "request " << request.id << " has prefix_len " << request.prefix_len
                 << " outside [0, prompt_len=" << request.prompt_len << "]");
  admission_->on_enqueue(request, total_steps_);
  admit_blocked_ = false;
}

void ContinuousBatchScheduler::enqueue_prefilled(const Request& request) {
  CIMTPU_CONFIG_CHECK(request.prompt_len >= 1,
                      "request " << request.id << " has empty prompt");
  CIMTPU_CONFIG_CHECK(request.output_len >= 2,
                      "prefilled request "
                          << request.id
                          << " has no decode work (output_len="
                          << request.output_len << ")");
  CIMTPU_CONFIG_CHECK(
      request.prefix_id < 0,
      "prefilled request " << request.id
                           << " carries a prefix_id; disaggregated decode "
                              "admission bypasses the prefix cache");
  prefilled_pending_.insert(request.id);
  admission_->on_enqueue(request, total_steps_);
  admit_blocked_ = false;
}

std::int64_t ContinuousBatchScheduler::admission_reserve_tokens(
    const Request& request) const {
  return kv_cache_->policy() == EvictionPolicy::kNone
             ? request.prompt_len + request.output_len
             : request.prompt_len + 1;
}

void ContinuousBatchScheduler::histogram_add(std::int64_t bucket) {
  const auto it = std::lower_bound(
      decode_kv_histogram_.begin(), decode_kv_histogram_.end(), bucket,
      [](const std::pair<std::int64_t, std::int64_t>& entry,
         std::int64_t value) { return entry.first < value; });
  if (it != decode_kv_histogram_.end() && it->first == bucket) {
    ++it->second;
  } else {
    decode_kv_histogram_.insert(it, {bucket, 1});
  }
}

void ContinuousBatchScheduler::histogram_remove(std::int64_t bucket) {
  const auto it = std::lower_bound(
      decode_kv_histogram_.begin(), decode_kv_histogram_.end(), bucket,
      [](const std::pair<std::int64_t, std::int64_t>& entry,
         std::int64_t value) { return entry.first < value; });
  CIMTPU_CHECK(it != decode_kv_histogram_.end() && it->first == bucket &&
               it->second > 0);
  if (--it->second == 0) decode_kv_histogram_.erase(it);
}

void ContinuousBatchScheduler::decoder_enter(std::int32_t slot) {
  ++resident_decoders_;
  pending_growth_blocks_ += growth_blocks(slot);
  const std::int64_t bucket = decode_bucket(slot);
  pool_.bucket[slot] = bucket;
  histogram_add(bucket);
  if (trace_) {
    trace_->on_decode_enter(pool_.request[slot].id, bucket);
  }
}

void ContinuousBatchScheduler::decoder_leave(std::int32_t slot) {
  --resident_decoders_;
  pending_growth_blocks_ -= growth_blocks(slot);
  histogram_remove(pool_.bucket[slot]);
}

std::int32_t ContinuousBatchScheduler::resident_append(
    const Request& request, std::int64_t prefilled, std::int64_t generated,
    std::int64_t prefix_skipped) {
  const std::int32_t slot = pool_.acquire();
  pool_.prompt_len[slot] = request.prompt_len;
  pool_.output_len[slot] = request.output_len;
  pool_.prefilled[slot] = prefilled;
  pool_.generated[slot] = generated;
  pool_.prefix_skipped[slot] = prefix_skipped;
  pool_.bucket[slot] = 0;
  pool_.kv_slot[slot] = kv_cache_->resident_slot(request.id);
  pool_.request[slot] = request;
  resident_.push_back(slot);
  return slot;
}

bool ContinuousBatchScheduler::aggregates_consistent() const {
  std::int64_t decoders = 0;
  std::int64_t growing = 0;
  std::vector<std::int64_t> buckets;
  for (const std::int32_t slot : resident_) {
    if (slot_prefilling(slot)) continue;
    ++decoders;
    growing += growth_blocks(slot);
    const std::int64_t bucket = decode_bucket(slot);
    // The cached per-slot bucket must agree with a fresh rounding.
    if (pool_.bucket[slot] != bucket) return false;
    buckets.push_back(bucket);
  }
  if (decoders != resident_decoders_ || growing != pending_growth_blocks_) {
    return false;
  }
  std::sort(buckets.begin(), buckets.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> histogram;
  for (std::size_t i = 0; i < buckets.size();) {
    std::size_t j = i;
    while (j < buckets.size() && buckets[j] == buckets[i]) ++j;
    histogram.emplace_back(buckets[i], static_cast<std::int64_t>(j - i));
    i = j;
  }
  return histogram == decode_kv_histogram_;
}

void ContinuousBatchScheduler::swap_in_and_admit(StepRecord* record) {
  // Swapped-out sequences re-enter first, FIFO: they were admitted before
  // anything still waiting, and restoring them costs a PCIe transfer
  // instead of a prompt recompute.  Watermark: beyond the restore itself,
  // one decode step's growth must still fit — a re-entrant sequence is the
  // NEWEST admission, so restoring into a device that growth pressure will
  // immediately squeeze would swap it straight back out, paying round-trip
  // PCIe for zero progress.  With nothing resident the watermark is waived
  // (there is no pressure to re-evict, and blocking would deadlock).
  const auto swap_in_fits = [this](const Sequence& sequence) {
    const std::int64_t restore_blocks =
        kv_cache_->blocks_for_tokens(sequence.swapped_tokens);
    if (resident_.empty()) {
      return kv_cache_->fits_blocks(restore_blocks);
    }
    // One block of growth headroom for the restored sequence itself plus
    // every resident decoder (tracked incrementally — no rescan per
    // candidate).  Conservative at block sizes > 1: a decoder mid-block
    // needs nothing next step, but headroom is a watermark, not accounting.
    return kv_cache_->fits_blocks(restore_blocks + 1 + resident_decoders_);
  };
  while (!swapped_.empty() &&
         resident_.size() < static_cast<std::size_t>(effective_max_batch()) &&
         swap_in_fits(swapped_.front()) &&
         kv_cache_->try_swap_in(swapped_.front().request.id)) {
    Sequence sequence = swapped_.front();
    swapped_.pop_front();
    // PCIe traffic covers only pages holding computed KV (prefilled prompt
    // + generated tokens); a mid-prefill victim's reservation also spans
    // not-yet-written pages, which cost nothing to move.
    const Bytes bytes =
        kv_cache_->bytes_per_token() *
        static_cast<double>(sequence.prefilled + sequence.generated);
    record->swapped_in_ids.push_back(sequence.request.id);
    record->swap_bytes += bytes;
    counters_.swap_ins += 1;
    counters_.swap_in_bytes += bytes;
    if (trace_) trace_->on_swap_in(sequence.request.id, bytes);
    const std::int32_t slot =
        resident_append(sequence.request, sequence.prefilled,
                        sequence.generated, sequence.prefix_skipped);
    if (!slot_prefilling(slot)) decoder_enter(slot);
    admit_blocked_ = false;
  }

  // New admissions, in the AdmissionPolicy's order.  A stranded swapped
  // sequence blocks them (it has strict seniority); a candidate the KV
  // manager rejects blocks everything behind it — head-of-line blocking
  // on the policy's OWN choice, exactly the FIFO baseline's semantics.
  int admitted = 0;
  while (swapped_.empty() && !admit_blocked_ && !admission_->empty() &&
         resident_.size() < static_cast<std::size_t>(effective_max_batch()) &&
         admitted < config_.max_prefill_batch) {
    const Request* head = admission_->select(admission_context());
    if (head == nullptr) break;  // policy throttled (e.g. rate caps)
    KvCacheManager::AdmitOutcome outcome;
    if (!kv_cache_->try_admit(head->id, admission_reserve_tokens(*head),
                              head->priority, head->prefix_id,
                              head->prefix_len, head->prompt_len, &outcome)) {
      // Head-of-line block: for a pure-select policy this exact probe
      // repeats (and fails) every step until something structural changes,
      // so remember the block and skip the re-probe until then.
      if (admit_memo_ok_) admit_blocked_ = true;
      break;
    }
    counters_.prefix_lookup_tokens += outcome.lookup_tokens;
    counters_.prefix_hit_tokens += outcome.prefix_hit_tokens;
    counters_.prefix_shared_blocks += outcome.shared_blocks;
    counters_.prefix_cow_blocks += outcome.cow_blocks;
    if (trace_) {
      // While `head` still points into the policy's storage (pop_selected
      // below invalidates it).
      trace_->on_admit(*head, outcome.lookup_tokens,
                       outcome.prefix_hit_tokens, outcome.shared_blocks,
                       outcome.cow_blocks);
    }
    if (!prefilled_pending_.empty() &&
        prefilled_pending_.count(head->id) > 0) {
      // Disaggregated decode admission (enqueue_prefilled): the prompt KV
      // was computed on a prefill replica and streamed over, so the whole
      // prompt maps as already-present (prefix_skipped = prompt_len — the
      // tokens were never computed HERE) and the sequence enters decode
      // directly with its remotely-emitted first token on the books.  No
      // first_token_ids entry is ever recorded for it on this replica.
      const std::int32_t slot =
          resident_append(*head, /*prefilled=*/head->prompt_len,
                          /*generated=*/1,
                          /*prefix_skipped=*/head->prompt_len);
      kv_cache_->note_prefilled_slot(pool_.kv_slot[slot], head->prompt_len);
      prefilled_pending_.erase(head->id);
      decoder_enter(slot);
    } else {
      // A prefix hit starts prefill mid-sequence: the cached leading
      // tokens are never pushed through the model again.  The hit is
      // capped at prompt_len - 1, so a fresh admission always starts
      // prefilling and the decoder aggregates are untouched here.  Copy
      // BEFORE pop_selected: `head` points into the policy's storage.
      resident_append(*head, /*prefilled=*/outcome.prefix_hit_tokens,
                      /*generated=*/0,
                      /*prefix_skipped=*/outcome.prefix_hit_tokens);
    }
    admission_->pop_selected();
    ++admitted;
  }
}

void ContinuousBatchScheduler::drain_shed(StepRecord* record) {
  // Deadline sheds accumulate inside the policy during select(); pull them
  // out every step so counters, trace events, and the step record agree.
  // Non-shedding policies (everything but EDF) never stash anything, so
  // the per-step virtual drain is skipped for them outright.
  if (!may_shed_) return;
  shed_scratch_.clear();
  admission_->drain_shed(&shed_scratch_);
  for (const Request& request : shed_scratch_) {
    record->shed_ids.push_back(request.id);
    counters_.shed_deadline += 1;
    if (trace_) trace_->on_shed(request.id);
  }
}

ContinuousBatchScheduler::ResidentInfo ContinuousBatchScheduler::resident_info(
    std::size_t index) const {
  CIMTPU_CHECK_MSG(index < resident_.size(),
                   "resident_info index out of range");
  const std::int32_t slot = resident_[index];
  ResidentInfo info;
  info.request_id = pool_.request[slot].id;
  info.prefilled = pool_.prefilled[slot];
  info.prefix_skipped = pool_.prefix_skipped[slot];
  info.generated = pool_.generated[slot];
  return info;
}

bool ContinuousBatchScheduler::remove_for_fault(std::int64_t request_id,
                                               Request* out,
                                               ResidentInfo* progress) {
  const auto fill = [&](const Request& request, std::int64_t prefilled,
                        std::int64_t prefix_skipped, std::int64_t generated) {
    if (out != nullptr) *out = request;
    if (progress != nullptr) {
      progress->request_id = request.id;
      progress->prefilled = prefilled;
      progress->prefix_skipped = prefix_skipped;
      progress->generated = generated;
    }
  };
  const auto resident_it = std::find_if(
      resident_.begin(), resident_.end(), [&](std::int32_t slot) {
        return pool_.request[slot].id == request_id;
      });
  if (resident_it != resident_.end()) {
    const std::int32_t slot = *resident_it;
    resident_.erase(resident_it);
    if (!slot_prefilling(slot)) decoder_leave(slot);
    kv_cache_->invalidate_blocks(request_id);
    admit_blocked_ = false;  // invalidation freed device blocks
    fill(pool_.request[slot], pool_.prefilled[slot],
         pool_.prefix_skipped[slot], pool_.generated[slot]);
    pool_.release(slot);
    return true;
  }
  const auto swapped_it = std::find_if(
      swapped_.begin(), swapped_.end(),
      [request_id](const Sequence& sequence) {
        return sequence.request.id == request_id;
      });
  if (swapped_it == swapped_.end()) return false;
  // Swapped-out victim: its KV lives in the host pool; invalidate_blocks
  // releases those host bytes so the pool reconciles.
  const Sequence victim = *swapped_it;
  swapped_.erase(swapped_it);
  kv_cache_->invalidate_blocks(request_id);
  admit_blocked_ = false;
  fill(victim.request, victim.prefilled, victim.prefix_skipped,
       victim.generated);
  return true;
}

void ContinuousBatchScheduler::requeue_after_fault(const Request& request,
                                                   bool emitted_first_token) {
  if (emitted_first_token) {
    // TTFT already streamed: resume with preempt seniority (FIFO front,
    // EDF shed-exempt) exactly like a recompute-preemption victim.
    admission_->on_preempt_requeue(request, total_steps_);
  } else {
    admission_->on_enqueue(request, total_steps_);
  }
  admit_blocked_ = false;
}

bool ContinuousBatchScheduler::restore_resident_from_host(
    std::int64_t request_id, Bytes* bytes) {
  const auto it = std::find_if(
      resident_.begin(), resident_.end(), [&](std::int32_t slot) {
        return pool_.request[slot].id == request_id;
      });
  if (it == resident_.end()) return false;
  if (!kv_cache_->restore_from_host(request_id)) return false;
  admit_blocked_ = false;
  if (bytes != nullptr) {
    // Only pages holding computed KV cross the link (same accounting as
    // swap-in): prefilled prompt + generated tokens.
    *bytes = kv_cache_->bytes_per_token() *
             static_cast<double>(pool_.prefilled[*it] + pool_.generated[*it]);
  }
  return true;
}

void ContinuousBatchScheduler::set_degraded(bool degraded,
                                            int degraded_max_batch) {
  degraded_ = degraded;
  degraded_max_batch_ = degraded ? degraded_max_batch : 0;
  admission_->set_degraded(degraded);
  admit_blocked_ = false;  // effective_max_batch may have changed
}

AdmissionContext ContinuousBatchScheduler::admission_context() const {
  AdmissionContext context;
  context.free_batch_slots =
      effective_max_batch() - static_cast<std::int64_t>(resident_.size());
  context.free_kv_bytes = kv_cache_->capacity() - kv_cache_->used();
  context.bytes_per_token = kv_cache_->bytes_per_token();
  context.device_empty = resident_.empty();
  context.now = now_;
  context.step = total_steps_;
  return context;
}

void ContinuousBatchScheduler::build_prefill_step(StepRecord* record) {
  record->kind = StepRecord::Kind::kPrefill;
  // Prefill progress mutates prefix-cache state (note_prefilled marks
  // shared blocks computed) and can finish sequences — both can change a
  // memoized head-of-line probe's outcome.
  admit_blocked_ = false;
  record->batched_cost = config_.batched_prefill_cost;
  record->chunk_lens.reserve(config_.max_prefill_batch);
  record->prev_lens.reserve(config_.max_prefill_batch);
  record->kv_lens.reserve(config_.max_prefill_batch);
  std::int64_t budget = config_.prefill_chunk_tokens > 0
                            ? config_.prefill_chunk_tokens
                            : std::numeric_limits<std::int64_t>::max();
  bool any_finished = false;
  for (const std::int32_t slot : resident_) {  // admission order
    if (!slot_prefilling(slot)) continue;
    if (record->chunk_lens.size() >=
        static_cast<std::size_t>(config_.max_prefill_batch)) {
      break;
    }
    const std::int64_t prefilled = pool_.prefilled[slot];
    const std::int64_t remaining = pool_.prompt_len[slot] - prefilled;
    // Stop rather than hand a participant a sub-bucket leftover of the
    // shared budget: every non-final chunk stays >= seqlen_bucket, so it
    // advances its sequence's cost bucket (a final chunk may be smaller —
    // its bucket was already paid for by telescoping).
    if (budget < std::min(remaining, config_.seqlen_bucket)) break;
    const std::int64_t chunk = std::min(remaining, budget);
    // A prefix-hit sequence's FIRST chunk already starts at a nonzero KV
    // offset (prev = prefix_skipped); only later chunks mean the prompt
    // was actually split across steps.
    record->prev_lens.push_back(prefilled);
    record->chunk_lens.push_back(chunk);
    record->kv_lens.push_back(prefilled + chunk);
    if (trace_) {
      trace_->on_prefill_chunk(pool_.request[slot].id, prefilled, chunk);
    }
    if (prefilled > pool_.prefix_skipped[slot] || chunk < remaining) {
      record->chunked = true;
    }
    pool_.prefilled[slot] = prefilled + chunk;
    kv_cache_->note_prefilled_slot(pool_.kv_slot[slot], prefilled + chunk);
    budget -= chunk;
    if (!slot_prefilling(slot)) {
      // Prompt complete: this step emits the sequence's first token.
      record->first_token_ids.push_back(pool_.request[slot].id);
      pool_.generated[slot] = 1;
      if (pool_.generated[slot] >= pool_.output_len[slot]) {
        record->finished_ids.push_back(pool_.request[slot].id);
        kv_cache_->release(pool_.request[slot].id);
        admission_->on_finish(pool_.request[slot], total_steps_);
        any_finished = true;
      } else {
        decoder_enter(slot);
      }
    }
  }
  record->batch = static_cast<std::int64_t>(record->chunk_lens.size());
  CIMTPU_CHECK(record->batch >= 1);
  if (any_finished) {
    // Single compaction pass: the only residents with a completed output
    // are the ones that finished in the loop above (decoders always leave
    // the moment they finish), so the predicate needs no finished-id list.
    // Compaction moves slot ids and recycles the finished slots in place.
    std::size_t write = 0;
    for (std::size_t read = 0; read < resident_.size(); ++read) {
      const std::int32_t slot = resident_[read];
      if (!slot_prefilling(slot) &&
          pool_.generated[slot] >= pool_.output_len[slot]) {
        pool_.release(slot);
      } else {
        resident_[write++] = slot;
      }
    }
    resident_.resize(write);
  }
  if (record->chunked) counters_.chunked_prefill_steps += 1;
  last_step_prefill_ = true;
}

bool ContinuousBatchScheduler::build_decode_step(StepRecord* record) {
  record->kind = StepRecord::Kind::kDecode;

  // Growth pressure: make room for every KV BLOCK the continuing decode
  // participants must allocate this step (decoders mid-block need
  // nothing; at block size 1 every growing decoder needs one).  The
  // pending-growth block count is tracked incrementally, so each pressure
  // check is O(1) instead of a scan over all residents.  The manager owns
  // victim selection; the mechanism depends on the policy — swap victims
  // move to the host pool with their progress intact, recompute victims
  // re-queue from scratch.  kSwapToHost falls back to recompute when the
  // host pool is full.
  const bool manage_growth = kv_cache_->policy() != EvictionPolicy::kNone;
  if (manage_growth) {
    for (;;) {
      if (kv_cache_->fits_blocks(pending_growth_blocks_)) break;
      CIMTPU_CONFIG_CHECK(resident_.size() > 1,
                          "request " << pool_.request[resident_.front()].id
                                     << " outgrew the whole KV budget");
      const std::int64_t victim_id =
          kv_cache_->pick_eviction_victim(/*protect=*/-1);
      const auto victim_it = std::find_if(
          resident_.begin(), resident_.end(), [&](std::int32_t slot) {
            return pool_.request[slot].id == victim_id;
          });
      CIMTPU_CHECK(victim_it != resident_.end());
      const std::int32_t slot = *victim_it;
      resident_.erase(victim_it);
      if (!slot_prefilling(slot)) decoder_leave(slot);
      if (kv_cache_->policy() == EvictionPolicy::kSwapToHost &&
          kv_cache_->try_swap_out(victim_id)) {
        // As with swap-in: only computed KV pages cross the link.
        const Bytes bytes =
            kv_cache_->bytes_per_token() *
            static_cast<double>(pool_.prefilled[slot] + pool_.generated[slot]);
        // Progress survives the swap: snapshot the slot into the cold deque,
        // including the host-pool token count the swap-in watermark reads.
        swapped_.push_back(Sequence{pool_.request[slot], pool_.prefilled[slot],
                                    pool_.generated[slot],
                                    pool_.prefix_skipped[slot],
                                    kv_cache_->swapped_tokens(victim_id)});
        record->swapped_out_ids.push_back(victim_id);
        record->swap_bytes += bytes;
        counters_.preemptions_swap += 1;
        counters_.swap_out_bytes += bytes;
        if (trace_) trace_->on_swap_out(victim_id, bytes);
      } else {
        kv_cache_->release(victim_id);
        // The policy decides where a recompute victim waits (FIFO: front).
        admission_->on_preempt_requeue(pool_.request[slot], total_steps_);
        record->preempted_ids.push_back(victim_id);
        counters_.preemptions_recompute += 1;
        if (trace_) trace_->on_preempt(victim_id);
      }
      pool_.release(slot);
      admit_blocked_ = false;  // eviction freed device blocks
    }
  }

  // Every resident decoder participates at its pre-advance KV length; the
  // incremental histogram IS that grouping, copied out before mutation.
  record->kv_lens.reserve(static_cast<std::size_t>(resident_decoders_));
  record->decode_groups.assign(decode_kv_histogram_.begin(),
                               decode_kv_histogram_.end());

  // Advance decoders in place: a single compaction pass (two-pointer) drops
  // finished slots — moving 4-byte slot ids, never sequence payloads.
  //
  // Bulk growth: pending_growth_blocks_ is exactly the number of blocks
  // this step's continuing decoders cross into (a finishing decoder's
  // contribution is already 0 — its growth check looked one token ahead).
  // When the device has free room for all of them outright, no grow can
  // fail or reclaim a cached prefix block, so each grow is an unchecked
  // entry update returning the 0 or 1 block it crossed, and one commit
  // after the loop books the tokens and blocks.  Growth without reclaim
  // only uses up capacity, so a memoized head-of-line probe failure stays
  // a failure and admit_blocked_ survives the step.
  //
  // Exact path (kNone, or a device too full for bulk growth): per-grow
  // capacity checks may reclaim cached prefix blocks, so the memo is
  // dropped outright.
  const bool bulk =
      manage_growth && kv_cache_->can_bulk_grow(pending_growth_blocks_);
  if (!bulk) admit_blocked_ = false;
  std::int64_t grown_tokens = 0;
  std::int64_t grown_blocks = 0;
  std::size_t write = 0;
  for (std::size_t read = 0; read < resident_.size(); ++read) {
    const std::int32_t slot = resident_[read];
    if (slot_prefilling(slot)) {
      // Spectator: prefill continues elsewhere.
      resident_[write++] = slot;
      continue;
    }
    // KV length this step attends over: prompt plus tokens generated so far.
    const std::int64_t kv_len =
        pool_.prompt_len[slot] + pool_.generated[slot];
    record->kv_lens.push_back(kv_len);
    const std::int64_t old_bucket = pool_.bucket[slot];
    const std::int64_t generated = ++pool_.generated[slot];
    if (generated >= pool_.output_len[slot]) {
      record->finished_ids.push_back(pool_.request[slot].id);
      kv_cache_->release(pool_.request[slot].id);
      admission_->on_finish(pool_.request[slot], total_steps_);
      --resident_decoders_;
      histogram_remove(old_bucket);
      pool_.release(slot);
      admit_blocked_ = false;  // finish freed device blocks
      continue;
    }
    // A continuing decoder's pre-advance pending-growth contribution is
    // the block its grow crosses; it is replaced by the contribution for
    // the NEXT step once the grow is booked.
    std::int64_t crossed;
    if (bulk) {
      crossed = kv_cache_->grow_slot_nocheck(pool_.kv_slot[slot]);
      ++grown_tokens;
      grown_blocks += crossed;
    } else {
      crossed = next_token_crosses_block(slot) ? 1 : 0;
      if (manage_growth) {
        const bool grew = kv_cache_->try_grow_slot(pool_.kv_slot[slot], 1);
        CIMTPU_CHECK(grew);  // pre-step eviction guaranteed room
      }
    }
    pending_growth_blocks_ += growth_blocks(slot) - crossed;
    // Bucket crossing in one compare: the cached bucket is kv_len rounded
    // up, so the next token spills past it iff kv_len == bucket — and the
    // new bucket is then exactly one bucket width further (buckets are
    // multiples of seqlen_bucket).
    if (kv_len == old_bucket) {
      const std::int64_t new_bucket = old_bucket + config_.seqlen_bucket;
      histogram_remove(old_bucket);
      histogram_add(new_bucket);
      pool_.bucket[slot] = new_bucket;
    }
    resident_[write++] = slot;
  }
  resident_.resize(write);
  if (bulk) kv_cache_->commit_bulk_growth(grown_tokens, grown_blocks);
  record->batch = static_cast<std::int64_t>(record->kv_lens.size());
  if (record->batch == 0) {
    record->decode_groups.clear();
    return false;  // pressure evicted every decoder
  }
  last_step_prefill_ = false;
  return true;
}

bool ContinuousBatchScheduler::next_step(StepRecord* record) {
  CIMTPU_CHECK(record != nullptr);
  record->clear();
  if (idle()) return false;

  swap_in_and_admit(record);
  drain_shed(record);

  if (resident_.empty()) {
    CIMTPU_CHECK(swapped_.empty());
    if (admission_->empty()) {
      // Admission control shed every waiting request (a deadline-driven
      // policy can empty the engine): no step runs.  The sheds are in
      // record->shed_ids; the driver advances the clock and re-enters.
      return false;
    }
    // A swapped sequence always fits an empty device (it fit before it was
    // swapped out), so reaching here means the policy's chosen candidate
    // can never be admitted: the request is unservable at this capacity.
    // (Policies may not throttle an empty device, so select() is non-null.)
    const Request* head = admission_->select(admission_context());
    CIMTPU_CHECK(head != nullptr);
    CIMTPU_CONFIG_CHECK(
        false, "request " << head->id << " needs more KV ("
                          << format_bytes(kv_cache_->bytes_per_token() *
                                          static_cast<double>(
                                              admission_reserve_tokens(*head)))
                          << " to admit) than the budget "
                          << format_bytes(kv_cache_->capacity()));
  }

  // The decoder count is tracked incrementally; prefill work exists iff
  // some resident is not a decoder.
  const bool any_decoding = resident_decoders_ > 0;
  const bool any_prefilling =
      static_cast<std::int64_t>(resident_.size()) > resident_decoders_;

  // Step-kind choice: prefill-priority without chunking (a new prompt runs
  // whole the step it is admitted); strict prefill/decode alternation with
  // chunking, so decoders advance at least every other step while a long
  // prompt streams through in chunks.
  bool do_prefill;
  if (!any_prefilling) {
    do_prefill = false;
  } else if (!any_decoding) {
    do_prefill = true;
  } else if (config_.prefill_chunk_tokens > 0) {
    do_prefill = !last_step_prefill_;
  } else {
    do_prefill = true;
  }

  if (do_prefill) {
    build_prefill_step(record);
  } else if (!build_decode_step(record)) {
    // KV pressure swept every decode participant out; the survivors are
    // all prefilling, so run their chunk step instead.
    build_prefill_step(record);
  }
  ++total_steps_;
  return true;
}

std::int64_t ContinuousBatchScheduler::repeatable_decode_steps(
    const StepRecord& last) const {
  // Configuration first: paged KV under a preempting policy never
  // qualifies, and the per-step path pays for this query after every
  // decode step.
  const bool manage_growth = kv_cache_->policy() != EvictionPolicy::kNone;
  if (manage_growth && config_.kv_block_tokens != 1) return 0;
  if (last.kind != StepRecord::Kind::kDecode) return 0;
  if (resident_decoders_ == 0 || !swapped_.empty() ||
      resident_decoders_ != static_cast<std::int64_t>(resident_.size())) {
    return 0;
  }
  if (!admission_->empty() && !admit_blocked_ &&
      resident_.size() < static_cast<std::size_t>(effective_max_batch())) {
    return 0;
  }
  if (decode_kv_histogram_ != last.decode_groups) return 0;
  std::int64_t steps = std::numeric_limits<std::int64_t>::max();
  if (manage_growth) {
    // Free blocks per decoder: every step of the run passes can_bulk_grow
    // (at block size 1 each decoder grows one block per step).
    steps = (kv_cache_->capacity_blocks() - kv_cache_->occupied_blocks()) /
            resident_decoders_;
  }
  for (const std::int32_t slot : resident_) {
    const std::int64_t generated = pool_.generated[slot];
    steps = std::min(steps, pool_.output_len[slot] - generated - 2);
    steps = std::min(steps, pool_.bucket[slot] -
                                (pool_.prompt_len[slot] + generated));
  }
  return std::max<std::int64_t>(steps, 0);
}

void ContinuousBatchScheduler::repeat_decode_steps(std::int64_t n) {
  CIMTPU_CHECK(n >= 0);
  const bool manage_growth = kv_cache_->policy() != EvictionPolicy::kNone;
  std::int64_t blocks = 0;
  for (const std::int32_t slot : resident_) {
    pool_.generated[slot] += n;
    if (manage_growth) {
      blocks += kv_cache_->grow_slot_nocheck(pool_.kv_slot[slot], n);
    }
  }
  if (manage_growth) {
    kv_cache_->commit_bulk_growth(n * resident_decoders_, blocks);
  }
  total_steps_ += n;
}

}  // namespace cimtpu::serving
