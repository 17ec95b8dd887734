#pragma once
// Iteration-level (continuous-batching) scheduler, vLLM-style, with
// Sarathi-style chunked prefill and pluggable preemption.
//
// The engine runs a sequence of steps.  Each step is either
//   * a PREFILL step: prefilling sequences push prompt tokens through all
//     layers.  With chunking disabled a sequence prefills its whole prompt
//     in one step; with `prefill_chunk_tokens` set the step carries at most
//     that many prompt tokens in total, so long prompts stream through in
//     chunks interleaved with decode steps and TPOT stays bounded.  A
//     sequence whose prompt completes in a step emits its first token in
//     that step.  Or,
//   * a DECODE step: every fully-prefilled request advances by one token.
// Requests join the running batch the moment capacity frees up (KV pages
// and batch slots), rather than waiting for the whole batch to drain —
// that is the continuous-batching property.  WHICH waiting request joins
// next is delegated to a pluggable AdmissionPolicy
// (serving/admission_policy.h, selected by SchedulerConfig::admission):
// "fifo" by default — bit-identical to the pre-API scheduler — plus
// "priority" (aging, starvation-free) and "wfq" (per-tenant weighted fair
// queueing with optional token-rate caps).
//
// When decode-time KV growth outruns the device budget the scheduler
// preempts under the KvCacheManager's policy: recompute victims
// (kPreemptNewest, kPriorityVictim) drop their KV and re-queue from
// scratch; swap victims (kSwapToHost) move their pages to the host pool
// and resume decoding after re-admission without recomputing the prompt.
//
// KV is BLOCK-GRANULAR (kv_block_tokens-sized pages, kv_cache_manager.h):
// admission, growth, swap, and eviction all account in blocks, decode
// growth only allocates at block boundaries, and with
// `enable_prefix_cache` requests tagged with a shared prompt prefix map
// the cached prefix blocks by reference and START PREFILL MID-SEQUENCE —
// the first chunk's prev_len is the prefix-hit token count.
//
// Hot-path design: the scheduler maintains INCREMENTAL aggregates —
// resident decoder count, pending-growth BLOCK count, and a sorted
// bucketed-KV histogram over resident decoders — updated on every
// admit / prefill-completion / decode-advance / finish / preempt / swap
// transition, so planning a step never rescans all resident sequences.
// The pending-growth count is exact at every block size, so whenever the
// device has free room for it a decode step grows KV in bulk (one
// unchecked update per decoder, one commit per step; see
// KvCacheManager::can_bulk_grow) and only near-full devices pay the
// per-grow checked path.
// Step costs come from the analytic simulator, memoized per
// (batch, bucketed-seqlen) shape in a flat open-addressed table
// (StepCostCache, step_cost_cache.h).  `cost_step` sums PER-SEQUENCE
// attention costs over each participant's actual (bucketed) KV length —
// decode participants arrive pre-grouped by bucket via the histogram, so
// costing a step is allocation-free.

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "serving/admission_policy.h"
#include "serving/kv_cache_manager.h"
#include "serving/metrics.h"
#include "serving/request_gen.h"
#include "serving/step_cost_cache.h"
#include "serving/trace.h"

namespace cimtpu::serving {

/// Scheduler knobs.
struct SchedulerConfig {
  int max_batch = 32;          ///< max concurrently resident requests
  int max_prefill_batch = 8;   ///< max prefill participants (and new
                               ///< admissions) per step
  std::int64_t seqlen_bucket = 128;  ///< cost-cache bucket granularity

  /// KV page size in tokens (KvCacheManager block granularity).  1 — the
  /// default — reproduces the historical contiguous per-token accounting
  /// bit for bit; larger blocks trade internal fragmentation for
  /// allocation granularity and enable meaningful prefix sharing.
  std::int64_t kv_block_tokens = 1;

  /// Ref-counted prefix caching over Request::prefix_id (see
  /// kv_cache_manager.h).  Off by default — the golden-pinned behaviour.
  bool enable_prefix_cache = false;

  /// 0 disables chunking (whole-prompt prefill steps).  Otherwise each
  /// prefill step carries at most this many prompt tokens in total and
  /// alternates with decode steps while both kinds of work exist.  Must be
  /// >= seqlen_bucket so every chunk advances its sequence's cost bucket.
  std::int64_t prefill_chunk_tokens = 0;

  /// Cost prefill steps at their ACTUAL batch: participants entering the
  /// step at the same prefilled offset with the same chunk length share
  /// one weight pass instead of each being charged a solo batch-1 pass.
  /// Off by default — the historical (pessimistic) costing the golden
  /// pins were recorded under.  See cost_step.
  bool batched_prefill_cost = false;

  /// Which waiting request joins the batch next: a registry-keyed
  /// AdmissionPolicy ("fifo" default — the pre-API behaviour — plus
  /// "priority" and "wfq"; see serving/admission_policy.h).
  AdmissionConfig admission;

  void validate() const;
};

/// What one engine step executed, as planned by the scheduler.  Shapes are
/// PER PARTICIPANT (parallel arrays in admission order) so the cost model
/// can charge each sequence's attention over its actual KV length rather
/// than a batch-mean representative.  Designed for reuse: the serving loop
/// keeps ONE record and the scheduler `clear()`s it each step, so the
/// vectors' capacity amortizes to zero allocations.
struct StepRecord {
  enum class Kind { kPrefill, kDecode };
  Kind kind = Kind::kDecode;
  std::int64_t batch = 0;  ///< participants in this step

  /// KV length each participant attends over this step: prompt tokens
  /// prefilled so far including this step's chunk (prefill), or prompt +
  /// generated tokens (decode).
  std::vector<std::int64_t> kv_lens;
  std::vector<std::int64_t> chunk_lens;  ///< prefill: new prompt tokens
  std::vector<std::int64_t> prev_lens;   ///< prefill: tokens already prefilled

  /// Decode only: participants grouped by bucketed KV length, ascending —
  /// a copy of the scheduler's incremental histogram, so cost_step never
  /// re-derives the grouping from kv_lens.  Empty for hand-built records
  /// (cost_step then groups from kv_lens itself).
  std::vector<std::pair<std::int64_t, std::int64_t>> decode_groups;

  std::vector<std::int64_t> first_token_ids;  ///< emitted their first token
  std::vector<std::int64_t> finished_ids;     ///< completed this step
  std::vector<std::int64_t> preempted_ids;    ///< evicted for recompute
  std::vector<std::int64_t> swapped_out_ids;  ///< KV moved to the host pool
  std::vector<std::int64_t> swapped_in_ids;   ///< KV restored from the host
  std::vector<std::int64_t> shed_ids;  ///< dropped by admission control
                                       ///< (EDF deadline shed): never
                                       ///< admitted, never complete
  Bytes swap_bytes = 0;  ///< PCIe traffic (out + in) charged to this step
  bool chunked = false;  ///< some participant's prompt was split
  bool batched_cost = false;  ///< prefill: cost shape-equal participants at
                              ///< their shared batch (see
                              ///< SchedulerConfig::batched_prefill_cost)

  /// Resets to an empty record, keeping vector capacity.
  void clear();
};

/// Per-sequence step cost: sums each participant's attention cost at its
/// own bucketed KV length.  Decode participants group by KV bucket (one
/// memoized decode_layer shape per group, accumulated in ascending bucket
/// order); prefill participants are costed as the telescoped difference
/// prefill(prev + chunk) - prefill(prev), so a chunked prompt's total
/// prefill cost is identical to the unchunked cost of the same prompt.
/// The same telescoping prices chunks that START mid-sequence: a
/// prefix-cache hit enters prefill with prev = hit tokens, so only the
/// uncached suffix is ever charged.
StepCost cost_step(StepCostCache& costs, const StepRecord& step);

/// The continuous-batching state machine.  Time-free: the serving loop owns
/// the clock and costs each StepRecord via `cost_step`.
class ContinuousBatchScheduler {
 public:
  ContinuousBatchScheduler(const SchedulerConfig& config,
                           KvCacheManager* kv_cache);

  /// Adds an arrived request to the waiting set (the admission policy
  /// owns its ordering).
  void enqueue(const Request& request);

  /// Adds a request whose PROMPT KV already exists on this replica — the
  /// disaggregated-serving decode side, where a dedicated prefill replica
  /// computed the prompt and streamed the KV blocks over (cluster.h).  The
  /// request waits in admission like any other, but on admission it maps
  /// its full prompt KV without prefilling (all prompt tokens accounted as
  /// prefix-skipped) and enters decode directly; its first LOCAL token is
  /// output token #2 (the prefill replica emitted #1).  Requires
  /// output_len >= 2.
  void enqueue_prefilled(const Request& request);

  /// Advances the policy-visible simulated clock (rate caps in
  /// WeightedFairAdmission).  The serving loop calls this before each
  /// next_step; direct drivers may never call it (the clock stays 0 and
  /// capped tenants live off their burst allowance).
  void set_time(Seconds now) { now_ = now; }

  /// True when nothing is waiting, resident, or swapped out.  The cheap
  /// vector checks run first: while anything is resident — the common case
  /// during serving — the virtual policy call is skipped entirely.
  bool idle() const {
    return resident_.empty() && swapped_.empty() && admission_->empty();
  }

  /// Plans and commits the next engine step into `record` (cleared first;
  /// pass the same record every step to reuse its vectors).  Admission
  /// happens here: swapped-out sequences are restored first (FIFO), then
  /// waiting requests are pulled into the batch while KV pages and batch
  /// slots allow.  Returns false when idle — including when admission
  /// control shed EVERY waiting request this call (a shedding policy can
  /// empty the engine; the sheds are reported in record->shed_ids, and no
  /// step ran).  For non-shedding policies a non-idle engine always steps.
  bool next_step(StepRecord* record);

  // --- Decode fast-forward ------------------------------------------------
  // Steady decode repeats one step exactly, often for hundreds of steps in
  // a row: the same participants in the same KV buckets, with no arrival,
  // finish, preemption, swap or shed.  The engine (serving_sim.h) books
  // such a run in one call instead of planning each step.
  //
  // `repeatable_decode_steps(last)` is a pure query: how many upcoming
  // next_step calls are GUARANTEED to plan a decode step identical to
  // `last` (same decode_groups, no event of any kind).  It returns 0
  // unless all of these hold:
  //   * `last` was a decode step and the bucketed KV histogram still
  //     equals last.decode_groups (the next step would cost the same);
  //   * every resident is a decoder and nothing is swapped out (no prefill
  //     work and no swap-in can be planned);
  //   * no admission can happen: nothing waits, the head-of-line probe
  //     memo (admit_blocked_) holds, or the batch is full — so neither the
  //     policy's select nor its shedding runs;
  //   * under a preempting policy the KV block size is 1 (kNone never
  //     grows KV in decode).  Larger blocks take the same bulk-growth path
  //     per step, but their runs are cut short by block crossings and
  //     arrivals, so they are not fast-forwarded.
  // The count is the minimum of three limits: per decoder
  // output_len - generated - 2 (nobody finishes, and the pending-growth
  // count never changes), per decoder bucket - kv_len (nobody crosses a
  // cost bucket), and — preempting policies only —
  // (capacity_blocks - occupied_blocks) / decoders, so
  // can_bulk_grow holds and no eviction or reclaim fires on any step.
  //
  // `repeat_decode_steps(n)` commits n such steps (n must not exceed the
  // query's answer): each decoder's generated count and KV entry advance
  // by n, the KV manager books n x decoders unit grows in one commit, and
  // total_steps() advances by n.  The resulting state — aggregates, KV
  // counters, step count and the next planned step — equals that of n
  // next_step calls (tests/serving_repeat_decode_test.cpp).
  std::int64_t repeatable_decode_steps(const StepRecord& last) const;
  void repeat_decode_steps(std::int64_t n);

  /// Test-only audit: recomputes the incremental decoder aggregates
  /// (resident/growing counts, bucketed-KV histogram) from a full scan of
  /// the resident sequences and compares them to the tracked values.
  /// O(n log n) — call from invariant tests after every step, never from
  /// the hot path.
  bool aggregates_consistent() const;

  /// Attaches an observability sink (serving/trace.h); nullptr detaches.
  /// The scheduler emits admit / prefill-chunk / decode-enter / preempt /
  /// swap transitions into it.  With no sink attached (the default) every
  /// emission site is a single null check — zero allocation, zero
  /// behavioural effect; the sink NEVER influences scheduling decisions.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  // --- Fault injection / recovery (serving/fault.h) -----------------------

  /// Progress snapshot of one resident sequence — what a fault wastes and
  /// what a host restore must re-fetch.
  struct ResidentInfo {
    std::int64_t request_id = -1;
    std::int64_t prefilled = 0;  ///< prompt tokens pushed (incl. prefix hits)
    std::int64_t prefix_skipped = 0;  ///< served from the prefix cache, never
                                      ///< actually computed by this sequence
    std::int64_t generated = 0;       ///< tokens decoded (>= 1 once the first
                                      ///< token was emitted)
  };

  /// The resident sequence at `index` (admission order, must be
  /// < running_count()) — the driver picks kv-loss victims by index so
  /// the choice is deterministic and platform-independent.
  ResidentInfo resident_info(std::size_t index) const;

  /// Fault: removes `request_id` from the engine — resident (device KV
  /// invalidated via KvCacheManager::invalidate_blocks) or swapped out
  /// (host-pool bytes released) — WITHOUT re-queueing it.  The caller
  /// owns what happens next: backoff re-admission (requeue_after_fault)
  /// or a fault shed.  `*out` receives the request, `*progress` (optional)
  /// the progress lost.  Returns false when the id is not in the engine.
  bool remove_for_fault(std::int64_t request_id, Request* out,
                        ResidentInfo* progress = nullptr);

  /// Fault recovery: re-enters a previously removed request through the
  /// admission policy once its backoff expired.  Requests that already
  /// streamed their first token re-queue with preempt seniority (FIFO
  /// front, EDF shed-exempt — their TTFT verdict is settled); the rest
  /// re-enter as fresh arrivals.
  void requeue_after_fault(const Request& request, bool emitted_first_token);

  /// Fault recovery (host shadow): re-materializes a RESIDENT sequence's
  /// device KV in place after a kv-loss event, when the host pool could
  /// hold the shadow (KvCacheManager::restore_from_host).  On success the
  /// sequence keeps all progress and `*bytes` is the PCIe re-fetch the
  /// driver charges to the clock; on failure the caller falls back to
  /// remove_for_fault + recompute.
  bool restore_resident_from_host(std::int64_t request_id, Bytes* bytes);

  /// Graceful degradation (serving/fault.h): caps the resident batch at
  /// `degraded_max_batch` while `degraded` (0 = keep the configured
  /// max_batch) and forwards the mode to the admission policy (EDF
  /// tightens shedding).  Residents over the cap are not evicted; the cap
  /// only throttles new admissions.
  void set_degraded(bool degraded, int degraded_max_batch);
  bool degraded() const { return degraded_; }

  std::size_t waiting_count() const { return admission_->size(); }
  std::size_t running_count() const { return resident_.size(); }
  std::size_t swapped_count() const { return swapped_.size(); }
  /// Residents past prefill (the decode batch size), tracked
  /// incrementally — the time-series sampler reads this per sample.
  std::int64_t resident_decoder_count() const { return resident_decoders_; }
  std::int64_t total_steps() const { return total_steps_; }
  std::int64_t preemptions() const { return counters_.total_preemptions(); }
  const ServingCounters& counters() const { return counters_; }
  const AdmissionPolicy& admission_policy() const { return *admission_; }

 private:
  /// Cold snapshot of one sequence — the representation swapped-out
  /// sequences keep while they live off the device.  Swap transitions are
  /// rare; nothing per-step ever walks these.
  struct Sequence {
    Request request;
    std::int64_t prefilled = 0;  ///< prompt tokens pushed through the model
    std::int64_t generated = 0;  ///< tokens decoded so far (incl. first)
    std::int64_t prefix_skipped = 0;  ///< leading tokens served from the
                                      ///< prefix cache (prefill starts here)
    std::int64_t swapped_tokens = 0;  ///< host-pool KV tokens, snapshotted at
                                      ///< swap-out (constant while on host) —
                                      ///< saves a per-step manager lookup in
                                      ///< the swap-in watermark
    bool prefilling() const { return prefilled < request.prompt_len; }
  };

  /// Struct-of-arrays pool for RESIDENT sequences: the per-sequence fields
  /// the step builders read every iteration live in parallel arrays indexed
  /// by a dense, free-listed slot, so the decode hot loop streams
  /// contiguous integers instead of chasing per-request heap nodes.
  /// `resident_` holds the live slots in admission order — compaction,
  /// eviction, and finish move 4-byte slot ids, never whole sequences.  The
  /// full Request stays in a parallel COLD array the hot loop touches only
  /// on rare transitions (finish / preempt / fault / trace emission).
  struct SequencePool {
    std::vector<std::int64_t> prompt_len;
    std::vector<std::int64_t> output_len;
    std::vector<std::int64_t> prefilled;
    std::vector<std::int64_t> generated;
    std::vector<std::int64_t> prefix_skipped;
    std::vector<std::int64_t> bucket;   ///< cached decode cost bucket —
                                        ///< valid iff the slot is a decoder
    std::vector<std::int32_t> kv_slot;  ///< KvCacheManager dense handle:
                                        ///< growth checks index an array
                                        ///< instead of hashing request ids
    std::vector<Request> request;       ///< cold: events / requeue / audits
    std::vector<std::int32_t> free_list;

    /// Returns a free slot, extending every array in lockstep on demand.
    std::int32_t acquire();
    void release(std::int32_t slot) { free_list.push_back(slot); }
  };

  /// KV tokens reserved at admission: the whole sequence under kNone
  /// (growth can never fail), prompt + first token under preemption
  /// policies (grown per decode step).
  std::int64_t admission_reserve_tokens(const Request& request) const;

  // --- Incremental decoder aggregates ------------------------------------
  // Invariants over `resident_` slots with !slot_prefilling():
  //   resident_decoders_ = their count,
  //   pending_growth_blocks_ = KV BLOCKS the next decode step must be able
  //                            to allocate: decoders that still grow
  //                            (generated + 1 < output_len) AND whose next
  //                            token crosses a block boundary
  //                            (KvCacheManager::grow_needs_block_slot).  At
  //                            block size 1 every growing decoder crosses,
  //                            so this equals the pre-paging growing count.
  //   decode_kv_histogram_ = sorted (bucket_up(prompt + generated), count)
  //                          pairs, counts > 0.  Kept in cost-bucket TOKEN
  //                          units: it feeds the step-cost cache, whose
  //                          shapes are token-bucketed, not block-sized.
  //   pool_.bucket[slot] caches bucket_up(prompt + generated) per decoder,
  //   so the advance loop detects bucket crossings with one compare
  //   (kv_len == bucket ⇒ the next token crosses) instead of re-rounding.
  bool slot_prefilling(std::int32_t slot) const {
    return pool_.prefilled[slot] < pool_.prompt_len[slot];
  }
  bool sequence_grows(std::int32_t slot) const {
    return pool_.generated[slot] + 1 < pool_.output_len[slot];
  }
  /// Would `slot`'s next token cross into a new KV block?  At block size
  /// 1 — the golden-pinned default — EVERY token does (tokens % 1 == 0
  /// always), so the KV-manager probe is skipped entirely on that path.
  bool next_token_crosses_block(std::int32_t slot) const {
    return config_.kv_block_tokens == 1 ||
           kv_cache_->grow_needs_block_slot(pool_.kv_slot[slot]);
  }
  /// Blocks the next decode step must allocate for `slot` (0 or 1).
  std::int64_t growth_blocks(std::int32_t slot) const {
    return sequence_grows(slot) && next_token_crosses_block(slot) ? 1 : 0;
  }
  std::int64_t decode_bucket(std::int32_t slot) const {
    return round_up(pool_.prompt_len[slot] + pool_.generated[slot],
                    config_.seqlen_bucket);
  }
  void histogram_add(std::int64_t bucket);
  void histogram_remove(std::int64_t bucket);
  void decoder_enter(std::int32_t slot);
  void decoder_leave(std::int32_t slot);
  /// Fills a freshly acquired pool slot from a request plus progress state
  /// and appends it to `resident_`.  The KV entry must already be resident
  /// (kv_slot is resolved here, once per admission).
  std::int32_t resident_append(const Request& request, std::int64_t prefilled,
                               std::int64_t generated,
                               std::int64_t prefix_skipped);

  /// Capacity snapshot handed to AdmissionPolicy::select.
  AdmissionContext admission_context() const;

  /// The batch cap admissions honour right now: the configured max_batch,
  /// tightened to degraded_max_batch_ while degradation is active.  Never
  /// below 1 (a degraded engine still serves).
  int effective_max_batch() const {
    return degraded_ && degraded_max_batch_ > 0 &&
                   degraded_max_batch_ < config_.max_batch
               ? degraded_max_batch_
               : config_.max_batch;
  }

  void swap_in_and_admit(StepRecord* record);
  /// Drains the admission policy's deadline sheds into `record->shed_ids`,
  /// counting them and emitting trace events.
  void drain_shed(StepRecord* record);
  void build_prefill_step(StepRecord* record);
  /// Returns false when KV pressure evicted every decode participant (the
  /// caller falls back to a prefill step).
  bool build_decode_step(StepRecord* record);

  SchedulerConfig config_;
  KvCacheManager* kv_cache_;
  std::unique_ptr<AdmissionPolicy> admission_;  ///< owns the waiting set
  TraceSink* trace_ = nullptr;      ///< optional observer (never scheduling)
  Seconds now_ = 0;                 ///< simulated clock (see set_time)
  std::deque<Sequence> swapped_;    ///< swap-out order (FIFO re-admission)
  SequencePool pool_;               ///< SoA storage for resident sequences
  std::vector<std::int32_t> resident_;  ///< live pool slots, admission order
  std::int64_t resident_decoders_ = 0;
  std::int64_t pending_growth_blocks_ = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> decode_kv_histogram_;
  bool last_step_prefill_ = false;  ///< interleave state under chunking
  bool may_shed_ = false;           ///< cached AdmissionPolicy::may_shed()
  bool admit_memo_ok_ = false;  ///< cached AdmissionPolicy::select_is_pure()
  /// Head-of-line admission probe memo (pure-select policies only): set
  /// when try_admit rejected the policy's head, cleared by ANY structural
  /// change that could alter the probe's outcome — enqueue/requeue, a
  /// release or eviction freeing blocks, swap traffic, prefill progress
  /// (prefix-cache state), fault surgery, a degradation toggle, or an
  /// exact-path decode step (its grows may reclaim cached prefix blocks).
  /// Bulk decode growth only consumes capacity, so while the flag holds
  /// the probe would fail identically and is skipped.
  bool admit_blocked_ = false;
  bool degraded_ = false;           ///< graceful-degradation mode
  int degraded_max_batch_ = 0;      ///< batch cap while degraded (0 = none)
  std::int64_t total_steps_ = 0;
  ServingCounters counters_;
  std::vector<Request> shed_scratch_;  ///< drain_shed buffer (reused)
  /// Requests enqueued via enqueue_prefilled, pending admission.  Empty on
  /// every non-disaggregated run: the admission hot path short-circuits on
  /// empty() before any hashing.
  std::unordered_set<std::int64_t> prefilled_pending_;
};

}  // namespace cimtpu::serving
