#pragma once
// The benchmark's workloads.  Each one builds its inputs from the seed
// (timed as set-up), runs a fixed unit of work from empty caches (timed as
// wall time), and turns the unit's simulated outputs into end-to-end
// metrics and output checks.  A separate traced execution repeats the work
// with a span around every call into a layer's public functions.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "serving/request_gen.h"
#include "serving/serving_sim.h"

namespace perfbench {

/// Workload size.  `full` is what the benchmark measures; `tiny` is the
/// self-test's quick structural run.
enum class Scale { kFull, kTiny };

/// A named way to corrupt a run's outputs that some output check must catch
/// (the self-test feeds each one to summarize and expects a new failure).
/// `repair`, when set, first makes the outputs pass the targeted check — a
/// tiny run need not pass every check on its own.
struct Corruption {
  std::string name;
  std::function<void(SimOutputs*)> apply;
  std::function<void(SimOutputs*)> repair;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`: chips, simulators, request traces.
  /// Timed as set-up; may be called several times (same seed, same inputs).
  /// With a tracer, the request generator runs inside a span.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;

  /// One execution of the timed unit, from empty step-cost caches.
  virtual SimOutputs run() = 0;

  /// Operations one execution attempts: design evaluations or simulated
  /// requests.
  virtual std::int64_t operations() const = 0;

  /// Requests the last setup() generated (0 when the workload has none).
  virtual std::int64_t generated_requests() const { return 0; }

  /// Simulated end-to-end metrics and output checks from one execution's
  /// outputs (merged with the paper callouts, see paper_outputs).
  virtual void summarize(const SimOutputs& outputs, Values* e2e,
                         CheckLog* log) const = 0;

  /// Prints per-cell detail lines ('#'-prefixed) for people reading the
  /// run, e.g. every rung of a rate ladder.
  virtual void print_details(const SimOutputs& outputs) const {
    (void)outputs;
  }

  /// Requests of `outputs` that never completed (counted as failed).
  virtual std::int64_t incomplete(const SimOutputs& outputs) const = 0;

  /// The traced execution: the same unit with spans around each layer's
  /// public calls, plus replays that open up what the engine hides.
  /// Returns the traced unit's simulated outputs (they must equal run()'s)
  /// and fills the layer metrics this workload measures.  `*mirror_seconds`
  /// receives the host time of the traced pass that does exactly the timed
  /// unit's work (the rest of the traced run is replays), so traced minus
  /// untraced time is the tracing overhead.
  virtual SimOutputs run_traced(Tracer* tracer, Values* layers, CheckLog* log,
                                double* mirror_seconds) = 0;

  /// Workload-specific corruptions for the self-test.
  virtual std::vector<Corruption> corruptions() const = 0;
};

std::unique_ptr<Workload> make_design_sweep(Scale scale);
std::unique_ptr<Workload> make_chat_ladder(Scale scale);
std::unique_ptr<Workload> make_prefix_cluster(Scale scale);

std::vector<std::string> workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale);

// --- Paper callouts (paper.cpp) ----------------------------------------------

/// The reproduced paper callouts (paper.<name>) and the CIM / TPUv4i latency
/// ratio per Fig. 6 group at the batch-8, KV-1280 gpt3-30b decode shape
/// (sim.group_gain.<group>).  Seed-independent; simulated.
SimOutputs paper_outputs();

/// The callouts as Callout rows (value from `outputs`, band and published
/// value from the paper-claims test).
std::vector<Callout> paper_callouts(const SimOutputs& outputs);

// --- Serving helpers (serving_common.cpp) ------------------------------------

/// SLO every serving rung is judged by: TTFT <= 2 s and TPOT <= 100 ms per
/// request (the repository's kSloTtftDeadline / kSloTpotDeadline), met by
/// at least kSloShare of the requests sent.
constexpr double kSloShare = 0.99;

/// Puts one serving run's simulated results into `out` under `prefix`:
/// latency percentiles, goodput, J/token, SLO attainment, and the request
/// accounting the output checks need.  `expected_tokens` is the sum of
/// output_len over the requests when all of them completed, else -1.
void put_serving_outputs(const std::string& prefix,
                         const cimtpu::serving::ServingMetrics& metrics,
                         std::int64_t expected_tokens, SimOutputs* out);

/// Sum of output_len over `requests`.
std::int64_t total_output_tokens(
    const std::vector<cimtpu::serving::Request>& requests);

/// Reads back one run's accounting from `outputs` and checks it.
void check_serving_prefix(const SimOutputs& outputs, const std::string& prefix,
                          CheckLog* log);

/// A rate ladder over two chips.  Fills the serving end-to-end metrics:
/// TTFT/TPOT/J per token of the CIM chip at `reference_rate`, goodput of the
/// CIM chip at the top rung, the highest rung each chip meets the SLO on
/// (every rung up to it meets it too), and the CIM / TPUv4i capacity ratio.
/// Checks that the ladder brackets both chips' knees and that the CIM chip
/// is no slower than TPUv4i at the reference rung.
void summarize_ladder(const SimOutputs& outputs,
                      const std::vector<double>& rates, double reference_rate,
                      Values* e2e, CheckLog* log);

/// Prints one '#' line per ladder cell: latency percentiles with their
/// sample counts, SLO attainment, goodput and J/token.
void print_ladder(const SimOutputs& outputs, const std::vector<double>& rates);
/// Prints the line of one cell (see print_ladder).
void print_cell(const SimOutputs& outputs, const std::string& prefix);

/// Output key prefix of one ladder cell, e.g. "rate0.4.cim".
std::string ladder_prefix(double rate, bool cim);

/// Counts of one scheduler-level replay.
struct ReplayCounts {
  std::int64_t steps = 0;
  std::int64_t prefill_steps = 0;
  std::int64_t decode_steps = 0;
  std::int64_t cost_hits = 0;
  std::int64_t cost_misses = 0;
  double sim_end_seconds = 0;  ///< simulated clock at the end
  double miss_seconds = 0;     ///< host time of cost_step calls that missed

  /// Sums the counts of another replay (the clock is not summed).
  ReplayCounts& operator+=(const ReplayCounts& other);
};

/// Replays a single-chip, fault-free, horizon-free scenario through
/// ContinuousBatchScheduler::enqueue/set_time/next_step and cost_step,
/// advancing a clock by num_layers x step latency (plus swap time) — the
/// engine's own loop, driven from outside so each call gets a span.
ReplayCounts replay_engine(const cimtpu::serving::ServingScenario& scenario,
                           const std::vector<cimtpu::serving::Request>& requests,
                           Tracer* tracer);

/// Checks a replay against the engine's own counts for the same run, prints
/// both, and returns the number of mismatches.
std::int64_t compare_replay(const std::string& label,
                            const ReplayCounts& replay,
                            const cimtpu::serving::ServingMetrics& engine,
                            CheckLog* log);

/// Serving layer counts summed over engine runs (steps, batch, cost cache,
/// KV manager, preemptions), from ServingMetrics and its registry.
struct ServingLayerCounts {
  std::int64_t steps = 0;
  std::int64_t prefill_steps = 0;
  std::int64_t decode_steps = 0;
  double batch_sum = 0;
  std::int64_t batch_count = 0;
  std::int64_t preemptions_recompute = 0;
  std::int64_t cost_hits = 0;
  std::int64_t cost_misses = 0;
  std::int64_t prefix_lookup_tokens = 0;
  std::int64_t prefix_hit_tokens = 0;
  std::int64_t blocks_allocated = 0;
  std::int64_t cow_blocks = 0;
  std::int64_t reclaimed_blocks = 0;
  double fragmentation_weighted = 0;  ///< sum of per-run mean x steps
  double sim_wall_seconds = 0;        ///< engine-reported host seconds

  void add(const cimtpu::serving::ServingMetrics& metrics);
  /// Writes scheduler.*, step_cost_cache.hits/misses/hit_ratio and
  /// kv_cache_manager.* into `layers`.
  void publish(Values* layers) const;
};

/// Per-layer metrics of the span totals: each `<span>` name becomes
/// `<metric>` with its self time in host seconds.
void put_span_self(const Tracer& tracer, const char* span, const char* metric,
                   Values* layers);

/// Writes the scheduler-level replay's layer metrics: the next_step and
/// cost_step span self times, cost_step time on misses, and replay.*.
void publish_replay(const Tracer& tracer, const ReplayCounts& total,
                    std::int64_t mismatches, Values* layers);

/// Writes serving_sim.pump_s (inject + pump/drain spans), finish_s, and
/// steps_per_s over the pump time for `engine_steps` engine steps.
void publish_engine_spans(const Tracer& tracer, std::int64_t engine_steps,
                          Values* layers);

}  // namespace perfbench
