#pragma once
// Deterministic parallel sweep driver for serving traffic studies.
//
// A sweep is a flat list of (scenario, request trace) points — typically
// the cross product of arrival rate x model x chip count x eviction
// policy x admission policy x KV block size x prefix caching — run
// in-process on a small thread pool, each worker claiming the next
// unclaimed point.  Every point is an independent deterministic
// simulation, so parallel execution is embarrassingly safe; the driver
// guarantees:
//
//   * DETERMINISTIC GRID ORDER — results[i] always corresponds to
//     points[i], whatever order the workers finished in.
//   * BIT-IDENTICAL METRICS — at any thread count, each point's
//     ServingMetrics are identical to a serial (threads=1) run, including
//     cost-cache hit/miss counters (StepCostCache counts against its
//     run-local view; the shared store only avoids recomputation).  The only exceptions are the wall-clock
//     fields sim_wall_seconds / steps_per_second.
//
// Points with the same (chip config, model, bucket) signature share one
// SharedStepCostCache store, so a sweep stops re-simulating identical
// per-layer shapes across its points.  Thread count comes from
// SweepOptions::threads, the CIMTPU_SWEEP_THREADS environment variable, or
// std::thread::hardware_concurrency(), in that precedence order.

#include <cstdint>
#include <string>
#include <vector>

#include "serving/serving_sim.h"

namespace cimtpu::serving {

struct SweepOptions {
  /// Worker threads.  <= 0: use CIMTPU_SWEEP_THREADS if set, else
  /// hardware_concurrency.  Clamped to the point count.
  int threads = 0;
  /// Share computed step costs across points with the same cost signature.
  /// Never changes metrics, only wall-clock.
  bool share_cost_cache = true;
  /// Optional caller-owned cache (must outlive run_sweep): lets SEPARATE
  /// sweeps over the same deployments reuse each other's computed costs.
  /// nullptr -> one internal cache per run_sweep call.  Ignored when
  /// share_cost_cache is false.
  SharedStepCostCache* shared_cache = nullptr;
};

/// Resolves the effective worker count (see SweepOptions::threads).
int resolve_sweep_threads(int requested, std::size_t num_points);

/// One sweep point: a deployment plus the (non-owning) trace it replays.
/// The trace must outlive run_sweep; points may share traces.  `label`
/// identifies the point in failure messages.
///
/// `replicas` > 0 makes the point a CLUSTER cell (serving/cluster.h): the
/// scenario becomes the per-replica prototype (its chips /
/// tensor_parallel_ways apply to EVERY replica), requests route through
/// `router_policy`, and the cell's metrics are the flattened cluster
/// rollup.  0 (the default) is the single-engine path, bit-identical to
/// pre-cluster sweeps.
struct SweepPoint {
  std::string label;
  ServingScenario scenario;
  const std::vector<Request>* requests = nullptr;
  int replicas = 0;
  std::string router_policy = "round_robin";
  bool disaggregated = false;
  int prefill_replicas = 1;  ///< disaggregated cells only
};

/// Runs all points and returns their metrics in point order.  A point that
/// throws (e.g. an unservable request under the configured KV budget)
/// re-throws from here, prefixed with the point's label — the first
/// failing point in grid order wins, whatever order the workers ran in.
std::vector<ServingMetrics> run_sweep(const std::vector<SweepPoint>& points,
                                      const SweepOptions& options = {});

/// Declarative grid: the cross product of the seven axes, expanded with
/// arrival rate outermost and prefix caching innermost (deterministic
/// order).  One request trace is generated per arrival rate and shared by
/// every point at that rate, so models/chips/policies compare on
/// identical traffic.
struct ServingSweep {
  std::vector<double> arrival_rates;
  std::vector<models::TransformerConfig> models;
  std::vector<int> chip_counts;
  std::vector<EvictionPolicy> policies;
  /// Admission-policy registry names (serving/admission_policy.h).  The
  /// default single-"fifo" axis keeps pre-existing grids unchanged; any
  /// per-policy knobs (aging rate, WFQ tenant shares) come from
  /// `base.scheduler.admission` — only the policy NAME is overridden per
  /// cell.
  std::vector<std::string> admission_policies = {"fifo"};
  /// Paged-KV axes.  The 0 / -1 sentinels mean "inherit the base
  /// scenario's value", so pre-existing grids expand unchanged; explicit
  /// values override SchedulerConfig::kv_block_tokens /
  /// enable_prefix_cache per cell (prefix_caching: 0 = off, 1 = on).
  std::vector<std::int64_t> kv_block_tokens = {0};
  std::vector<int> prefix_caching = {-1};

  /// Resilience axes (serving/fault.h).  `fault_rates` scales the base
  /// scenario's three fault-process rates per cell (0 disables the
  /// subsystem for that cell); `fault_recovery` overrides
  /// FaultConfig::recovery_enabled (0 = off, 1 = on).  The -1 sentinels
  /// inherit the base fault config untouched, so pre-existing grids —
  /// and their labels — expand unchanged.
  std::vector<double> fault_rates = {-1};
  std::vector<int> fault_recovery = {-1};

  /// Cluster axes (serving/cluster.h).  `replicas` 0 is the single-engine
  /// sentinel (cells run exactly as before the cluster subsystem existed);
  /// N >= 1 runs the cell as an N-replica cluster of the cell's deployment
  /// shape.  `router_policies` "" inherits "round_robin" without adding a
  /// label segment; `disaggregation` -1 inherits colocated, 0/1 force it
  /// (1 splits `cluster_prefill_replicas` replicas off for prefill).
  /// Defaults keep pre-cluster grids — and their labels — byte-identical.
  std::vector<int> replicas = {0};
  std::vector<std::string> router_policies = {""};
  std::vector<int> disaggregation = {-1};
  int cluster_prefill_replicas = 1;

  ServingScenario base;        ///< prototype; model/chips/eviction/admission/
                               ///< paged-KV knobs overridden
  RequestStreamConfig stream;  ///< prototype; arrival_rate overridden

  void validate() const;
};

/// One grid cell's coordinates plus its metrics.  `model` + `dtype`
/// identify the model axis (same-named models commonly differ only in
/// dtype, e.g. llama2-7b at int4 vs int8).
struct SweepCellResult {
  double arrival_rate = 0;
  std::string model;
  ir::DType dtype = ir::DType::kInt8;
  int chips = 1;
  EvictionPolicy policy = EvictionPolicy::kPreemptNewest;
  std::string admission = "fifo";
  std::int64_t kv_block_tokens = 1;  ///< effective (sentinels resolved)
  bool prefix_caching = false;       ///< effective (sentinels resolved)
  double fault_rate = -1;   ///< axis value as given (-1 = base inherited)
  int fault_recovery = -1;  ///< axis value as given (-1 = base inherited)
  int replicas = 0;         ///< axis value as given (0 = single engine)
  std::string router_policy;  ///< effective name; empty on single-engine cells
  int disaggregated = -1;   ///< axis value as given (-1 = colocated inherited)
  ServingMetrics metrics;
};

/// Expands the grid and runs it via run_sweep.  Results are in grid order
/// (rate-major, prefix-caching-minor) and bit-identical to serial
/// execution.
std::vector<SweepCellResult> run_serving_sweep(
    const ServingSweep& sweep, const SweepOptions& options = {});

}  // namespace cimtpu::serving
