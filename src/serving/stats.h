#pragma once
// Shared summary-statistics helpers for the serving stack: exact
// percentile math (used by the latency rollups in serving/metrics.h) and
// a fixed-bucket histogram (used by the observability registry,
// serving/obs_registry.h).  One implementation for both consumers, so the
// interpolation convention can never drift between the aggregate metrics
// and the registry's histogram quantile estimates.

#include <cstdint>
#include <vector>

namespace cimtpu::serving {

/// Percentile of `values` with linear interpolation between closest ranks
/// (the same convention as numpy.percentile's default).  `p` is in
/// [0, 100].  Returns 0 for an empty set.  `values` is taken by value and
/// sorted internally.
double percentile(std::vector<double> values, double p);

/// Percentile of an already-sorted, NON-EMPTY sample (the hot inner form:
/// summarize_latencies sorts once and takes several percentiles).
double percentile_sorted(const std::vector<double>& sorted, double p);

/// `count` strictly-ascending bucket upper bounds starting at `start` and
/// multiplying by `factor` (> 1) — the usual latency-histogram layout.
std::vector<double> exponential_bounds(double start, double factor,
                                       int count);

/// A histogram over fixed, strictly-ascending bucket upper bounds plus an
/// implicit overflow bucket.  Observing is allocation-free (an increment
/// after a binary search over the bounds), so it is safe on the serving
/// hot path; quantiles are ESTIMATES reconstructed by linear
/// interpolation inside the covering bucket (exact at the tracked min and
/// max).  Default-constructed histograms have a single overflow bucket —
/// they still count/sum/min/max exactly, only the quantile shape is lost.
class FixedBucketHistogram {
 public:
  FixedBucketHistogram() : counts_(1, 0) {}
  explicit FixedBucketHistogram(std::vector<double> upper_bounds);

  /// Records `value` `repeats` times (>= 1; 0 is a no-op).  The sum is
  /// accumulated once per repeat, so observe(v, n) leaves exactly the
  /// state of n observe(v) calls — the engine's decode fast-forward
  /// (serving_sim.h) books a run of identical steps this way.
  void observe(double value, std::int64_t repeats = 1);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1, the final
  /// entry being the overflow bucket (> last bound).
  const std::vector<std::int64_t>& bucket_counts() const { return counts_; }

  /// Estimated percentile (`p` in [0, 100]) of the observed sample:
  /// locates the bucket covering the target rank and interpolates
  /// linearly across it, clamping bucket edges to the tracked min/max so
  /// quantile(0) == min() and quantile(100) == max() exactly.  Returns 0
  /// for an empty histogram.
  double quantile(double p) const;

 private:
  std::vector<double> bounds_;        ///< strictly ascending upper bounds
  std::vector<std::int64_t> counts_;  ///< bounds_.size() + 1 (overflow last)
  std::size_t last_bucket_ = 0;       ///< observe() locality memo
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace cimtpu::serving
