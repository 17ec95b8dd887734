#pragma once
// Shared pieces of the benchmark harness: the host clock, the span tracer
// the traced run records layer boundaries with, the metric sheet every
// workload fills, and the output checks that decide `failed`.
//
// Two kinds of numbers flow through here and they are never mixed:
//   * SIMULATED values — what the modelled chip would take (TTFT, TPOT,
//     goodput, J/token, paper callouts).  Deterministic for a given seed.
//   * HOST values — what the simulator itself takes on this machine
//     (wall time, set-up time, RSS, per-layer span times).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linearly interpolated percentile of an unsorted sample (p in
/// [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// --- Span tracer ----------------------------------------------------------

/// Records spans around calls into the simulator's public functions.
/// Every span has a name, start, end and parent.  Aggregates (count, total
/// and self time per name) are exact for every span; the first
/// `kMaxKeptSpans` spans are also kept verbatim in memory and written out
/// as a Chrome trace-event file when the run ends.  Self time is a span's
/// duration minus the part its direct children cover (children nest
/// strictly inside their parent, so that is the sum of their durations).
class Tracer {
 public:
  static constexpr std::size_t kMaxKeptSpans = 200000;

  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into kept spans, -1 for a root
  };
  struct Totals {
    std::int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  Tracer();

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  void open(const char* name);
  /// Closes the innermost open span and returns its duration in seconds.
  double close();

  /// Aggregates per span name.
  std::map<std::string, Totals> totals() const;
  Totals totals_for(const std::string& name) const;
  std::size_t spans_recorded() const { return recorded_; }

  /// Writes the kept spans as Chrome trace-event JSON.  Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t kept_index;
  };
  std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  /// Keyed by the name pointer (span names are string literals), so the
  /// per-span update is a short pointer scan, not a string-keyed lookup.
  std::vector<std::pair<const char*, Totals>> totals_;
  std::size_t recorded_ = 0;
};

// --- Metric sheet -----------------------------------------------------------

/// Named values, sorted by name.  Metric units live in one catalog
/// (catalog.h), so workloads hand back bare values.
using Values = std::map<std::string, double>;

/// Simulated outputs of one workload execution: every number a
/// simulator-speed change must leave identical, keyed by name.
using SimOutputs = Values;

// --- Output checks ----------------------------------------------------------

/// Tally of output checks.  Each failed check counts once into `failed`;
/// `notes` keeps a human-readable line per failure.
struct CheckLog {
  std::int64_t checks = 0;
  std::int64_t failed = 0;
  std::vector<std::string> notes;

  void expect(bool ok, const std::string& what);
};

/// One serving run's request accounting, as the public metrics report it.
struct ServingAccount {
  std::string label;
  std::int64_t arrived = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t cut = 0;  ///< arrived but neither completed nor shed
  std::int64_t generated_tokens = 0;
  std::int64_t expected_tokens = 0;  ///< sum of output_len over completed
};

/// completed + shed + cut == arrived, generated == expected, and every
/// arrived request completed (a request that never completes fails).
void check_serving_account(const ServingAccount& account, CheckLog* log);

/// A reproduced paper callout with the acceptance band the repository's
/// paper-claims test uses for it.
struct Callout {
  std::string name;   ///< "paper.<name>"
  double value = 0;   ///< reproduced (simulated)
  double paper = 0;   ///< published value
  double lo = 0;      ///< band, inclusive
  double hi = 0;
};

void check_callouts(const std::vector<Callout>& callouts, CheckLog* log);

/// Mean relative error |value / paper - 1| over the callouts.
double paper_error(const std::vector<Callout>& callouts);

/// Every key of `a` equals `b`'s bit for bit (and the key sets match).
void check_identical(const SimOutputs& a, const SimOutputs& b,
                     const std::string& what, CheckLog* log);

}  // namespace perfbench
