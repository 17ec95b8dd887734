#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) { stack_.reserve(16); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::open(const char* name) {
  Open entry{name, 0, 0, -1};
  if (kept_.size() < kMaxKeptSpans) {
    const std::int32_t parent =
        stack_.empty() ? -1 : stack_.back().kept_index;
    entry.kept_index = static_cast<std::int32_t>(kept_.size());
    kept_.push_back(Span{name, 0, 0, parent});
  }
  stack_.push_back(entry);
  stack_.back().start_ns = now_ns();  // last: keep bookkeeping out of the span
}

double Tracer::close() {
  const std::int64_t end = now_ns();
  Open entry = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - entry.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (entry.kept_index >= 0) {
    kept_[entry.kept_index].start_ns = entry.start_ns;
    kept_[entry.kept_index].end_ns = end;
  }
  auto slot = std::find_if(totals_.begin(), totals_.end(),
                           [&](const auto& e) { return e.first == entry.name; });
  if (slot == totals_.end()) {
    totals_.emplace_back(entry.name, Totals{});
    slot = totals_.end() - 1;
  }
  Totals& totals = slot->second;
  totals.count += 1;
  totals.total_s += static_cast<double>(duration) * 1e-9;
  totals.self_s += static_cast<double>(duration - entry.child_ns) * 1e-9;
  ++recorded_;
  return static_cast<double>(duration) * 1e-9;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::map<std::string, Totals> merged;
  for (const auto& [name, totals] : totals_) {
    Totals& out = merged[name];
    out.count += totals.count;
    out.total_s += totals.total_s;
    out.self_s += totals.self_s;
  }
  return merged;
}

Tracer::Totals Tracer::totals_for(const std::string& name) const {
  const auto merged = totals();
  const auto it = merged.find(name);
  return it == merged.end() ? Totals{} : it->second;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", file);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& span = kept_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                 span.parent);
  }
  std::fprintf(file, "],\"otherData\":{\"spans_recorded\":%zu,"
                     "\"spans_kept\":%zu}}\n",
               recorded_, kept_.size());
  return std::fclose(file) == 0;
}

// --- Checks -------------------------------------------------------------------

void CheckLog::expect(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++failed;
  notes.push_back(what);
}

void check_serving_account(const ServingAccount& account, CheckLog* log) {
  std::ostringstream id;
  id << account.label << ": ";
  log->expect(account.completed + account.shed + account.cut ==
                  account.arrived,
              id.str() + "completed + shed + cut != arrived");
  log->expect(account.generated_tokens == account.expected_tokens,
              id.str() + "generated tokens != sum of output_len over "
                         "completed requests");
  log->expect(account.completed == account.arrived,
              id.str() + std::to_string(account.arrived - account.completed) +
                  " request(s) never completed");
}

void check_callouts(const std::vector<Callout>& callouts, CheckLog* log) {
  for (const Callout& callout : callouts) {
    std::ostringstream what;
    what << callout.name << " = " << callout.value << " outside ["
         << callout.lo << ", " << callout.hi << "] (paper " << callout.paper
         << ")";
    log->expect(std::isfinite(callout.value) && callout.value >= callout.lo &&
                    callout.value <= callout.hi,
                what.str());
  }
}

double paper_error(const std::vector<Callout>& callouts) {
  if (callouts.empty()) return 0;
  double sum = 0;
  for (const Callout& callout : callouts) {
    sum += std::fabs(callout.value / callout.paper - 1.0);
  }
  return sum / static_cast<double>(callouts.size());
}

void check_identical(const SimOutputs& a, const SimOutputs& b,
                     const std::string& what, CheckLog* log) {
  bool same = a.size() == b.size();
  std::string first_diff;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end() ||
        std::memcmp(&it->second, &value, sizeof(double)) != 0) {
      same = false;
      if (first_diff.empty()) first_diff = key;
    }
  }
  log->expect(same, what + " differ" +
                        (first_diff.empty() ? "" : " (first: " + first_diff +
                                                       ")"));
}

}  // namespace perfbench
