// The benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--trace-file <path>]
//   perfbench --selftest
//
// Untraced (--trace 0): runs the timed unit from empty caches until
// --seconds have passed (fastest unit = wall_s), rebuilding the workload's
// inputs from the seed in a set-up slot before every unit (median slot =
// setup_s), checks every output, and prints the end-to-end metrics.
// Traced (--trace 1): a shorter untraced timing, then one traced execution
// whose spans give the per-layer metrics.  Human-readable lines start with '#'; the last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0).  "sim_" units are simulated (what the
// modelled chip would take); the rest are host measurements of the
// simulator itself.  failed_frac is printed in the table only: the JSON
// carries it as `attempted` / `failed`.
const MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"paper_err", "frac"},
    {"ttft_p50_s", "sim_s"},
    {"ttft_p99_s", "sim_s"},
    {"tpot_p50_s", "sim_s"},
    {"tpot_p99_s", "sim_s"},
    {"goodput_tok_s", "sim_tok/s"},
    {"j_per_token", "sim_J/tok"},
    {"max_rate_rps", "sim_req/s"},
    {"cim_capacity_x", "sim_x"},
};

// Per-layer metrics (--trace 1).  A layer a workload does not exercise
// reads 0 and is listed as not exercised.
const MetricDef kPerLayer[] = {
    {"request_gen.wall_s", "host_s"},
    {"request_gen.requests", "count"},
    {"models.build_s", "host_s"},
    {"models.ops", "count"},
    {"mapping.best_mapping_s", "host_s"},
    {"mapping.enumerate_s", "host_s"},
    {"mapping.candidates", "count"},
    {"sim.run_op_mxu_s", "host_s"},
    {"sim.run_op_vpu_s", "host_s"},
    {"sim.graph_run_s", "host_s"},
    {"sim.layer_eval_s", "host_s"},
    {"sim.run_layer_s", "host_s"},
    {"sim.layer_evals", "count"},
    {"sim.layer_eval_us_p50", "host_us"},
    {"sim.layer_eval_us_p99", "host_us"},
    {"sim.group_gain.qkv_gen", "sim_x"},
    {"sim.group_gain.attention", "sim_x"},
    {"sim.group_gain.proj", "sim_x"},
    {"sim.group_gain.ffn1", "sim_x"},
    {"sim.group_gain.ffn2", "sim_x"},
    {"sim.group_gain.layernorm", "sim_x"},
    {"paper.llm_best_gain", "sim_frac"},
    {"paper.dit_8x16x16_gain", "sim_frac"},
    {"paper.mxu_energy_2x8x8", "sim_x"},
    {"paper.decode_latency_gain", "sim_frac"},
    {"paper.decode_mxu_energy", "sim_x"},
    {"paper.attention_gemv_gain", "sim_frac"},
    {"step_cost_cache.cost_step_s", "host_s"},
    {"step_cost_cache.miss_s", "host_s"},
    {"step_cost_cache.hits", "count"},
    {"step_cost_cache.misses", "count"},
    {"step_cost_cache.hit_ratio", "ratio"},
    {"scheduler.next_step_s", "host_s"},
    {"scheduler.steps", "count"},
    {"scheduler.prefill_steps", "count"},
    {"scheduler.decode_steps", "count"},
    {"scheduler.batch_mean", "seqs"},
    {"scheduler.preemptions_recompute", "count"},
    {"kv_cache_manager.prefix_hit_rate", "ratio"},
    {"kv_cache_manager.blocks_allocated", "count"},
    {"kv_cache_manager.cow_blocks", "count"},
    {"kv_cache_manager.reclaimed_blocks", "count"},
    {"kv_cache_manager.fragmentation", "ratio"},
    {"serving_sim.pump_s", "host_s"},
    {"serving_sim.finish_s", "host_s"},
    {"serving_sim.steps_per_s", "host_1/s"},
    {"cluster.run_s", "host_s"},
    {"cluster.route_s", "host_s"},
    {"cluster.prefix_hit_rate", "ratio"},
    {"cluster.jain_across_replicas", "ratio"},
    {"sweep.run_s", "host_s"},
    {"sweep.overhead_s", "host_s"},
    {"sweep.shared_cost_entries", "count"},
    {"replay.steps", "count"},
    {"replay.cost_hits", "count"},
    {"replay.cost_misses", "count"},
    {"replay.mismatches", "count"},
    {"trace.overhead_s", "host_s"},
    {"trace.coverage", "ratio"},
    {"trace.spans", "count"},
};

constexpr const char* kRootSpan = "perfbench.traced";
// Set-up is sampled across the whole run, not only at its start: a slot of
// set-ups precedes every timed unit, so setup_s covers the same stretch of
// host time as wall_s.  A slot repeats the set-up until it has taken
// kSetupSlotShare of the previous unit's time (the first slot, before any
// unit, kFirstSlotSeconds), at least once, and yields one sample: its mean
// set-up time.  Micro-second set-ups are thus averaged over thousands of
// repeats per slot, and the samples stay few (one per unit).
constexpr double kSetupSlotShare = 0.05;
constexpr double kFirstSlotSeconds = 0.05;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  Scale scale = Scale::kFull;
  std::string trace_file;
  bool selftest = false;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--trace-file <path>]\n       perfbench --selftest\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      options.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1" ? 1 : 0;
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage("--scale: full or tiny");
      options.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!options.selftest &&
      (options.workload.empty() || options.seconds <= 0 || options.trace < 0)) {
    usage("--workload, --seconds and --trace are required");
  }
  return options;
}

/// Peak resident set of this process image, from VmHWM in /proc/self/status
/// (getrusage's ru_maxrss would also count the launcher before exec).
double peak_rss_mib() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(file);
  return kib / 1024.0;
}

/// One set-up slot: repeats the workload's set-up until `seconds` have
/// passed (at least once) and returns the mean seconds of one set-up.
double setup_slot(Workload* workload, std::uint64_t seed, double seconds) {
  const Clock::time_point start = Clock::now();
  std::int64_t count = 0;
  double elapsed = 0;
  do {
    workload->setup(seed, nullptr);
    ++count;
    elapsed = seconds_since(start);
  } while (elapsed < seconds);
  return elapsed / static_cast<double>(count);
}

/// The timed phase: runs the unit until `seconds` have passed (at least
/// `min_runs` times), each unit after a set-up slot.  Every run's simulated
/// outputs must equal the first's; returns the first run's outputs, the
/// per-run host times and the per-slot set-up times.
SimOutputs timed_runs(Workload* workload, std::uint64_t seed, double seconds,
                      int min_runs, std::vector<double>* walls,
                      std::vector<double>* setups, CheckLog* log) {
  SimOutputs first;
  const Clock::time_point phase_start = Clock::now();
  double slot_seconds = kFirstSlotSeconds;
  for (int run = 0; run < min_runs || seconds_since(phase_start) < seconds;
       ++run) {
    setups->push_back(setup_slot(workload, seed, slot_seconds));
    const Clock::time_point start = Clock::now();
    SimOutputs outputs = workload->run();
    walls->push_back(seconds_since(start));
    slot_seconds = kSetupSlotShare * walls->back();
    if (run == 0) {
      first = std::move(outputs);
    } else {
      check_identical(first, outputs,
                      "run " + std::to_string(run) + " simulated outputs vs "
                                                     "run 0",
                      log);
    }
  }
  return first;
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const Values& values, const MetricDef* defs,
                std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name,
                std::isfinite(value) ? value : 0.0, defs[i].unit);
  }
  std::printf("}}\n");
}

void print_table(const char* title, const Values& values, const MetricDef* defs,
                 std::size_t count) {
  std::printf("# %s\n", title);
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    std::printf("#   %-36s %14.6g %s%s\n", defs[i].name,
                it == values.end() ? 0.0 : it->second, defs[i].unit,
                it == values.end() ? "  (not exercised by this workload)" : "");
  }
}

int run_benchmark(const Options& options) {
  std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.scale);
  if (workload == nullptr) usage(("unknown workload " + options.workload).c_str());
  CheckLog log;

  // A traced run spends half its budget on the untraced reference timing.
  const bool traced = options.trace == 1;
  std::vector<double> walls;
  std::vector<double> setups;
  const SimOutputs outputs = timed_runs(
      workload.get(), options.seed,
      traced ? options.seconds / 2 : options.seconds, traced ? 2 : 3, &walls,
      &setups, &log);
  // On a shared host interference only ever adds time, so the fastest unit
  // is the steadiest estimate of the unit's cost (the median and quartiles
  // are printed below).
  const double wall_s = percentile(walls, 0);
  const std::int64_t runs = static_cast<std::int64_t>(walls.size());

  SimOutputs merged = outputs;
  const SimOutputs paper = paper_outputs();
  merged.insert(paper.begin(), paper.end());
  Values e2e;
  workload->summarize(merged, &e2e, &log);
  const std::vector<Callout> callouts = paper_callouts(paper);
  check_callouts(callouts, &log);
  e2e["paper_err"] = paper_error(callouts);
  e2e["wall_s"] = wall_s;
  e2e["setup_s"] = median(setups);

  std::int64_t attempted = workload->operations() * runs;
  std::int64_t incomplete = workload->incomplete(outputs) * runs;

  Values layers;
  if (traced) {
    Tracer tracer;
    double mirror_seconds = 0;
    SimOutputs traced_outputs;
    tracer.open(kRootSpan);
    workload->setup(options.seed, &tracer);
    traced_outputs =
        workload->run_traced(&tracer, &layers, &log, &mirror_seconds);
    const double traced_wall = tracer.close();
    check_identical(outputs, traced_outputs,
                    "traced vs untraced simulated outputs", &log);
    attempted += workload->operations();
    incomplete += workload->incomplete(traced_outputs);

    layers.insert(paper.begin(), paper.end());
    const Tracer::Totals gen = tracer.totals_for("request_gen");
    if (gen.count > 0) {
      layers["request_gen.wall_s"] = gen.total_s;
      layers["request_gen.requests"] =
          static_cast<double>(workload->generated_requests());
    }
    layers["trace.overhead_s"] = mirror_seconds - wall_s;
    double named_self = 0;
    for (const auto& [name, totals] : tracer.totals()) {
      if (name != kRootSpan) named_self += totals.self_s;
    }
    layers["trace.coverage"] = traced_wall > 0 ? named_self / traced_wall : 0;
    layers["trace.spans"] = static_cast<double>(tracer.spans_recorded());
    std::printf("# traced run: %.3f s, %zu spans; named layers cover %.1f%% "
                "of it, %.3f s unattributed\n",
                traced_wall, tracer.spans_recorded(),
                100.0 * layers["trace.coverage"], traced_wall - named_self);
    std::printf("# span totals (name: count, total s, self s)\n");
    for (const auto& [name, totals] : tracer.totals()) {
      std::printf("#   %-30s %10" PRId64 " %10.4f %10.4f\n", name.c_str(),
                  totals.count, totals.total_s, totals.self_s);
    }
    if (!options.trace_file.empty() &&
        !tracer.write_chrome_trace(options.trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_file.c_str());
    }
  }
  e2e["peak_rss_mb"] = peak_rss_mib();

  std::printf("# timed units: min %.4g  p25 %.4g  median %.4g  p75 %.4g  "
              "max %.4g s\n",
              wall_s, percentile(walls, 25), median(walls),
              percentile(walls, 75), percentile(walls, 100));
  const std::int64_t failed = incomplete + log.failed;
  std::printf("# set-up slots: min %.4g  p25 %.4g  median %.4g  p75 %.4g  "
              "max %.4g s per set-up\n",
              percentile(setups, 0), percentile(setups, 25), median(setups),
              percentile(setups, 75), percentile(setups, 100));
  std::printf("# workload %s, seed %" PRIu64 ", %" PRId64
              " timed run(s) of the unit, %zu set-up slot(s); arrivals are "
              "open loop in simulated time (generator lateness 0 s)\n",
              options.workload.c_str(), options.seed, runs, setups.size());
  std::printf("# output checks: %" PRId64 " run, %" PRId64 " failed; %" PRId64
              " of %" PRId64 " operations incomplete\n",
              log.checks, log.failed, incomplete, attempted);
  workload->print_details(outputs);
  for (const std::string& note : log.notes) {
    std::printf("# FAILED CHECK: %s\n", note.c_str());
  }
  Values table = e2e;
  table["failed_frac"] =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 0.0;
  const MetricDef failed_frac = {"failed_frac", "frac"};
  print_table("end-to-end (sim_* = simulated; others = host)", table, kEndToEnd,
              std::size(kEndToEnd));
  print_table("", table, &failed_frac, 1);
  if (traced) {
    print_table("per layer (traced run)", layers, kPerLayer,
                std::size(kPerLayer));
    print_json(failed == 0, attempted, failed, layers, kPerLayer,
               std::size(kPerLayer));
  } else {
    print_json(failed == 0, attempted, failed, e2e, kEndToEnd,
               std::size(kEndToEnd));
  }
  return 0;
}

/// Feeds every output check a deliberately corrupted result and confirms it
/// fires.  Returns the number of corruptions no check caught.
int run_selftest() {
  int missed = 0;
  auto report = [&](const std::string& workload, const std::string& what,
                    bool fired) {
    std::printf("selftest %-15s %-55s %s\n", workload.c_str(), what.c_str(),
                fired ? "fired" : "MISSED");
    if (!fired) ++missed;
  };
  const SimOutputs paper = paper_outputs();
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> workload = make_workload(name, Scale::kTiny);
    workload->setup(1, nullptr);
    SimOutputs outputs = workload->run();
    outputs.insert(paper.begin(), paper.end());
    // A corruption fires when some check reports a failure the clean
    // outputs did not have.
    auto failures = [&](const SimOutputs& candidate) {
      CheckLog log;
      Values e2e;
      workload->summarize(candidate, &e2e, &log);
      check_callouts(paper_callouts(candidate), &log);
      std::set<std::string> notes(log.notes.begin(), log.notes.end());
      if (workload->incomplete(candidate) > 0) notes.insert("incomplete");
      return notes;
    };
    std::vector<Corruption> corruptions = workload->corruptions();
    corruptions.push_back({"paper callout outside its band",
                           [](SimOutputs* o) {
                             (*o)["paper.decode_latency_gain"] = 0.9;
                           },
                           nullptr});
    for (const Corruption& corruption : corruptions) {
      SimOutputs base = outputs;
      if (corruption.repair) corruption.repair(&base);
      SimOutputs corrupted = base;
      corruption.apply(&corrupted);
      const std::set<std::string> before = failures(base);
      bool fired = false;
      for (const std::string& note : failures(corrupted)) {
        fired = fired || before.count(note) == 0;
      }
      report(name, corruption.name, fired);
    }
    // Traced-vs-untraced identity: one output perturbed by one ulp.
    SimOutputs perturbed = outputs;
    double& value = perturbed.begin()->second;
    value = std::nextafter(value, INFINITY);
    CheckLog log;
    check_identical(outputs, perturbed, "perturbed", &log);
    report(name, "traced output differs by one ulp", log.failed == 1);
  }
  std::printf("selftest: %d corruption(s) missed\n", missed);
  return missed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return options.selftest ? perfbench::run_selftest()
                            : perfbench::run_benchmark(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
