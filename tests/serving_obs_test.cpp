// Observability-layer tests: the shared percentile/histogram math, the
// metrics registry and time-series sampler, and — most importantly — the
// tracing CONTRACT: enabling event tracing must leave every simulated
// metric bit-identical (checked across all six golden-pinned policy x
// chunk combinations), traces must reconcile exactly against
// ServingMetrics (TTFT/e2e recomputed purely from trace events), trace
// files must be byte-identical whatever the sweep thread count, and a
// preempted request's event sequence must follow the lifecycle grammar.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving/obs_registry.h"
#include "serving/stats.h"
#include "serving/sweep.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"
#include "serving_metrics_testing.h"

namespace cimtpu::serving {
namespace {

// --- Shared percentile math (satellite: dedup with unit tests) ---------------

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({}, 0.0), 0.0);
  EXPECT_EQ(percentile({}, 100.0), 0.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_EQ(percentile({7.5}, 50.0), 7.5);
  EXPECT_EQ(percentile({7.5}, 100.0), 7.5);
}

TEST(Percentile, EdgesAreMinAndMax) {
  const std::vector<double> values = {3.0, 1.0, 4.0, 1.5, 9.0};
  EXPECT_EQ(percentile(values, 0.0), 1.0);
  EXPECT_EQ(percentile(values, 100.0), 9.0);
}

TEST(Percentile, LinearInterpolationMatchesNumpyConvention) {
  // numpy.percentile([1, 2, 3, 4], 50) == 2.5; 25 -> 1.75.
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 25.0), 1.75);
}

TEST(Percentile, SortedFormAgreesWithSortingForm) {
  const std::vector<double> sorted = {0.5, 1.0, 2.0, 8.0};
  for (double p : {0.0, 10.0, 50.0, 90.0, 100.0}) {
    EXPECT_EQ(percentile_sorted(sorted, p), percentile(sorted, p));
  }
}

TEST(ExponentialBounds, GeometricAndStrictlyAscending) {
  const std::vector<double> bounds = exponential_bounds(1e-3, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-3);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

// --- Fixed-bucket histogram --------------------------------------------------

TEST(FixedBucketHistogram, EmptyHistogramIsAllZero) {
  const FixedBucketHistogram histogram(exponential_bounds(1.0, 2.0, 4));
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.sum(), 0.0);
  EXPECT_EQ(histogram.mean(), 0.0);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 0.0);
  EXPECT_EQ(histogram.quantile(50.0), 0.0);
}

TEST(FixedBucketHistogram, CountsSumAndOverflowBucket) {
  FixedBucketHistogram histogram({1.0, 2.0, 4.0});
  ASSERT_EQ(histogram.bucket_counts().size(), 4u);  // 3 bounds + overflow
  histogram.observe(0.5);   // bucket 0 (<= 1)
  histogram.observe(1.5);   // bucket 1 (<= 2)
  histogram.observe(3.0);   // bucket 2 (<= 4)
  histogram.observe(100.0); // overflow
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.sum(), 105.0);
  EXPECT_EQ(histogram.min(), 0.5);
  EXPECT_EQ(histogram.max(), 100.0);
  EXPECT_EQ(histogram.bucket_counts()[0], 1);
  EXPECT_EQ(histogram.bucket_counts()[1], 1);
  EXPECT_EQ(histogram.bucket_counts()[2], 1);
  EXPECT_EQ(histogram.bucket_counts()[3], 1);
}

TEST(FixedBucketHistogram, QuantileEdgesAreExactMinMax) {
  FixedBucketHistogram histogram({1.0, 10.0, 100.0});
  histogram.observe(0.25);
  histogram.observe(5.0);
  histogram.observe(42.0);
  EXPECT_EQ(histogram.quantile(0.0), 0.25);
  EXPECT_EQ(histogram.quantile(100.0), 42.0);
  // Interior quantiles stay inside the observed range.
  const double q50 = histogram.quantile(50.0);
  EXPECT_GE(q50, 0.25);
  EXPECT_LE(q50, 42.0);
}

TEST(FixedBucketHistogram, SingleObservation) {
  FixedBucketHistogram histogram({1.0, 2.0});
  histogram.observe(1.5);
  EXPECT_EQ(histogram.quantile(0.0), 1.5);
  EXPECT_EQ(histogram.quantile(50.0), 1.5);
  EXPECT_EQ(histogram.quantile(100.0), 1.5);
}

TEST(FixedBucketHistogram, RejectsNonAscendingBounds) {
  EXPECT_THROW(FixedBucketHistogram({2.0, 1.0}), ConfigError);
  EXPECT_THROW(FixedBucketHistogram({1.0, 1.0}), ConfigError);
}

// --- Metrics registry --------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.counter("b.count") += 3;
  registry.counter("a.count") = 7;
  registry.gauge("z.load") = 0.5;
  registry.histogram("lat", {1.0, 2.0}).observe(1.5);
  EXPECT_EQ(registry.counters().at("a.count"), 7);
  EXPECT_EQ(registry.counters().at("b.count"), 3);
  EXPECT_EQ(registry.gauges().at("z.load"), 0.5);
  EXPECT_EQ(registry.histograms().at("lat").count(), 1);
  // First registration wins: later bounds are ignored, counts persist.
  registry.histogram("lat", {99.0}).observe(1.6);
  EXPECT_EQ(registry.histograms().at("lat").count(), 2);
  EXPECT_EQ(registry.histograms().at("lat").upper_bounds().size(), 2u);
}

TEST(MetricsRegistry, ToJsonIsDeterministicAndOrdered) {
  MetricsRegistry registry;
  registry.counter("zz") = 1;
  registry.counter("aa") = 2;
  registry.gauge("mid") = 1.25;
  registry.histogram("h", {1.0}).observe(0.5);
  const std::string json = registry.to_json();
  // Lexicographic key order regardless of insertion order.
  EXPECT_LT(json.find("\"aa\""), json.find("\"zz\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bucket_counts\""), std::string::npos);
  // Identical registries -> identical bytes.
  MetricsRegistry other;
  other.histogram("h", {1.0}).observe(0.5);
  other.gauge("mid") = 1.25;
  other.counter("aa") = 2;
  other.counter("zz") = 1;
  EXPECT_EQ(json, other.to_json());
}

TEST(JsonDouble, RoundTripsAndSanitizes) {
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(std::stod(json_double(0.1)), 0.1);
  EXPECT_EQ(std::stod(json_double(1e300)), 1e300);
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "0");
}

// --- Time-series sampler -----------------------------------------------------

TEST(TimeSeriesSampler, DisabledAtZeroInterval) {
  TimeSeriesSampler sampler(0);
  EXPECT_FALSE(sampler.enabled());
  EXPECT_FALSE(sampler.due(1e9));
}

TEST(TimeSeriesSampler, BurstAcrossIntervalsYieldsOneSample) {
  TimeSeriesSampler sampler(1.0);
  EXPECT_TRUE(sampler.due(0.0));  // first sample at the first step
  TimeSample sample;
  sample.time = 5.5;  // one step jumped 5 intervals
  sampler.record(sample);
  EXPECT_FALSE(sampler.due(5.9));
  EXPECT_TRUE(sampler.due(6.0));
  EXPECT_EQ(sampler.samples().size(), 1u);
}

// --- Tracing contract: bit-identical metrics on/off --------------------------

ServingScenario golden_scenario(EvictionPolicy policy, std::int64_t chunk) {
  return llama7b_pressured_scenario(1, ir::DType::kInt4, policy, chunk,
                                    /*kv_budget_tokens=*/2000);
}

RequestStreamConfig golden_stream() {
  RequestStreamConfig stream;
  stream.seed = 42;
  stream.num_requests = 120;
  stream.arrival_rate = 50.0;
  stream.prompt.kind = LengthDistribution::kFixed;
  stream.prompt.mean = 256;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 64;
  stream.output.max_len = 256;
  stream.priority_classes = 3;
  return stream;
}

TEST(TracingContract, MetricsBitIdenticalOnAndOffAcrossGoldenGrid) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
        EvictionPolicy::kPriorityVictim}) {
    for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{512}}) {
      SCOPED_TRACE(std::string(eviction_policy_name(policy)) + " chunk=" +
                   std::to_string(chunk));
      const ServingMetrics off =
          run_serving(golden_scenario(policy, chunk), requests);
      ServingScenario traced = golden_scenario(policy, chunk);
      traced.trace.enabled = true;
      traced.trace.sample_interval = 0.25;
      ServingTrace trace;
      const ServingMetrics on =
          run_serving(traced, requests, nullptr, &trace);
      EXPECT_FALSE(trace.events().empty());
      EXPECT_FALSE(on.timeseries.empty());
      EXPECT_TRUE(off.timeseries.empty());
      // The samples are the one intended difference; every other field
      // must match.
      ServingMetrics on_unsampled = on;
      on_unsampled.timeseries.clear();
      expect_identical_metrics(off, on_unsampled);
    }
  }
}

TEST(TracingContract, DisabledTraceRecordsNothing) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(metrics.timeseries.empty());
}

TEST(TracingContract, SamplingWithoutEventTracing) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  scenario.trace.sample_interval = 1.0;  // enabled stays false
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);
  EXPECT_TRUE(trace.events().empty());
  ASSERT_FALSE(metrics.timeseries.empty());
  // Samples are monotone in time and step, and KV occupancy is sane.
  for (std::size_t i = 0; i < metrics.timeseries.size(); ++i) {
    const TimeSample& sample = metrics.timeseries[i];
    EXPECT_GE(sample.kv_occupied_blocks, sample.kv_referenced_blocks);
    EXPECT_LE(sample.kv_occupied_blocks, sample.kv_capacity_blocks);
    if (i > 0) {
      EXPECT_GT(sample.time, metrics.timeseries[i - 1].time);
      EXPECT_GE(sample.step, metrics.timeseries[i - 1].step);
    }
  }
}

// --- Trace content: lifecycle grammar of a preempted request ------------------

std::vector<TraceEventType> events_for_request(
    const std::vector<TraceEvent>& events, std::int64_t id) {
  std::vector<TraceEventType> sequence;
  for (const TraceEvent& event : events) {
    if (event.request_id == id) sequence.push_back(event.type);
  }
  return sequence;
}

TEST(TraceContent, PreemptedRequestFollowsLifecycleGrammar) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  scenario.trace.enabled = true;
  ServingTrace trace;
  run_serving(scenario, requests, nullptr, &trace);

  std::int64_t victim = -1;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kPreempt) {
      victim = event.request_id;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "pressured run must preempt someone";

  const std::vector<TraceEventType> sequence =
      events_for_request(trace.events(), victim);
  ASSERT_GE(sequence.size(), 5u);
  // Exact sequence grammar for a recompute victim with whole-prompt
  // prefill: arrive, then per admission round one admit followed by one
  // prefill_chunk, decode_enter at prompt completion, first_token emitted
  // exactly once, preempt between rounds, finish last.
  EXPECT_EQ(sequence.front(), TraceEventType::kArrive);
  EXPECT_EQ(sequence[1], TraceEventType::kAdmit);
  EXPECT_EQ(sequence.back(), TraceEventType::kFinish);
  std::int64_t admits = 0, preempts = 0, chunks = 0, first_tokens = 0;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    switch (sequence[i]) {
      case TraceEventType::kAdmit:
        admits += 1;
        // Recompute re-queues the prompt: every admit is followed by a
        // prefill chunk before anything else happens to this request.
        ASSERT_LT(i + 1, sequence.size());
        EXPECT_EQ(sequence[i + 1], TraceEventType::kPrefillChunk);
        break;
      case TraceEventType::kPreempt:
        preempts += 1;
        break;
      case TraceEventType::kPrefillChunk:
        chunks += 1;
        break;
      case TraceEventType::kFirstToken:
        first_tokens += 1;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(admits, preempts + 1);  // every preemption re-admits once
  EXPECT_EQ(chunks, admits);        // chunk=0: one whole-prompt chunk each
  EXPECT_EQ(first_tokens, 1);       // TTFT is the FIRST emission only
  // Event times never go backwards within a request's lifecycle.
  Seconds last_time = -1;
  for (const TraceEvent& event : trace.events()) {
    if (event.request_id != victim) continue;
    EXPECT_GE(event.time, last_time);
    last_time = event.time;
  }
}

TEST(TraceContent, SwapVictimPairsSwapOutWithSwapIn) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario = golden_scenario(EvictionPolicy::kSwapToHost, 0);
  scenario.trace.enabled = true;
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);
  ASSERT_GT(metrics.counters.preemptions_swap, 0);
  std::int64_t swap_outs = 0, swap_ins = 0;
  Bytes out_bytes = 0, in_bytes = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kSwapOut) {
      swap_outs += 1;
      out_bytes += event.bytes;
      EXPECT_GT(event.bytes, 0);
    } else if (event.type == TraceEventType::kSwapIn) {
      swap_ins += 1;
      in_bytes += event.bytes;
    }
  }
  // The trace IS the counter stream: totals must match exactly.
  EXPECT_EQ(swap_outs, metrics.counters.preemptions_swap);
  EXPECT_EQ(swap_ins, metrics.counters.swap_ins);
  EXPECT_EQ(out_bytes, metrics.counters.swap_out_bytes);
  EXPECT_EQ(in_bytes, metrics.counters.swap_in_bytes);
}

// --- Reconciliation: metrics recomputed from the trace alone ------------------

TEST(TraceContent, TimelinesReconcileExactlyWithMetrics) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPriorityVictim, 512);
  scenario.trace.enabled = true;
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);

  std::vector<double> ttft, e2e;
  std::int64_t completed = 0, generated = 0;
  for (const RequestTimeline& timeline :
       trace_request_timelines(trace.events())) {
    EXPECT_GE(timeline.arrival, 0);
    if (timeline.first_token >= 0) {
      ttft.push_back(timeline.first_token - timeline.arrival);
      EXPECT_GE(timeline.first_admit, timeline.arrival);
    }
    if (timeline.completion >= 0) {
      completed += 1;
      generated += timeline.generated_tokens;
      e2e.push_back(timeline.completion - timeline.arrival);
    }
  }
  // Request ids are assigned in arrival order, so the id-ordered timeline
  // vectors accumulate in the same order as the metrics rollup: the whole
  // summary — mean included — matches BIT FOR BIT, not approximately.
  const LatencySummary trace_ttft = summarize_latencies(ttft);
  const LatencySummary trace_e2e = summarize_latencies(e2e);
  EXPECT_EQ(completed, metrics.completed);
  EXPECT_EQ(generated, metrics.generated_tokens);
  EXPECT_EQ(trace_ttft.count, metrics.ttft.count);
  EXPECT_EQ(trace_ttft.mean, metrics.ttft.mean);
  EXPECT_EQ(trace_ttft.p50, metrics.ttft.p50);
  EXPECT_EQ(trace_ttft.p95, metrics.ttft.p95);
  EXPECT_EQ(trace_ttft.p99, metrics.ttft.p99);
  EXPECT_EQ(trace_ttft.max, metrics.ttft.max);
  EXPECT_EQ(trace_e2e.count, metrics.e2e.count);
  EXPECT_EQ(trace_e2e.mean, metrics.e2e.mean);
  EXPECT_EQ(trace_e2e.p50, metrics.e2e.p50);
  EXPECT_EQ(trace_e2e.p99, metrics.e2e.p99);
  EXPECT_EQ(trace_e2e.max, metrics.e2e.max);
}

// --- Registry publication ----------------------------------------------------

TEST(RegistryPublication, SubsystemsPublishIntoRunRegistry) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  const ServingMetrics metrics =
      run_serving(golden_scenario(EvictionPolicy::kSwapToHost, 512), requests);
  const auto& counters = metrics.registry.counters();
  // Scheduler counters mirror ServingCounters exactly.
  EXPECT_EQ(counters.at("scheduler.preemptions_swap"),
            metrics.counters.preemptions_swap);
  EXPECT_EQ(counters.at("scheduler.chunked_prefill_steps"),
            metrics.counters.chunked_prefill_steps);
  // Cost-cache stats (satellite: surfaced per run for the first time).
  EXPECT_EQ(counters.at("cost_cache.hits"), metrics.cost_cache_hits);
  EXPECT_EQ(counters.at("cost_cache.misses"), metrics.cost_cache_misses);
  EXPECT_EQ(counters.at("cost_cache.entries"),
            static_cast<std::int64_t>(metrics.cost_cache_entries));
  EXPECT_GT(metrics.cost_cache_occupancy, 0.0);
  EXPECT_LE(metrics.cost_cache_occupancy, 1.0);
  EXPECT_EQ(metrics.registry.gauges().at("cost_cache.occupancy"),
            metrics.cost_cache_occupancy);
  // KV manager and engine instruments exist and are coherent.
  EXPECT_GT(counters.at("kv.capacity_blocks"), 0);
  EXPECT_GE(counters.at("kv.blocks_allocated_total"), 0);
  EXPECT_EQ(counters.at("engine.total_steps"), metrics.total_steps);
  const FixedBucketHistogram& latency =
      metrics.registry.histograms().at("engine.step_latency_s");
  EXPECT_EQ(latency.count(), metrics.total_steps);
}

// --- Sweep integration: byte-identical trace files across thread counts ------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SweepTracing, TraceFilesByteIdenticalAcrossThreadCounts) {
  ServingSweep sweep;
  sweep.arrival_rates = {50.0};
  sweep.models = {golden_scenario(EvictionPolicy::kPreemptNewest, 0).model};
  sweep.chip_counts = {1};
  sweep.policies = {EvictionPolicy::kPreemptNewest,
                    EvictionPolicy::kSwapToHost};
  sweep.base = golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  sweep.base.trace.enabled = true;
  sweep.base.trace.sample_interval = 1.0;
  sweep.base.trace.write_jsonl = true;
  sweep.stream = golden_stream();

  std::vector<std::string> names;
  std::vector<std::string> serial_bytes;
  for (int threads : {1, 2}) {
    sweep.base.trace.dir =
        "obs_test_traces_t" + std::to_string(threads);
    SweepOptions options;
    options.threads = threads;
    const std::vector<SweepCellResult> cells =
        run_serving_sweep(sweep, options);
    ASSERT_EQ(cells.size(), 2u);
    if (threads == 1) {
      // run_serving_sweep derives one sanitized label per cell.
      for (const SweepCellResult& cell : cells) {
        std::string label = "serving." + sanitize_trace_label(
            "rate=50 model=" + cell.model + "/" +
            ir::dtype_name(cell.dtype) + " chips=1 policy=" +
            eviction_policy_name(cell.policy) +
            " admission=fifo block=" +
            std::to_string(cell.kv_block_tokens) + " prefix_cache=" +
            (cell.prefix_caching ? "on" : "off"));
        names.push_back(label + ".trace.json");
        names.push_back(label + ".jsonl");
      }
      for (const std::string& name : names) {
        serial_bytes.push_back(read_file(sweep.base.trace.dir + "/" + name));
        EXPECT_FALSE(serial_bytes.back().empty());
      }
    } else {
      for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(read_file(sweep.base.trace.dir + "/" + names[i]),
                  serial_bytes[i])
            << names[i] << " differs between thread counts";
      }
    }
  }
  // Perfetto structural sanity on one of the serial files.
  ASSERT_FALSE(serial_bytes.empty());
  const std::string& perfetto = serial_bytes[0];
  EXPECT_EQ(perfetto.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(perfetto.find("\"process_name\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"ph\":\"C\""), std::string::npos);
}

}  // namespace
}  // namespace cimtpu::serving
