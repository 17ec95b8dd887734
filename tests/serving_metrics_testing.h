#pragma once
// Whole-struct equality for ServingMetrics, shared by the serving tests
// that claim two runs are bit-identical (serial vs threaded sweeps, shared
// vs per-run cost caches, traced vs untraced engines, fast-forwarded vs
// per-step decode).  EXPECT_EQ on doubles, not NEAR: the claim is
// bit-identity.  The wall-clock fields sim_wall_seconds / steps_per_second
// are the only exclusions — they measure the host, not the simulation.
//
// ServingCounters and FaultStats are compared by walking their field lists
// (common/fields.h), so a member added there is compared automatically.
// The structs still compared by hand carry a static_assert on their member
// count: adding a field to one fails this header's build until the field
// is compared below and the count is bumped.

#include <gtest/gtest.h>

#include <cstddef>

#include "common/fields.h"
#include "serving/metrics.h"
#include "serving/obs_registry.h"
#include "serving/serving_sim.h"

namespace cimtpu::serving {

/// EXPECT_EQ on every entry of `S::fields()`, naming the entry on failure.
template <class S>
void expect_identical_fields(const S& a, const S& b) {
  for_each_field<S>([&a, &b](const auto& entry) {
    EXPECT_EQ(a.*entry.member, b.*entry.member) << entry.name;
  });
}

static_assert(field_count<LatencySummary>() == 6,
              "compare the new LatencySummary field below");
inline void expect_identical_latency(const LatencySummary& a,
                                     const LatencySummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.max, b.max);
}

static_assert(field_count<TenantMetrics>() == 8,
              "compare the new TenantMetrics field below");
static_assert(field_count<ServingMetrics>() == 37,
              "compare the new ServingMetrics field below");
inline void expect_identical_metrics(const ServingMetrics& a,
                                     const ServingMetrics& b) {
  EXPECT_EQ(a.chips, b.chips);
  EXPECT_EQ(a.num_requests, b.num_requests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);

  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.prefill_steps, b.prefill_steps);
  EXPECT_EQ(a.decode_steps, b.decode_steps);
  EXPECT_EQ(a.preemptions, b.preemptions);

  expect_identical_fields(a.counters, b.counters);

  EXPECT_EQ(a.prefix_hit_rate, b.prefix_hit_rate);
  EXPECT_EQ(a.kv_internal_fragmentation, b.kv_internal_fragmentation);

  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sim_end_seconds, b.sim_end_seconds);
  expect_identical_latency(a.ttft, b.ttft);
  expect_identical_latency(a.tpot, b.tpot);
  expect_identical_latency(a.e2e, b.e2e);
  EXPECT_EQ(a.goodput_tokens_per_second, b.goodput_tokens_per_second);

  EXPECT_EQ(a.slo_met, b.slo_met);
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.slo_goodput_tokens_per_second, b.slo_goodput_tokens_per_second);

  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.mttr_seconds, b.mttr_seconds);
  expect_identical_fields(a.fault, b.fault);

  EXPECT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size() && i < b.tenants.size(); ++i) {
    const TenantMetrics& ta = a.tenants[i];
    const TenantMetrics& tb = b.tenants[i];
    EXPECT_EQ(ta.tenant_id, tb.tenant_id);
    EXPECT_EQ(ta.weight, tb.weight);
    EXPECT_EQ(ta.num_requests, tb.num_requests);
    EXPECT_EQ(ta.completed, tb.completed);
    EXPECT_EQ(ta.generated_tokens, tb.generated_tokens);
    expect_identical_latency(ta.ttft, tb.ttft);
    expect_identical_latency(ta.e2e, tb.e2e);
    EXPECT_EQ(ta.goodput_tokens_per_second, tb.goodput_tokens_per_second);
  }
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);

  EXPECT_EQ(a.mxu_energy, b.mxu_energy);
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.energy_per_token, b.energy_per_token);
  EXPECT_EQ(a.mxu_utilization, b.mxu_utilization);

  // Cache stats count against the run-LOCAL cache view, so they are
  // independent of cache sharing and threading.
  EXPECT_EQ(a.cost_cache_entries, b.cost_cache_entries);
  EXPECT_EQ(a.cost_cache_hits, b.cost_cache_hits);
  EXPECT_EQ(a.cost_cache_misses, b.cost_cache_misses);
  EXPECT_EQ(a.cost_cache_occupancy, b.cost_cache_occupancy);

  // The registry export renders every counter, gauge and histogram at
  // round-trip precision, so one string compare covers all of it.
  EXPECT_EQ(a.registry.to_json(), b.registry.to_json());
  EXPECT_EQ(time_samples_json(a.timeseries), time_samples_json(b.timeseries));
}

}  // namespace cimtpu::serving
