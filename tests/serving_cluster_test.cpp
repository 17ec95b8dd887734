// Cluster-scale serving wall: router-policy ordering and stickiness, the
// registry's unknown-name diagnostics, the N=1 + round_robin bit-identity
// contract against the single-engine path, colocated multi-replica
// conservation, prefix-affinity routing beating round-robin on
// cluster-wide prefix hit rate, disaggregated prefill/decode KV-transfer
// reconciliation against the IciFabric cost model, the tensor-parallel
// serving dispatch, IciFabric edge cases, the batched-prefill costing
// satellite, and 1-vs-4-thread sweep bit-identity for cluster cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "arch/chip.h"
#include "common/status.h"
#include "mem/link.h"
#include "models/model_zoo.h"
#include "serving/cluster.h"
#include "serving/kv_cache_manager.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/sweep.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

Request make_request(std::int64_t id, Seconds arrival,
                     std::int64_t tenant_id = 0, std::int64_t prefix_id = -1) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.prompt_len = 64;
  request.output_len = 8;
  request.tenant_id = tenant_id;
  request.prefix_id = prefix_id;
  return request;
}

std::vector<ReplicaLoad> loads_of(std::initializer_list<std::int64_t> tokens) {
  std::vector<ReplicaLoad> loads;
  for (std::int64_t t : tokens) loads.push_back(ReplicaLoad{t});
  return loads;
}

// --- Router policy registry --------------------------------------------------

TEST(RouterRegistryTest, BuiltinNamesSorted) {
  const std::vector<std::string> names = router_policy_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* builtin :
       {"least_loaded", "prefix_affinity", "round_robin", "tenant_sticky"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), builtin), names.end())
        << builtin;
  }
}

TEST(RouterRegistryTest, UnknownNameListsRegisteredPolicies) {
  try {
    make_router_policy("nope", 2);
    FAIL() << "unknown router policy must throw";
  } catch (const ConfigError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("nope"), std::string::npos);
    EXPECT_NE(message.find("round_robin"), std::string::npos);
    EXPECT_NE(message.find("prefix_affinity"), std::string::npos);
  }
}

TEST(RouterRegistryTest, CustomPolicyRegistersAndRoutes) {
  register_router_policy("test_always_last", [](int n) {
    class AlwaysLast final : public RouterPolicy {
     public:
      explicit AlwaysLast(int n) : last_(n - 1) {}
      int route(const Request&, const std::vector<ReplicaLoad>&) override {
        return last_;
      }

     private:
      int last_;
    };
    return std::make_unique<AlwaysLast>(n);
  });
  auto policy = make_router_policy("test_always_last", 3);
  EXPECT_EQ(policy->route(make_request(0, 0.0), loads_of({0, 0, 0})), 2);
}

// --- Builtin policies --------------------------------------------------------

TEST(RouterPolicyTest, RoundRobinCyclesReplicas) {
  auto policy = make_router_policy("round_robin", 3);
  const auto loads = loads_of({100, 0, 50});  // loads must be ignored
  for (int expected : {0, 1, 2, 0, 1, 2, 0}) {
    EXPECT_EQ(policy->route(make_request(0, 0.0), loads), expected);
  }
}

TEST(RouterPolicyTest, LeastLoadedPicksMinimumTiesToLowestIndex) {
  auto policy = make_router_policy("least_loaded", 4);
  EXPECT_EQ(policy->route(make_request(0, 0.0), loads_of({30, 10, 20, 40})), 1);
  EXPECT_EQ(policy->route(make_request(1, 0.0), loads_of({5, 5, 5, 5})), 0);
  EXPECT_EQ(policy->route(make_request(2, 0.0), loads_of({9, 3, 3, 8})), 1);
}

TEST(RouterPolicyTest, PrefixAffinitySticksToFirstPick) {
  auto policy = make_router_policy("prefix_affinity", 3);
  // First sight of prefix 7: least-loaded fallback picks replica 2.
  EXPECT_EQ(policy->route(make_request(0, 0.0, 0, 7), loads_of({9, 9, 1})), 2);
  // Same prefix sticks to replica 2 even when its load is now worst.
  EXPECT_EQ(policy->route(make_request(1, 1.0, 0, 7), loads_of({1, 1, 99})),
            2);
  // Untagged requests always fall back to least-loaded.
  EXPECT_EQ(policy->route(make_request(2, 2.0, 0, -1), loads_of({1, 0, 99})),
            1);
  // A different prefix makes its own sticky pick.
  EXPECT_EQ(policy->route(make_request(3, 3.0, 0, 8), loads_of({0, 5, 99})),
            0);
  EXPECT_EQ(policy->route(make_request(4, 4.0, 0, 8), loads_of({77, 0, 0})),
            0);
}

TEST(RouterPolicyTest, PrefixAffinityFirstTouchTiesSpreadFamilies) {
  auto policy = make_router_policy("prefix_affinity", 4);
  const auto idle = loads_of({0, 0, 0, 0});
  // Replica 0 owns family 10 but is idle again when family 11 first
  // arrives: the tie goes to a replica that owns no family.
  EXPECT_EQ(policy->route(make_request(0, 0.0, 0, 10), idle), 0);
  EXPECT_EQ(policy->route(make_request(1, 1.0, 0, 11), idle), 1);
  EXPECT_EQ(policy->route(make_request(2, 2.0, 0, 12), idle), 2);
  EXPECT_EQ(policy->route(make_request(3, 3.0, 0, 13), idle), 3);
  // Every replica owns one family: the tie falls back to the lowest index.
  EXPECT_EQ(policy->route(make_request(4, 4.0, 0, 14), idle), 0);
  // Load still comes first: the less-loaded replica wins even though it
  // owns more families.
  EXPECT_EQ(policy->route(make_request(5, 5.0, 0, 15), loads_of({1, 2, 2, 2})),
            0);
  // Untagged requests keep plain least-loaded (ties to the lowest index).
  EXPECT_EQ(policy->route(make_request(6, 6.0, 0, -1), idle), 0);
}

TEST(RouterPolicyTest, TenantStickyAssignsFirstSeenRoundRobin) {
  auto policy = make_router_policy("tenant_sticky", 2);
  const auto loads = loads_of({0, 0});
  EXPECT_EQ(policy->route(make_request(0, 0.0, /*tenant=*/5), loads), 0);
  EXPECT_EQ(policy->route(make_request(1, 1.0, /*tenant=*/9), loads), 1);
  EXPECT_EQ(policy->route(make_request(2, 2.0, /*tenant=*/5), loads), 0);
  EXPECT_EQ(policy->route(make_request(3, 3.0, /*tenant=*/9), loads), 1);
  EXPECT_EQ(policy->route(make_request(4, 4.0, /*tenant=*/11), loads), 0);
}

// --- N=1 bit-identity --------------------------------------------------------

TEST(ClusterSingleReplicaTest, BitIdenticalToSingleEnginePath) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/42, 300, 20.0));
  const ServingScenario scenario =
      llama7b_baseline_scenario(1, ir::DType::kInt4);

  const ServingMetrics single = run_serving(scenario, requests);

  ClusterConfig config;
  config.base = scenario;
  config.replicas = {ReplicaSpec{}};
  config.router_policy = "round_robin";
  const ClusterMetrics cluster = run_serving_cluster(config, requests);

  ASSERT_EQ(cluster.replica_metrics.size(), 1u);
  const ServingMetrics& replica = cluster.replica_metrics[0];
  // Exact equality, not approximate — this is the golden-pin contract.
  EXPECT_EQ(replica.total_steps, single.total_steps);
  EXPECT_EQ(replica.prefill_steps, single.prefill_steps);
  EXPECT_EQ(replica.decode_steps, single.decode_steps);
  EXPECT_EQ(replica.completed, single.completed);
  EXPECT_EQ(replica.generated_tokens, single.generated_tokens);
  EXPECT_EQ(replica.makespan, single.makespan);
  EXPECT_EQ(replica.ttft.p50, single.ttft.p50);
  EXPECT_EQ(replica.ttft.p99, single.ttft.p99);
  EXPECT_EQ(replica.tpot.p99, single.tpot.p99);
  EXPECT_EQ(replica.e2e.p99, single.e2e.p99);
  EXPECT_EQ(replica.goodput_tokens_per_second,
            single.goodput_tokens_per_second);
  EXPECT_EQ(replica.energy_per_token, single.energy_per_token);
  EXPECT_EQ(replica.mxu_utilization, single.mxu_utilization);
  // The whole registry, byte for byte.
  EXPECT_EQ(replica.registry.to_json(), single.registry.to_json());

  // The stitched cluster view agrees with the lone replica.
  EXPECT_EQ(cluster.replicas, 1);
  EXPECT_EQ(cluster.completed, single.completed);
  EXPECT_EQ(cluster.generated_tokens, single.generated_tokens);
  EXPECT_EQ(cluster.makespan, single.makespan);
  EXPECT_EQ(cluster.ttft.p99, single.ttft.p99);
  EXPECT_EQ(cluster.e2e.p99, single.e2e.p99);
  EXPECT_EQ(cluster.kv_transfer_count, 0);
}

TEST(ClusterSingleReplicaTest, UnknownRouterPolicyFailsAtOneReplicaToo) {
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.router_policy = "bogus";
  EXPECT_THROW(run_serving_cluster(config, {}), ConfigError);
}

// --- Colocated multi-replica -------------------------------------------------

TEST(ClusterColocatedTest, RequestsConserveAcrossReplicas) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/7, 300, 30.0));
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.replicas.assign(4, ReplicaSpec{});
  config.router_policy = "round_robin";
  const ClusterMetrics cluster = run_serving_cluster(config, requests);

  EXPECT_EQ(cluster.replicas, 4);
  EXPECT_EQ(cluster.total_chips, 4);
  ASSERT_EQ(cluster.replica_metrics.size(), 4u);
  std::int64_t replica_completed = 0, replica_tokens = 0;
  for (const ServingMetrics& replica : cluster.replica_metrics) {
    EXPECT_GT(replica.completed, 0);  // round robin spreads everyone work
    replica_completed += replica.completed;
    replica_tokens += replica.generated_tokens;
  }
  EXPECT_EQ(replica_completed, 300);
  EXPECT_EQ(cluster.completed, 300);
  EXPECT_EQ(cluster.arrived, 300);
  EXPECT_EQ(cluster.shed, 0);
  EXPECT_EQ(cluster.generated_tokens, replica_tokens);
  EXPECT_EQ(cluster.ttft.count, 300);
  EXPECT_EQ(cluster.e2e.count, 300);
  EXPECT_GT(cluster.jain_across_replicas, 0.9);  // RR is near-even
  EXPECT_LE(cluster.jain_across_replicas, 1.0);
  EXPECT_EQ(cluster.replica_utilization.size(), 4u);
  EXPECT_EQ(cluster.kv_transfer_count, 0);  // colocated: nothing streams
  const std::string registry_json = cluster.registry.to_json();
  EXPECT_NE(registry_json.find("cluster.replicas"), std::string::npos);
  EXPECT_NE(registry_json.find("cluster.replica3.utilization"),
            std::string::npos);
}

TEST(ClusterColocatedTest, FourReplicasBeatOneOnOverloadedTraffic) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/13, 240, 40.0));
  ClusterConfig one;
  one.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  ClusterConfig four = one;
  four.replicas.assign(4, ReplicaSpec{});
  four.router_policy = "least_loaded";
  const ClusterMetrics m1 = run_serving_cluster(one, requests);
  const ClusterMetrics m4 = run_serving_cluster(four, requests);
  EXPECT_EQ(m4.completed, m1.completed);
  EXPECT_LT(m4.e2e.p99, m1.e2e.p99);  // 4x capacity must cut tail latency
  EXPECT_GT(m4.goodput_tokens_per_second, m1.goodput_tokens_per_second);
}

TEST(ClusterColocatedTest, PrefixAffinityBeatsRoundRobinOnHitRate) {
  // A 16-prompt prefix pool scattered over 4 replicas: round robin sprays
  // each family across every cache, affinity keeps each family warm on
  // one replica — the cluster-wide hit rate must show it.
  const std::vector<Request> requests = generate_requests(
      prefix_chatbot_stream(/*seed=*/11, 400, 24.0, /*prefix_pool=*/16));
  ClusterConfig config;
  config.base = prefix_cache_scenario(ir::DType::kInt4,
                                      /*enable_prefix_cache=*/true);
  config.replicas.assign(4, ReplicaSpec{});
  config.router_policy = "round_robin";
  const ClusterMetrics rr = run_serving_cluster(config, requests);
  config.router_policy = "prefix_affinity";
  const ClusterMetrics affinity = run_serving_cluster(config, requests);

  EXPECT_GT(rr.prefix_hit_rate, 0.0);  // even scattered, some hits land
  EXPECT_GT(affinity.prefix_hit_rate, rr.prefix_hit_rate);
  EXPECT_EQ(affinity.completed, rr.completed);
}

// --- Disaggregated prefill/decode --------------------------------------------

ClusterConfig disaggregated_config(int prefill, int decode) {
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.replicas.assign(prefill + decode, ReplicaSpec{});
  config.disaggregated = true;
  config.prefill_replicas = prefill;
  return config;
}

TEST(ClusterDisaggregatedTest, TransfersReconcileAgainstFabricModel) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/21, 200, 20.0));
  const ClusterConfig config = disaggregated_config(2, 2);
  const ClusterMetrics cluster = run_serving_cluster(config, requests);

  EXPECT_EQ(cluster.completed, 200);
  EXPECT_EQ(cluster.arrived, 200);
  EXPECT_EQ(cluster.ttft.count, 200);
  EXPECT_EQ(cluster.e2e.count, 200);

  // Recompute every transfer independently from the IciFabric model: one
  // p2p message per KV block of ceil(prompt / block_tokens) blocks.
  const arch::TpuChip chip(config.base.chip_config);
  const std::int64_t block_tokens = config.base.scheduler.kv_block_tokens;
  const Bytes block_bytes =
      KvCacheManager::token_bytes(config.base.model) *
      static_cast<double>(block_tokens);
  std::int64_t expect_count = 0, expect_blocks = 0;
  Seconds expect_seconds = 0;
  for (const Request& request : requests) {
    if (request.output_len < 2) continue;
    const std::int64_t blocks =
        (request.prompt_len + block_tokens - 1) / block_tokens;
    expect_count += 1;
    expect_blocks += blocks;
    expect_seconds +=
        static_cast<double>(blocks) * chip.ici().p2p_time(block_bytes);
  }
  EXPECT_EQ(cluster.kv_transfer_count, expect_count);
  EXPECT_EQ(cluster.kv_transfer_blocks, expect_blocks);
  EXPECT_NEAR(cluster.kv_transfer_seconds, expect_seconds,
              1e-9 * expect_seconds);
  EXPECT_DOUBLE_EQ(cluster.kv_transfer_bytes,
                   static_cast<double>(expect_blocks) * block_bytes);

  // Side split: prefill replicas emit every first token (their clones
  // complete at the first token), decode replicas emit none locally —
  // their TPOT samples would be meaningless and must be excluded.
  for (int i = 0; i < 2; ++i) {
    EXPECT_GT(cluster.replica_metrics[i].ttft.count, 0);
    EXPECT_EQ(cluster.replica_metrics[2 + i].ttft.count, 0);
    EXPECT_EQ(cluster.replica_metrics[2 + i].tpot.count, 0);
  }
  // Stitched TPOT spans the wire gap: present for multi-token requests.
  EXPECT_GT(cluster.tpot.count, 0);
}

TEST(ClusterDisaggregatedTest, SingleTokenRequestsFinishOnPrefillSide) {
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    Request request = make_request(i, 0.1 * i);
    request.output_len = 1;  // no decode work at all
    requests.push_back(request);
  }
  const ClusterMetrics cluster =
      run_serving_cluster(disaggregated_config(1, 1), requests);
  EXPECT_EQ(cluster.completed, 8);
  EXPECT_EQ(cluster.kv_transfer_count, 0);  // nothing ever streams
  EXPECT_EQ(cluster.replica_metrics[1].completed, 0);  // decode side idle
}

// --- Tensor-parallel serving dispatch ----------------------------------------

TEST(ClusterTensorParallelTest, TpReplicaServesAndPublishesReference) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/5, 120, 20.0));
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.replicas = {ReplicaSpec{/*chips=*/1, /*tensor_parallel_ways=*/2}};
  const ClusterMetrics tp2 = run_serving_cluster(config, requests);
  config.replicas = {ReplicaSpec{}};
  const ClusterMetrics tp1 = run_serving_cluster(config, requests);

  EXPECT_EQ(tp2.completed, 120);
  EXPECT_EQ(tp2.total_chips, 2);  // a TP group spans ways chips
  EXPECT_EQ(tp2.replica_metrics[0].chips, 2);
  // Sharding halves per-chip compute but pays two all-reduces per layer:
  // the timeline must actually change — TP is dispatched, not ignored.
  EXPECT_NE(tp2.makespan, tp1.makespan);
  // The multi_chip.h reference model is published alongside.
  const std::string registry_json = tp2.registry.to_json();
  EXPECT_NE(registry_json.find("cluster.replica0.tp_reference_latency_s"),
            std::string::npos);
  EXPECT_NE(registry_json.find("cluster.replica0.tensor_parallel_ways"),
            std::string::npos);
  EXPECT_EQ(tp1.registry.to_json().find("tp_reference"), std::string::npos);
}

TEST(ClusterTensorParallelTest, TpUnlocksModelsLargerThanOneChip) {
  // The TP KV budget spans all shards' HBM headroom: the same model +
  // budget that admits requests at ways=2 must admit at least as much as
  // ways=1 — and the ways=2 engine runs a sharded cost model.
  ServingScenario scenario = llama7b_baseline_scenario(1, ir::DType::kInt8);
  scenario.tensor_parallel_ways = 2;
  scenario.validate();  // TP and pipeline stages may not combine
  scenario.chips = 2;
  EXPECT_THROW(scenario.validate(), ConfigError);
}

// --- IciFabric edge cases ----------------------------------------------------

class IciFabricTest : public ::testing::Test {
 protected:
  IciFabricTest() : chip_(arch::tpu_v4i_baseline()) {}
  arch::TpuChip chip_;
};

TEST_F(IciFabricTest, ZeroByteTransfersAreFree) {
  EXPECT_EQ(chip_.ici().p2p_time(0), 0.0);
  EXPECT_EQ(chip_.ici().p2p_time(-5.0), 0.0);
  EXPECT_EQ(chip_.ici().all_reduce_time(0, 8), 0.0);
  EXPECT_EQ(chip_.ici().all_reduce_energy(0, 8), 0.0);
  EXPECT_EQ(chip_.ici().p2p_energy(0), 0.0);
}

TEST_F(IciFabricTest, SingleChipAllReduceIsFree) {
  EXPECT_EQ(chip_.ici().all_reduce_time(1 << 20, 1), 0.0);
  EXPECT_EQ(chip_.ici().all_reduce_energy(1 << 20, 1), 0.0);
}

TEST_F(IciFabricTest, SingleHopVersusMultiHopLatency) {
  const mem::IciLinkSpec& spec = chip_.ici().spec();
  // One p2p message pays exactly one hop latency plus the wire time.
  const Bytes bytes = 4 * MiB;
  EXPECT_DOUBLE_EQ(chip_.ici().p2p_time(bytes),
                   spec.hop_latency + bytes / spec.bandwidth_per_link);
  // A ring all-reduce pays 2*(p-1) hops: latency grows with the ring.
  const Seconds two = chip_.ici().all_reduce_time(bytes, 2);
  const Seconds eight = chip_.ici().all_reduce_time(bytes, 8);
  EXPECT_GT(eight, two);
  // Tiny payload isolates the hop-latency term: 2*(p-1) hops exactly.
  const Seconds tiny = chip_.ici().all_reduce_time(1e-9, 8);
  EXPECT_NEAR(tiny, 2.0 * 7.0 * spec.hop_latency, 1e-12);
}

TEST_F(IciFabricTest, InvalidSpecsAreRejected) {
  mem::IciLinkSpec bad;
  bad.bandwidth_per_link = 0;
  EXPECT_THROW(mem::IciFabric(bad, chip_.energy()), ConfigError);
  bad = mem::IciLinkSpec{};
  bad.links_per_chip = 0;
  EXPECT_THROW(mem::IciFabric(bad, chip_.energy()), ConfigError);
  bad = mem::IciLinkSpec{};
  bad.bandwidth_per_link = -1.0;
  EXPECT_THROW(mem::IciFabric(bad, chip_.energy()), ConfigError);
  bad = mem::IciLinkSpec{};
  bad.hop_latency = -1.0 * us;
  EXPECT_THROW(mem::IciFabric(bad, chip_.energy()), ConfigError);
}

// --- Batched-prefill costing (satellite) -------------------------------------

class BatchedPrefillTest : public ::testing::Test {
 protected:
  BatchedPrefillTest()
      : chip_(arch::tpu_v4i_baseline()), simulator_(chip_) {
    model_ = models::llama2_7b();
    model_.dtype = ir::DType::kInt4;
  }

  arch::TpuChip chip_;
  sim::Simulator simulator_;
  models::TransformerConfig model_;
};

TEST_F(BatchedPrefillTest, FreshPromptsShareOneWeightPass) {
  // Two prompts starting prefill in the same step (prev == 0, equal
  // chunks): the batched model runs them as ONE batch-2 prefill, so the
  // weight load amortizes; the historical model charged two solo passes.
  StepCostCache costs(simulator_, model_, 128);
  StepRecord step;
  step.kind = StepRecord::Kind::kPrefill;
  step.batch = 2;
  step.kv_lens = {128, 128};
  step.chunk_lens = {128, 128};
  step.prev_lens = {0, 0};

  step.batched_cost = false;
  const StepCost solo_pair = cost_step(costs, step);
  step.batched_cost = true;
  const StepCost batched = cost_step(costs, step);

  EXPECT_LT(batched.latency, solo_pair.latency);
  const StepCost reference = costs.prefill_layer(2, 128);
  EXPECT_DOUBLE_EQ(batched.latency, reference.latency);

  // And the unbatched cost is exactly two solo passes.
  StepRecord solo;
  solo.kind = StepRecord::Kind::kPrefill;
  solo.batch = 1;
  solo.kv_lens = {128};
  solo.chunk_lens = {128};
  solo.prev_lens = {0};
  const StepCost one = cost_step(costs, solo);
  EXPECT_DOUBLE_EQ(solo_pair.latency, 2.0 * one.latency);
}

TEST_F(BatchedPrefillTest, MidPromptChunksKeepTelescopedDifferences) {
  // Chunks at prev > 0 cost as prefill(prev+chunk) - prefill(prev); the
  // batched model groups shape-equal participants but the telescoped
  // difference still cancels the shared weight pass.
  StepCostCache costs(simulator_, model_, 128);
  StepRecord step;
  step.kind = StepRecord::Kind::kPrefill;
  step.batch = 2;
  step.kv_lens = {640, 640};
  step.chunk_lens = {128, 128};
  step.prev_lens = {512, 512};
  step.batched_cost = true;
  const StepCost batched = cost_step(costs, step);
  const StepCost expect_hi = costs.prefill_layer(2, 640);
  const StepCost expect_lo = costs.prefill_layer(2, 512);
  EXPECT_DOUBLE_EQ(batched.latency, expect_hi.latency - expect_lo.latency);
}

TEST_F(BatchedPrefillTest, EndToEndBatchedCostingNeverSlower) {
  // Overloaded arrivals force multi-prompt prefill steps; charging them
  // at the actual prefill batch must not lengthen the timeline.
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/3, 120, 60.0));
  ServingScenario off = llama7b_baseline_scenario(1, ir::DType::kInt4);
  ServingScenario on = off;
  on.scheduler.batched_prefill_cost = true;
  const ServingMetrics m_off = run_serving(off, requests);
  const ServingMetrics m_on = run_serving(on, requests);
  EXPECT_EQ(m_on.completed, m_off.completed);
  EXPECT_EQ(m_on.total_steps, m_off.total_steps);  // same schedule shape
  EXPECT_LT(m_on.makespan, m_off.makespan);  // cheaper prefill steps
}

// --- Cluster sweep cells -----------------------------------------------------

ServingSweep small_cluster_sweep() {
  ServingSweep sweep;
  sweep.arrival_rates = {20.0};
  sweep.models = {[] {
    models::TransformerConfig model = models::llama2_7b();
    model.dtype = ir::DType::kInt4;
    return model;
  }()};
  sweep.chip_counts = {1};
  sweep.policies = {EvictionPolicy::kPreemptNewest};
  sweep.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  sweep.stream = zipf_chat_stream(/*seed=*/9, 100, 20.0);
  return sweep;
}

TEST(ClusterSweepTest, SentinelAxesKeepSingleEngineCellsUnchanged) {
  const ServingSweep sweep = small_cluster_sweep();
  const std::vector<SweepCellResult> cells = run_serving_sweep(sweep);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].replicas, 0);
  EXPECT_TRUE(cells[0].router_policy.empty());
  EXPECT_EQ(cells[0].disaggregated, -1);
  // The sentinel cell is the single-engine path, bit for bit.
  const std::vector<Request> requests = generate_requests(sweep.stream);
  const ServingMetrics direct = run_serving(sweep.base, requests);
  EXPECT_EQ(cells[0].metrics.total_steps, direct.total_steps);
  EXPECT_EQ(cells[0].metrics.makespan, direct.makespan);
  EXPECT_EQ(cells[0].metrics.registry.to_json(), direct.registry.to_json());
}

TEST(ClusterSweepTest, ClusterCellsBitIdenticalAcrossThreadCounts) {
  ServingSweep sweep = small_cluster_sweep();
  sweep.replicas = {0, 2};
  sweep.router_policies = {"round_robin", "least_loaded"};
  SweepOptions serial, parallel;
  serial.threads = 1;
  parallel.threads = 4;
  const std::vector<SweepCellResult> a = run_serving_sweep(sweep, serial);
  const std::vector<SweepCellResult> b = run_serving_sweep(sweep, parallel);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].replicas, b[i].replicas);
    EXPECT_EQ(a[i].router_policy, b[i].router_policy);
    EXPECT_EQ(a[i].metrics.total_steps, b[i].metrics.total_steps);
    EXPECT_EQ(a[i].metrics.completed, b[i].metrics.completed);
    EXPECT_EQ(a[i].metrics.makespan, b[i].metrics.makespan);
    EXPECT_EQ(a[i].metrics.ttft.p99, b[i].metrics.ttft.p99);
    EXPECT_EQ(a[i].metrics.e2e.p99, b[i].metrics.e2e.p99);
    EXPECT_EQ(a[i].metrics.goodput_tokens_per_second,
              b[i].metrics.goodput_tokens_per_second);
    EXPECT_EQ(a[i].metrics.registry.to_json(), b[i].metrics.registry.to_json());
  }
  // Cluster cells carry the router they ran; single-engine cells none.
  EXPECT_TRUE(a[0].router_policy.empty());
  EXPECT_TRUE(a[1].router_policy.empty());
  EXPECT_EQ(a[2].router_policy, "round_robin");
  EXPECT_EQ(a[3].router_policy, "least_loaded");
  // Replicated cells really are cluster runs: 2x the chips.
  EXPECT_EQ(a[0].metrics.chips, 1);
  EXPECT_EQ(a[2].metrics.chips, 2);
}

// --- Canonical cluster studies (the schema-v9 "cluster" bench block) ---------
// These gate the two pinned orderings on the EXACT grids bench_serving and
// serving_traffic run (traffic_profiles.h), so regenerating the committed
// BENCH_serving.json can never silently lose either frontier.

TEST(ClusterCanonicalStudyTest, PrefixAffinityBeatsRoundRobinOnCanonicalGrid) {
  const models::TransformerConfig model =
      llama7b_baseline_scenario(1, ir::DType::kInt4).model;
  const std::vector<Request> requests =
      generate_requests(cluster_chatbot_stream(/*seed=*/42));
  const std::vector<SweepPoint> points =
      cluster_router_grid_points(model, &requests);
  ASSERT_EQ(points.size(), cluster_router_policy_order().size());
  const std::vector<ServingMetrics> results = run_sweep(points);
  // Row order is cluster_router_policy_order(): round_robin first,
  // prefix_affinity third — the pinned hit-rate ordering.
  EXPECT_GT(results[2].prefix_hit_rate, results[0].prefix_hit_rate);
  for (const ServingMetrics& metrics : results) {
    EXPECT_EQ(metrics.completed,
              static_cast<std::int64_t>(requests.size()));
  }
}

TEST(ClusterCanonicalStudyTest, DisaggregationWinsTtftAtTopCanonicalRate) {
  const models::TransformerConfig model =
      llama7b_baseline_scenario(1, ir::DType::kInt4).model;
  const ServingSweep sweep = cluster_disaggregation_sweep(model, /*seed=*/42);
  const std::vector<SweepCellResult> cells = run_serving_sweep(sweep);
  ASSERT_EQ(cells.size(), 2 * cluster_disagg_rates().size());
  // Rate-major, disaggregation {off, on} innermost: the last two cells
  // are the top rate's colocated/disaggregated pair — the pinned TTFT
  // ordering.
  const SweepCellResult& colocated = cells[cells.size() - 2];
  const SweepCellResult& disaggregated = cells[cells.size() - 1];
  ASSERT_EQ(colocated.disaggregated, 0);
  ASSERT_EQ(disaggregated.disaggregated, 1);
  EXPECT_EQ(colocated.arrival_rate, cluster_disagg_rates().back());
  EXPECT_LT(disaggregated.metrics.ttft.p99, colocated.metrics.ttft.p99);
  // The disaggregated cells really streamed KV over the fabric.
  const auto& counters = disaggregated.metrics.registry.counters();
  const auto it = counters.find("cluster.kv_transfer_count");
  ASSERT_NE(it, counters.end());
  EXPECT_GT(it->second, 0);
}

}  // namespace
}  // namespace cimtpu::serving
