// Field lists (common/fields.h) and what is derived from them: the member
// count behind every list's completeness check, the cost-cache signature
// (every chip and model leaf must reach it, exactly), and registry
// publishing (every listed counter and gauge, under its registry name).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/tpu_config.h"
#include "common/fields.h"
#include "models/model_zoo.h"
#include "serving/fault.h"
#include "serving/metrics.h"
#include "serving/obs_registry.h"
#include "serving/step_cost_cache.h"

namespace cimtpu {
namespace {

struct Inner {
  int a = 0;
  double b = 0;
};

struct Outer {
  std::string name;
  Inner inner;  // an aggregate member counts once
  std::vector<int> values;
  bool flag = false;
};

TEST(FieldCountTest, CountsAggregateMembers) {
  EXPECT_EQ(field_count<Inner>(), 2u);
  EXPECT_EQ(field_count<Outer>(), 4u);
}

// --- cost_cache_signature coverage -------------------------------------------

/// The smallest change to a leaf that still makes it a different value.
template <class V>
void perturb(V& value) {
  if constexpr (std::is_same_v<V, std::string>) {
    value += 'x';
  } else if constexpr (std::is_same_v<V, bool>) {
    value = !value;
  } else if constexpr (std::is_enum_v<V>) {
    value = static_cast<V>(static_cast<std::underlying_type_t<V>>(value) + 1);
  } else if constexpr (std::is_floating_point_v<V>) {
    value = std::nextafter(value, std::numeric_limits<V>::infinity());
  } else {
    static_assert(std::is_integral_v<V>, "unhandled field type");
    value += 1;
  }
}

/// Calls `f(name, leaf)` for every leaf of `object` in list order,
/// descending into members that are listed structs themselves.
template <class T, class F>
void for_each_leaf(T& object, F&& f) {
  for_each_field<std::remove_const_t<T>>([&object, &f](const auto& entry) {
    auto& member = object.*entry.member;
    using M = std::decay_t<decltype(member)>;
    if constexpr (std::is_class_v<M> && !std::is_same_v<M, std::string>) {
      for_each_leaf(member, f);
    } else {
      f(entry.name, member);
    }
  });
}

template <class T>
std::size_t leaf_count(const T& object) {
  std::size_t count = 0;
  for_each_leaf(object, [&count](const char*, const auto&) { ++count; });
  return count;
}

/// `object` with its `index`-th leaf (list order) perturbed; the leaf's
/// name lands in `*name`.
template <class T>
T with_leaf_perturbed(T object, std::size_t index, std::string* name) {
  std::size_t i = 0;
  for_each_leaf(object, [&](const char* leaf, auto& value) {
    if (i++ == index) {
      perturb(value);
      *name = leaf;
    }
  });
  return object;
}

const models::TransformerConfig& model() {
  static const models::TransformerConfig config = models::llama2_7b();
  return config;
}

TEST(SignatureCoverageTest, EveryChipFieldChangesTheSignature) {
  for (const arch::TpuChipConfig& chip :
       {arch::tpu_v4i_baseline(), arch::cim_tpu_default()}) {
    const std::string base = serving::cost_cache_signature(chip, model(), 128);
    EXPECT_EQ(serving::cost_cache_signature(chip, model(), 128), base);
    const std::size_t leaves = leaf_count(chip);
    EXPECT_GT(leaves, 20u);  // descends into the MXU, VPU, memory, ICI specs
    for (std::size_t i = 0; i < leaves; ++i) {
      std::string name;
      const arch::TpuChipConfig changed = with_leaf_perturbed(chip, i, &name);
      EXPECT_NE(serving::cost_cache_signature(changed, model(), 128), base)
          << chip.name << " leaf " << i << " (" << name << ")";
    }
  }
}

TEST(SignatureCoverageTest, EveryModelFieldChangesTheSignature) {
  const arch::TpuChipConfig chip = arch::cim_tpu_default();
  const std::string base = serving::cost_cache_signature(chip, model(), 128);
  const std::size_t leaves = leaf_count(model());
  EXPECT_EQ(leaves, field_count<models::TransformerConfig>());
  for (std::size_t i = 0; i < leaves; ++i) {
    std::string name;
    const models::TransformerConfig changed =
        with_leaf_perturbed(model(), i, &name);
    EXPECT_NE(serving::cost_cache_signature(chip, changed, 128), base)
        << "model leaf " << i << " (" << name << ")";
  }
  EXPECT_NE(serving::cost_cache_signature(chip, model(), 256), base);
}

// --- registry publishing -----------------------------------------------------

/// Publishes `object` with every listed member set to a distinct value and
/// checks each lands under its name: int64 members as counters, doubles
/// as gauges.
template <class S>
void expect_every_field_published() {
  S object;
  int next = 1;
  for_each_field<S>([&](const auto& entry) { object.*entry.member = next++; });
  serving::MetricsRegistry registry;
  serving::publish_fields(object, &registry);
  std::size_t published = 0;
  for_each_field<S>([&](const auto& entry) {
    const auto value = object.*entry.member;
    if constexpr (std::is_same_v<decltype(value), const double>) {
      ASSERT_EQ(registry.gauges().count(entry.name), 1u) << entry.name;
      EXPECT_EQ(registry.gauges().at(entry.name), value) << entry.name;
    } else {
      ASSERT_EQ(registry.counters().count(entry.name), 1u) << entry.name;
      EXPECT_EQ(registry.counters().at(entry.name), value) << entry.name;
    }
    ++published;
  });
  EXPECT_EQ(published, field_count<S>());
  EXPECT_EQ(registry.counters().size() + registry.gauges().size(), published);
}

TEST(PublishFieldsTest, ServingCountersPublishEveryCounter) {
  expect_every_field_published<serving::ServingCounters>();
}

TEST(PublishFieldsTest, FaultStatsPublishEveryCounter) {
  expect_every_field_published<serving::FaultStats>();
}

}  // namespace
}  // namespace cimtpu
