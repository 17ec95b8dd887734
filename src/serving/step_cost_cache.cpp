#include "serving/step_cost_cache.h"

#include <iomanip>
#include <sstream>
#include <type_traits>

#include "common/fields.h"
#include "common/status.h"
#include "serving/obs_registry.h"

namespace cimtpu::serving {

namespace {

constexpr int kLenBits = 40;
constexpr int kBatchBits = 23;  // bits 40..62; bit 63 is the kind flag
constexpr std::size_t kInitialSlots = 256;  // power of two

/// Fibonacci (multiplicative) hash.  The home slot MUST come from the HIGH
/// bits of the product: masking the low bits reduces to (key mod size) for
/// any odd multiplier, which collapses real shape keys badly — bucketed
/// lengths are multiples of seqlen_bucket, and batch/kind live in bits
/// 40+, so low-bit masking would leave only a handful of distinct home
/// slots.  The top bits mix every input bit.
std::uint64_t mix(std::uint64_t key) { return key * 0x9E3779B97F4A7C15ull; }

int shift_for(std::size_t slots) {  // 64 - log2(slots), slots a power of two
  return 64 - __builtin_ctzll(static_cast<unsigned long long>(slots));
}

}  // namespace

FlatCostTable::FlatCostTable()
    : slots_(kInitialSlots), shift_(shift_for(kInitialSlots)) {}

std::size_t FlatCostTable::slot_index(std::uint64_t key) const {
  return static_cast<std::size_t>(mix(key) >> shift_);
}

const StepCost* FlatCostTable::find(std::uint64_t key) const {
  for (std::size_t i = slot_index(key);; i = (i + 1) & (slots_.size() - 1)) {
    const Slot& slot = slots_[i];
    if (slot.key == key) return &slot.cost;
    if (slot.key == 0) return nullptr;
  }
}

void FlatCostTable::insert(std::uint64_t key, const StepCost& cost) {
  CIMTPU_CHECK(key != 0);
  if ((size_ + 1) * 10 > slots_.size() * 7) grow();
  for (std::size_t i = slot_index(key);; i = (i + 1) & (slots_.size() - 1)) {
    Slot& slot = slots_[i];
    if (slot.key == key) {  // racing duplicate compute: values identical
      slot.cost = cost;
      return;
    }
    if (slot.key == 0) {
      slot.key = key;
      slot.cost = cost;
      ++size_;
      return;
    }
  }
}

void FlatCostTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  shift_ = shift_for(slots_.size());
  for (const Slot& slot : old) {
    if (slot.key == 0) continue;
    for (std::size_t i = slot_index(slot.key);;
         i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].key == 0) {
        slots_[i] = slot;
        break;
      }
    }
  }
}

bool SharedStepCostCache::Store::try_get(std::uint64_t key,
                                         StepCost* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const StepCost* found = table_.find(key);
  if (found == nullptr) return false;
  *out = *found;
  return true;
}

void SharedStepCostCache::Store::put(std::uint64_t key, const StepCost& cost) {
  std::lock_guard<std::mutex> lock(mu_);
  table_.insert(key, cost);
}

std::size_t SharedStepCostCache::Store::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

SharedStepCostCache::Store* SharedStepCostCache::store(
    const std::string& signature) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Store>& slot = stores_[signature];
  if (slot == nullptr) slot = std::make_unique<Store>();
  return slot.get();
}

std::size_t SharedStepCostCache::store_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stores_.size();
}

std::size_t SharedStepCostCache::total_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [signature, store] : stores_) total += store->size();
  return total;
}

namespace {

/// Appends every listed member of `object` exactly: nested specs through
/// their own lists, doubles as hexfloat (round-trip exact), strings quoted
/// (no separator can alias), enums as their underlying value.
template <class T>
void append_fields(std::ostringstream& out, const T& object) {
  for_each_field<T>([&out, &object](const auto& entry) {
    const auto& value = object.*entry.member;
    using V = std::decay_t<decltype(value)>;
    out << entry.name << '=';
    if constexpr (std::is_same_v<V, std::string>) {
      out << std::quoted(value);
    } else if constexpr (std::is_class_v<V>) {
      out << '{';
      append_fields(out, value);
      out << '}';
    } else if constexpr (std::is_enum_v<V>) {
      out << static_cast<long long>(value);
    } else if constexpr (std::is_floating_point_v<V>) {
      out << std::hexfloat << value << std::defaultfloat;
    } else {
      static_assert(std::is_integral_v<V>, "unhandled field type");
      out << value;
    }
    out << ';';
  });
}

}  // namespace

std::string cost_cache_signature(const arch::TpuChipConfig& chip,
                                 const models::TransformerConfig& model,
                                 std::int64_t bucket) {
  std::ostringstream signature;
  append_fields(signature, chip);
  signature << '|';
  append_fields(signature, model);
  signature << '|' << bucket;
  return signature.str();
}

StepCostCache::StepCostCache(const sim::Simulator& simulator,
                             const models::TransformerConfig& model,
                             std::int64_t bucket,
                             SharedStepCostCache::Store* shared)
    : simulator_(&simulator), model_(model), bucket_(bucket), shared_(shared) {
  CIMTPU_CONFIG_CHECK(bucket >= 1, "seqlen bucket must be >= 1");
}

StepCost StepCostCache::prefill_layer(std::int64_t batch,
                                      std::int64_t seq_len) {
  return lookup(/*prefill=*/true, batch, bucket_up(seq_len));
}

StepCost StepCostCache::decode_layer(std::int64_t batch, std::int64_t kv_len) {
  return lookup(/*prefill=*/false, batch, bucket_up(kv_len));
}

std::uint64_t StepCostCache::pack_key(bool prefill, std::int64_t batch,
                                      std::int64_t len) {
  CIMTPU_CHECK(batch >= 1 && batch < (std::int64_t{1} << kBatchBits));
  CIMTPU_CHECK(len >= 1 && len < (std::int64_t{1} << kLenBits));
  return (prefill ? 1ull << 63 : 0ull) |
         (static_cast<std::uint64_t>(batch) << kLenBits) |
         static_cast<std::uint64_t>(len);
}

StepCost StepCostCache::lookup(bool prefill, std::int64_t batch,
                               std::int64_t len) {
  const std::uint64_t key = pack_key(prefill, batch, len);
  if (const StepCost* found = local_.find(key)) {
    ++hits_;
    return *found;
  }
  ++misses_;
  StepCost cost;
  if (shared_ == nullptr || !shared_->try_get(key, &cost)) {
    const sim::GraphResult graph =
        prefill ? sim::run_prefill_layer(*simulator_, model_, batch, len)
                : sim::run_decode_layer(*simulator_, model_, batch, len);
    cost.latency = graph.latency;
    cost.mxu_busy_time = graph.mxu_busy_time;
    cost.mxu_energy = graph.mxu_energy();
    cost.total_energy = graph.total_energy();
    if (shared_ != nullptr) shared_->put(key, cost);
  }
  local_.insert(key, cost);
  return cost;
}

void StepCostCache::publish(MetricsRegistry* registry) const {
  CIMTPU_CHECK(registry != nullptr);
  registry->set_counter("cost_cache.entries",
                        static_cast<std::int64_t>(size()));
  registry->set_counter("cost_cache.hits", hits_);
  registry->set_counter("cost_cache.misses", misses_);
  registry->set_gauge("cost_cache.occupancy", occupancy());
}

}  // namespace cimtpu::serving
