#pragma once
// Transformer model configuration shared by LLM and DiT workload builders.

#include <cstdint>
#include <string>

#include "common/fields.h"
#include "common/units.h"
#include "ir/dtype.h"

namespace cimtpu::models {

/// Feed-forward network variants.
enum class FfnKind {
  kGelu,    ///< FFN1 -> GeLU -> FFN2 (GPT-3, DiT)
  kSwiGlu,  ///< gate & up projections -> SiLU*gate -> down (Llama-2)
};

struct TransformerConfig {
  std::string name;
  std::int64_t num_layers = 0;
  std::int64_t num_heads = 0;
  std::int64_t d_model = 0;
  std::int64_t d_ff = 0;          ///< FFN hidden width (4*d_model for GPT/DiT)
  std::int64_t vocab_size = 0;    ///< 0 when not applicable (DiT)
  FfnKind ffn = FfnKind::kGelu;
  ir::DType dtype = ir::DType::kInt8;

  std::int64_t d_head() const { return d_model / num_heads; }

  /// Weight bytes of one Transformer layer (QKV + proj + FFN matrices).
  Bytes layer_weight_bytes() const;

  /// Weight bytes of the whole stack (layers only, no embeddings).
  Bytes stack_weight_bytes() const { return layer_weight_bytes() * num_layers; }

  /// Approximate parameter count of the layer stack.
  double stack_parameters() const;

  void validate() const;
  static constexpr auto fields() {  // common/fields.h
    using S = TransformerConfig;
    return std::make_tuple(
        field("name", &S::name), field("num_layers", &S::num_layers),
        field("num_heads", &S::num_heads), field("d_model", &S::d_model),
        field("d_ff", &S::d_ff), field("vocab_size", &S::vocab_size),
        field("ffn", &S::ffn), field("dtype", &S::dtype));
  }
};

/// KV-cache footprint for `batch` sequences of `kv_len` tokens (one layer).
Bytes kv_cache_bytes_per_layer(const TransformerConfig& config,
                               std::int64_t batch, std::int64_t kv_len);

}  // namespace cimtpu::models
