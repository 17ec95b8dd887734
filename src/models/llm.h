#pragma once
// LLM inference workload builders.
//
// LLM inference has two stages with very different characteristics
// (paper Sec. II-A):
//   * Prefilling: the whole prompt is processed at once — large
//     compute-bound GEMMs, KV cache written.
//   * Decoding: one token per step — GEMV-shaped work, memory-bound, KV
//     cache read and appended.
//
// The builders emit one ir::Graph per Transformer layer; the simulator
// multiplies by layer count (all layers are identical) or walks decode
// steps with a growing KV length.

#include <cstddef>
#include <cstdint>

#include "ir/graph.h"
#include "models/transformer.h"

namespace cimtpu::models {

/// Residency chosen for the K/V operands of attention GEMMs given the
/// available CMEM.  The KV cache lives in CMEM when one operand (K or V)
/// fits alongside `reserved_bytes` of working tiles; otherwise it streams
/// from HBM (GPT3-30B at batch 8 exceeds CMEM — see DESIGN.md).
ir::Residency choose_kv_residency(Bytes kv_operand_bytes, Bytes cmem_capacity,
                                  Bytes reserved_bytes);

/// One Transformer layer in the Prefilling stage: batch*seq_len token rows.
ir::Graph build_prefill_layer(const TransformerConfig& config,
                              std::int64_t batch, std::int64_t seq_len,
                              ir::Residency kv_residency);

/// A contiguous run of ops in a graph: indices [begin, begin + size).
struct OpSpan {
  std::size_t begin = 0;
  std::size_t size = 0;
};

/// The attention block of one decode layer (Q*K^T, softmax, S*V^T for one
/// query row per sequence): the only decode ops whose shape depends on
/// `kv_len` and `kv_residency`.  Does not validate `config`;
/// build_decode_layer does.
ir::Graph build_decode_attention(const TransformerConfig& config,
                                 std::int64_t batch, std::int64_t kv_len,
                                 ir::Residency kv_residency);

/// One Transformer layer in the Decoding stage at KV length `kv_len`
/// (the step that emits token kv_len - input_len + 1).  When `attention`
/// is non-null it receives where build_decode_attention's ops sit in the
/// returned graph; every op outside that span is independent of `kv_len`
/// and `kv_residency`.
ir::Graph build_decode_layer(const TransformerConfig& config,
                             std::int64_t batch, std::int64_t kv_len,
                             ir::Residency kv_residency,
                             OpSpan* attention = nullptr);

/// Token embedding for `tokens` total tokens (gather from the vocab table).
ir::Graph build_token_embedding(const TransformerConfig& config,
                                std::int64_t tokens);

/// Prediction head: project `rows` token positions onto the vocabulary.
ir::Graph build_prediction_head(const TransformerConfig& config,
                                std::int64_t rows);

}  // namespace cimtpu::models
