#include "models/llm.h"

#include "common/status.h"

namespace cimtpu::models {
namespace {

// Adds the attention block (Q*K^T, softmax, S*V^T) shared by prefill and
// decode.  `q_rows` is the number of query positions per sequence.
void add_attention(ir::Graph& graph, const TransformerConfig& config,
                   std::int64_t batch, std::int64_t q_rows,
                   std::int64_t kv_len, ir::Residency kv_residency) {
  const std::int64_t instances = batch * config.num_heads;
  const ir::DType dtype = config.dtype;
  // Q*K^T: every (batch, head) has its own K — the stationary operand
  // cannot be shared, which is what starves the digital systolic array in
  // decode (q_rows == 1).
  ir::Op qk = ir::make_attention_gemm("attn_qk", "Attention", instances,
                                      q_rows, config.d_head(), kv_len, dtype,
                                      kv_residency);
  graph.add(qk);
  graph.add(ir::make_softmax("attn_softmax", "Attention", instances * q_rows,
                             kv_len, dtype));
  graph.add(ir::make_attention_gemm("attn_sv", "Attention", instances, q_rows,
                                    kv_len, config.d_head(), dtype,
                                    kv_residency));
}

// Adds the FFN block (GELU or SwiGLU variant).
void add_ffn(ir::Graph& graph, const TransformerConfig& config,
             std::int64_t rows) {
  const ir::DType dtype = config.dtype;
  if (config.ffn == FfnKind::kSwiGlu) {
    graph.add(ir::make_weight_gemm("ffn_gate", "FFN1", rows, config.d_model,
                                   config.d_ff, dtype));
    graph.add(ir::make_weight_gemm("ffn_up", "FFN1", rows, config.d_model,
                                   config.d_ff, dtype));
    // SiLU(gate) * up
    graph.add(ir::make_gelu("ffn_silu", "GeLU", rows * config.d_ff, dtype));
    graph.add(ir::make_elementwise("ffn_gate_mul", "GeLU", rows * config.d_ff,
                                   1.0, dtype));
    graph.add(ir::make_weight_gemm("ffn_down", "FFN2", rows, config.d_ff,
                                   config.d_model, dtype));
  } else {
    graph.add(ir::make_weight_gemm("ffn1", "FFN1", rows, config.d_model,
                                   config.d_ff, dtype));
    graph.add(ir::make_gelu("gelu", "GeLU", rows * config.d_ff, dtype));
    graph.add(ir::make_weight_gemm("ffn2", "FFN2", rows, config.d_ff,
                                   config.d_model, dtype));
  }
}

}  // namespace

ir::Residency choose_kv_residency(Bytes kv_operand_bytes, Bytes cmem_capacity,
                                  Bytes reserved_bytes) {
  return kv_operand_bytes + reserved_bytes <= cmem_capacity
             ? ir::Residency::kCmem
             : ir::Residency::kHbm;
}

ir::Graph build_prefill_layer(const TransformerConfig& config,
                              std::int64_t batch, std::int64_t seq_len,
                              ir::Residency kv_residency) {
  config.validate();
  CIMTPU_CONFIG_CHECK(batch > 0 && seq_len > 0,
                      "prefill needs positive batch/seq_len");
  ir::Graph graph(config.name + "-prefill-layer");
  const std::int64_t rows = batch * seq_len;
  const ir::DType dtype = config.dtype;

  graph.add(ir::make_layer_norm("ln1", "LayerNorm", rows, config.d_model,
                                dtype));
  graph.add(ir::make_weight_gemm("qkv_proj", "QKV Gen", rows, config.d_model,
                                 3 * config.d_model, dtype));
  // KV-cache store for this layer.
  graph.add(ir::make_data_movement("kv_store", "Attention",
                                   2 * rows * config.d_model, dtype));
  add_attention(graph, config, batch, seq_len, seq_len, kv_residency);
  graph.add(ir::make_weight_gemm("out_proj", "Proj.", rows, config.d_model,
                                 config.d_model, dtype));
  graph.add(ir::make_elementwise("residual1", "LayerNorm", rows * config.d_model,
                                 1.0, dtype));
  graph.add(ir::make_layer_norm("ln2", "LayerNorm", rows, config.d_model,
                                dtype));
  add_ffn(graph, config, rows);
  graph.add(ir::make_elementwise("residual2", "LayerNorm", rows * config.d_model,
                                 1.0, dtype));
  return graph;
}

ir::Graph build_decode_attention(const TransformerConfig& config,
                                 std::int64_t batch, std::int64_t kv_len,
                                 ir::Residency kv_residency) {
  CIMTPU_CONFIG_CHECK(batch > 0 && kv_len > 0,
                      "decode needs positive batch/kv_len");
  ir::Graph graph(config.name + "-decode-attention");
  add_attention(graph, config, batch, /*q_rows=*/1, kv_len, kv_residency);
  return graph;
}

ir::Graph build_decode_layer(const TransformerConfig& config,
                             std::int64_t batch, std::int64_t kv_len,
                             ir::Residency kv_residency, OpSpan* attention) {
  config.validate();
  CIMTPU_CONFIG_CHECK(batch > 0 && kv_len > 0,
                      "decode needs positive batch/kv_len");
  ir::Graph graph(config.name + "-decode-layer");
  const std::int64_t rows = batch;  // one token per sequence
  const ir::DType dtype = config.dtype;

  graph.add(ir::make_layer_norm("ln1", "LayerNorm", rows, config.d_model,
                                dtype));
  graph.add(ir::make_weight_gemm("qkv_proj", "QKV Gen", rows, config.d_model,
                                 3 * config.d_model, dtype));
  // Append this step's K/V rows to the cache.
  graph.add(ir::make_data_movement("kv_append", "Attention",
                                   2 * rows * config.d_model, dtype));
  const std::size_t attention_begin = graph.size();
  graph.append(build_decode_attention(config, batch, kv_len, kv_residency));
  if (attention != nullptr) {
    *attention = {attention_begin, graph.size() - attention_begin};
  }
  graph.add(ir::make_weight_gemm("out_proj", "Proj.", rows, config.d_model,
                                 config.d_model, dtype));
  graph.add(ir::make_elementwise("residual1", "LayerNorm", rows * config.d_model,
                                 1.0, dtype));
  graph.add(ir::make_layer_norm("ln2", "LayerNorm", rows, config.d_model,
                                dtype));
  add_ffn(graph, config, rows);
  graph.add(ir::make_elementwise("residual2", "LayerNorm", rows * config.d_model,
                                 1.0, dtype));
  return graph;
}

ir::Graph build_token_embedding(const TransformerConfig& config,
                                std::int64_t tokens) {
  config.validate();
  ir::Graph graph(config.name + "-embedding");
  graph.add(ir::make_embedding_lookup("token_embed", "Token Embedding",
                                      tokens, config.d_model, config.dtype));
  return graph;
}

ir::Graph build_prediction_head(const TransformerConfig& config,
                                std::int64_t rows) {
  config.validate();
  CIMTPU_CONFIG_CHECK(config.vocab_size > 0,
                      "model '" << config.name << "' has no vocab for a head");
  ir::Graph graph(config.name + "-head");
  graph.add(ir::make_layer_norm("final_ln", "Prediction Head", rows,
                                config.d_model, config.dtype));
  graph.add(ir::make_weight_gemm("lm_head", "Prediction Head", rows,
                                 config.d_model, config.vocab_size,
                                 config.dtype));
  return graph;
}

}  // namespace cimtpu::models
