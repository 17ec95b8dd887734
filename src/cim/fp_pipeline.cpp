#include "cim/fp_pipeline.h"

#include <cmath>
#include <cstring>

#include "common/status.h"

namespace cimtpu::cim {
namespace {

std::uint32_t float_bits(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

float bits_float(std::uint32_t bits) {
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

std::uint16_t bf16_from_float(float value) {
  std::uint32_t bits = float_bits(value);
  // Round-to-nearest-even on the truncated 16 low bits.
  const std::uint32_t rounding_bias = 0x7FFF + ((bits >> 16) & 1);
  bits += rounding_bias;
  return static_cast<std::uint16_t>(bits >> 16);
}

float float_from_bf16(std::uint16_t bits) {
  return bits_float(static_cast<std::uint32_t>(bits) << 16);
}

DecodedBf16 decode_bf16(std::uint16_t bits) {
  DecodedBf16 decoded;
  const int sign = (bits >> 15) & 1;
  const int biased_exp = (bits >> 7) & 0xFF;
  const int fraction = bits & 0x7F;
  if (biased_exp == 0) {
    // Subnormals flush to zero in the CIM pipeline (as in [20]).
    decoded.is_zero = true;
    return decoded;
  }
  // NaN/Inf are not representable in the integer pipeline; callers are
  // expected to sanitize.  Treat them as max-magnitude values.
  decoded.is_zero = false;
  decoded.exponent = biased_exp - 127;
  decoded.mantissa = (1 << 7) | fraction;  // implicit leading one, 1.7 form
  if (sign) decoded.mantissa = -decoded.mantissa;
  return decoded;
}

AlignedBlock align_products(const std::vector<std::uint16_t>& x,
                            const std::vector<std::uint16_t>& w,
                            int guard_bits) {
  CIMTPU_CHECK_MSG(x.size() == w.size(), "dot operand size mismatch: "
                                             << x.size() << " vs " << w.size());
  CIMTPU_CHECK_MSG(guard_bits >= 0 && guard_bits <= 16,
                   "guard_bits out of range: " << guard_bits);
  AlignedBlock block;
  block.terms.resize(x.size(), 0);

  // Pass 1: product exponents; find the block maximum.
  int max_exp = INT32_MIN;
  std::vector<DecodedBf16> dx(x.size()), dw(w.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    dx[i] = decode_bf16(x[i]);
    dw[i] = decode_bf16(w[i]);
    if (dx[i].is_zero || dw[i].is_zero) continue;
    const int product_exp = dx[i].exponent + dw[i].exponent;
    if (product_exp > max_exp) max_exp = product_exp;
  }
  if (max_exp == INT32_MIN) {
    block.block_exponent = 0;  // all-zero block
    return block;
  }
  block.block_exponent = max_exp;

  // Pass 2: integer product mantissas (1.7 x 1.7 -> 2.14 fixed point),
  // right-shifted into alignment with the block exponent, keeping
  // `guard_bits` guard positions.
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (dx[i].is_zero || dw[i].is_zero) continue;
    const std::int64_t product = static_cast<std::int64_t>(dx[i].mantissa) *
                                 static_cast<std::int64_t>(dw[i].mantissa);
    const int shift = max_exp - (dx[i].exponent + dw[i].exponent);
    // Keep guard_bits: scale up first (a multiply — the product is signed,
    // and left-shifting a negative value is undefined before C++20), then
    // arithmetic-shift right.
    const std::int64_t scaled = product * (std::int64_t{1} << guard_bits);
    block.terms[i] = shift >= 63 ? 0 : (scaled >> shift);
  }
  return block;
}

float cim_bf16_dot(const std::vector<std::uint16_t>& x,
                   const std::vector<std::uint16_t>& w, int guard_bits) {
  const AlignedBlock block = align_products(x, w, guard_bits);
  std::int64_t acc = 0;
  for (std::int64_t term : block.terms) acc += term;
  if (acc == 0) return 0.0f;
  // Post-processing: the accumulator holds
  //   acc = dot * 2^14 * 2^guard_bits * 2^-block_exponent.
  const double scale =
      std::ldexp(1.0, block.block_exponent - 14 - guard_bits);
  return static_cast<float>(static_cast<double>(acc) * scale);
}

float reference_bf16_dot(const std::vector<std::uint16_t>& x,
                         const std::vector<std::uint16_t>& w) {
  CIMTPU_CHECK_MSG(x.size() == w.size(), "dot operand size mismatch");
  float acc = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += float_from_bf16(x[i]) * float_from_bf16(w[i]);
  }
  return acc;
}

}  // namespace cimtpu::cim
