#include "cim/bitserial.h"

#include <cmath>

#include "common/status.h"

namespace cimtpu::cim {

std::int32_t reference_dot(const std::vector<std::int8_t>& x,
                           const std::vector<std::int8_t>& w) {
  CIMTPU_CHECK_MSG(x.size() == w.size(), "dot operand size mismatch: "
                                             << x.size() << " vs " << w.size());
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<std::int32_t>(x[i]) * static_cast<std::int32_t>(w[i]);
  }
  return acc;
}

std::int32_t bit_serial_dot(const std::vector<std::int8_t>& x,
                            const std::vector<std::int8_t>& w) {
  CIMTPU_CHECK_MSG(x.size() == w.size(), "dot operand size mismatch: "
                                             << x.size() << " vs " << w.size());
  std::int64_t acc = 0;
  for (int bit = 0; bit < 8; ++bit) {
    // One broadcast cycle: the bank ANDs the input bit-plane with every
    // stored weight and reduces through the adder tree.
    std::vector<std::int32_t> partials;
    partials.reserve(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      partials.push_back(bit_of(x[i], bit) *
                         static_cast<std::int32_t>(w[i]));
    }
    const std::int64_t plane = adder_tree_sum(partials);
    // Shift-accumulate; the MSB plane carries weight -2^7 (two's
    // complement sign bit).  The plane is signed, so it is scaled by a
    // multiply: left-shifting a negative value is undefined before C++20.
    const std::int64_t scaled = plane * (std::int64_t{1} << bit);
    if (bit == 7) {
      acc -= scaled;
    } else {
      acc += scaled;
    }
  }
  return static_cast<std::int32_t>(acc);
}

std::int64_t adder_tree_sum(const std::vector<std::int32_t>& values) {
  if (values.empty()) return 0;
  std::vector<std::int64_t> level(values.begin(), values.end());
  while (level.size() > 1) {
    std::vector<std::int64_t> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(level[i] + level[i + 1]);
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level.front();
}

int adder_tree_depth(int inputs) {
  CIMTPU_CHECK_MSG(inputs > 0, "adder tree needs >= 1 input");
  int depth = 0;
  int width = 1;
  while (width < inputs) {
    width *= 2;
    ++depth;
  }
  return depth;
}

int required_accumulator_bits(int k) {
  CIMTPU_CHECK_MSG(k > 0, "dot length must be positive");
  // |x_i * w_i| <= 128 * 128 = 2^14; sum of k terms <= k * 2^14.
  // Signed width: ceil(log2(k * 2^14)) + 1.
  const double magnitude = static_cast<double>(k) * 128.0 * 128.0;
  return static_cast<int>(std::ceil(std::log2(magnitude))) + 1;
}

}  // namespace cimtpu::cim
