#pragma once
// Chip-level configuration (paper Table I) and the design points explored
// in Sec. V (Table IV, Designs A and B).

#include <string>

#include "cim/cim_mxu.h"
#include "common/fields.h"
#include "common/units.h"
#include "mem/link.h"
#include "mem/memory.h"
#include "systolic/systolic_mxu.h"
#include "tech/technology.h"
#include "vpu/vpu.h"

namespace cimtpu::arch {

enum class MxuKind { kDigitalSystolic, kCim };

std::string mxu_kind_name(MxuKind kind);

struct TpuChipConfig {
  std::string name = "tpu";
  std::string technology = "7nm";  ///< see tech::node_by_name
  Hertz clock = 0;                 ///< 0 -> node nominal clock

  int mxu_count = 4;
  MxuKind mxu_kind = MxuKind::kDigitalSystolic;
  systolic::SystolicMxuSpec systolic;  ///< used when kDigitalSystolic
  cim::CimMxuSpec cim;                 ///< used when kCim

  vpu::VpuSpec vpu;
  mem::MemorySystemSpec memory;
  mem::IciLinkSpec ici;

  /// Peak MACs/cycle across all MXUs.
  double total_macs_per_cycle() const;

  /// Effective clock (explicit or node nominal).
  Hertz effective_clock() const;

  void validate() const;
  /// Every member, the inactive MXU spec included (common/fields.h).
  static constexpr auto fields() {
    using S = TpuChipConfig;
    return std::make_tuple(
        field("name", &S::name), field("technology", &S::technology),
        field("clock", &S::clock), field("mxu_count", &S::mxu_count),
        field("mxu_kind", &S::mxu_kind), field("systolic", &S::systolic),
        field("cim", &S::cim), field("vpu", &S::vpu),
        field("memory", &S::memory), field("ici", &S::ici));
  }
};

// --- Presets -----------------------------------------------------------------

/// Baseline TPUv4i: one TensorCore with four 128x128 digital systolic MXUs
/// (Table I left column).
TpuChipConfig tpu_v4i_baseline();

/// The paper's default CIM-based TPU: four CIM-MXUs, each a 16x8 grid of
/// 128x256 CIM cores — same 65536 MACs/cycle as the baseline.
TpuChipConfig cim_tpu_default();

/// A CIM-based TPU with an arbitrary Table IV design choice.
TpuChipConfig cim_tpu(int mxu_count, int grid_rows, int grid_cols);

/// Design A (Sec. V-A): four CIM-MXUs with 8x8 core grids — the
/// latency/energy sweet spot for LLM inference.
TpuChipConfig design_a();

/// Design B (Sec. V-A): eight CIM-MXUs with 16x8 core grids — the
/// high-throughput choice for DiT inference.
TpuChipConfig design_b();

}  // namespace cimtpu::arch
