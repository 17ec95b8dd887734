#pragma once
// Two-level on-chip memory hierarchy plus main memory, following TPUv4i:
//
//   HBM (8 GB, 614 GB/s) <-> CMEM (128 MiB SRAM, via OCI) <-> VMEM (16 MiB)
//
// Unlike prior CIM simulators, the paper's model (and ours) keeps this
// two-level on-chip hierarchy (Sec. III-A).  The cost model exposes
// per-level transfer times and energies; double buffering / memory
// coalescing decisions live in the mapping engine and are expressed here
// only as overlap arithmetic helpers.

#include <string>

#include "common/fields.h"
#include "common/units.h"
#include "ir/op.h"
#include "tech/energy_model.h"

namespace cimtpu::mem {

/// Static description of one memory level.
struct MemoryLevelSpec {
  std::string name;
  Bytes capacity = 0;
  BytesPerSecond bandwidth = 0;

  static constexpr auto fields() {  // common/fields.h
    using S = MemoryLevelSpec;
    return std::make_tuple(field("name", &S::name),
                           field("capacity", &S::capacity),
                           field("bandwidth", &S::bandwidth));
  }
};

/// Chip-level memory system specification (Table I defaults).
struct MemorySystemSpec {
  MemoryLevelSpec vmem{"VMEM", 16 * MiB, 8.0 * 1024 * GBps};
  MemoryLevelSpec cmem{"CMEM", 128 * MiB, 1.5 * 1024 * GBps};  // OCI bandwidth
  MemoryLevelSpec hbm{"HBM", 8 * GiB, 614 * GBps};

  /// Validates capacities/bandwidths; throws ConfigError on nonsense.
  void validate() const;
  static constexpr auto fields() {  // common/fields.h
    using S = MemorySystemSpec;
    return std::make_tuple(field("vmem", &S::vmem), field("cmem", &S::cmem),
                           field("hbm", &S::hbm));
  }
};

/// Runtime memory-cost model bound to a technology node.
class MemorySystem {
 public:
  MemorySystem(MemorySystemSpec spec, const tech::EnergyModel& energy);

  const MemorySystemSpec& spec() const { return spec_; }

  /// Time to move `bytes` into/out of the named level at its bandwidth.
  Seconds vmem_time(Bytes bytes) const;
  Seconds cmem_time(Bytes bytes) const;
  Seconds hbm_time(Bytes bytes) const;

  /// Time to stage a tensor that currently lives at `residency` into VMEM
  /// (the slowest leg of the path dominates under double buffering).
  Seconds stage_in_time(ir::Residency residency, Bytes bytes) const;

  /// Energy to stage a tensor from `residency` into VMEM (all legs pay).
  Joules stage_in_energy(ir::Residency residency, Bytes bytes) const;

  /// Energy to write a result from VMEM back to `residency`.
  Joules write_back_energy(ir::Residency residency, Bytes bytes) const;

  /// Per-byte access energy of one level.
  Joules vmem_energy(Bytes bytes) const;
  Joules cmem_energy(Bytes bytes) const;
  Joules hbm_energy(Bytes bytes) const;

  /// True when `bytes` fits in CMEM alongside `reserved` bytes already
  /// allocated (used to decide KV-cache residency).
  bool fits_cmem(Bytes bytes, Bytes reserved = 0) const;

 private:
  MemorySystemSpec spec_;
  const tech::EnergyModel* energy_;  // non-owning; chips outlive the model
};

/// Overlap arithmetic for double-buffered pipelines: total time of a
/// pipeline whose compute takes `compute` and whose (overlappable) memory
/// traffic takes `memory`, given `stages` pipeline stages.  With double
/// buffering the steady state is max(compute, memory); the first tile's
/// fill is exposed.
Seconds overlap_double_buffered(Seconds compute, Seconds memory, double tiles);

/// Non-overlapped fallback (double buffering disabled).
Seconds overlap_serial(Seconds compute, Seconds memory);

}  // namespace cimtpu::mem
