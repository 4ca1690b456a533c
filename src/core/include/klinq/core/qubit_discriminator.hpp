// Deployable per-qubit discriminator: float student + Q16.16 hardware model.
//
// measure() runs the fixed-point path — the decision the FPGA would emit —
// which is the unit KLiNQ replicates per qubit to support independent
// (mid-circuit) readout.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>

#include "klinq/data/trace_dataset.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"

namespace klinq::core {

class qubit_discriminator {
 public:
  qubit_discriminator() = default;

  /// Wraps a distilled student and builds its hardware (Q16.16) twin.
  explicit qubit_discriminator(kd::student_model student);

  const kd::student_model& student() const noexcept { return student_; }
  const hw::fixed_discriminator<fx::q16_16>& hardware() const noexcept {
    return hardware_;
  }

  std::size_t parameter_count() const noexcept {
    return student_.parameter_count();
  }

  /// Reusable buffers for repeated measure() calls (mid-circuit readout
  /// loops): zero allocation per shot once warm.
  using measurement_scratch = hw::discriminator_scratch<fx::q16_16>;

  /// Hardware-path measurement of one flattened [I|Q] trace.
  bool measure(std::span<const float> trace,
               std::size_t samples_per_quadrature) const;

  /// Allocation-free per-shot measurement through caller-provided scratch.
  bool measure(std::span<const float> trace,
               std::size_t samples_per_quadrature,
               measurement_scratch& scratch) const;

  /// Batched hardware-path measurement: one decision (1 = state |1⟩) per
  /// dataset row, evaluated through the blocked fixed-point engine.
  void measure_batch(const data::trace_dataset& traces,
                     std::span<std::uint8_t> out) const;

  /// Fixed-point-path accuracy on a dataset.
  double fixed_accuracy(const data::trace_dataset& test) const;
  /// Decision agreement between the two paths.
  double fixed_float_agreement(const data::trace_dataset& test) const;

  void save(std::ostream& out) const;
  static qubit_discriminator load(std::istream& in);

 private:
  kd::student_model student_;
  hw::fixed_discriminator<fx::q16_16> hardware_;
};

}  // namespace klinq::core
