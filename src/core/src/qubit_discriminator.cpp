#include "klinq/core/qubit_discriminator.hpp"

namespace klinq::core {

qubit_discriminator::qubit_discriminator(kd::student_model student)
    : student_(std::move(student)), hardware_(student_) {}

bool qubit_discriminator::measure(std::span<const float> trace,
                                  std::size_t samples_per_quadrature) const {
  return hardware_.predict_state(trace, samples_per_quadrature);
}

bool qubit_discriminator::measure(std::span<const float> trace,
                                  std::size_t samples_per_quadrature,
                                  measurement_scratch& scratch) const {
  return hardware_.predict_state(trace, samples_per_quadrature, scratch);
}

void qubit_discriminator::measure_batch(const data::trace_dataset& traces,
                                        std::span<std::uint8_t> out) const {
  hardware_.predict_states(traces, out);
}

double qubit_discriminator::fixed_accuracy(
    const data::trace_dataset& test) const {
  return hardware_.accuracy(test);
}

double qubit_discriminator::fixed_float_agreement(
    const data::trace_dataset& test) const {
  return hardware_.agreement_with_float(student_, test);
}

void qubit_discriminator::save(std::ostream& out) const {
  student_.save(out);
}

qubit_discriminator qubit_discriminator::load(std::istream& in) {
  return qubit_discriminator(kd::student_model::load(in));
}

}  // namespace klinq::core
