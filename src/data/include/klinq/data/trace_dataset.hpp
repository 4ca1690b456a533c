// Single-qubit readout trace dataset.
//
// One row = one readout shot of one qubit channel, flattened as
// [I_0 … I_{N−1} | Q_0 … Q_{N−1}] where N = samples_per_quadrature
// (the paper's 1 µs @ 500 MS/s trace has N = 500 ⇒ 1000 columns, exactly the
// teacher network's input). Labels are the *prepared* qubit states, so
// readout errors caused by mid-trace T1 decay count against fidelity, as in
// assignment-fidelity benchmarking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "klinq/linalg/matrix.hpp"

namespace klinq::data {

/// Physical sampling constants shared across the project (paper setup).
inline constexpr double kSampleRateHz = 500e6;   // 500 MS/s ADC
inline constexpr double kSamplePeriodNs = 2.0;   // 1 / 500 MS/s

/// Number of complex samples in a trace of the given duration.
constexpr std::size_t samples_for_duration_ns(double duration_ns) noexcept {
  return static_cast<std::size_t>(duration_ns / kSamplePeriodNs);
}

class trace_dataset {
 public:
  trace_dataset() = default;

  /// Pre-allocates storage for `capacity` traces of N complex samples.
  trace_dataset(std::size_t capacity, std::size_t samples_per_quadrature);

  std::size_t size() const noexcept { return features_.rows(); }
  bool empty() const noexcept { return size() == 0; }

  /// N: complex samples per trace (feature width is 2N).
  std::size_t samples_per_quadrature() const noexcept { return samples_; }
  std::size_t feature_width() const noexcept { return 2 * samples_; }

  double duration_ns() const noexcept {
    return static_cast<double>(samples_) * kSamplePeriodNs;
  }

  const la::matrix_f& features() const noexcept { return features_; }
  la::matrix_f& features() noexcept { return features_; }

  std::span<const float> labels() const noexcept {
    return std::span<const float>(labels_);
  }

  std::span<const std::uint8_t> permutations() const noexcept {
    return std::span<const std::uint8_t>(permutations_);
  }

  std::span<const float> trace(std::size_t row) const noexcept {
    return features_.row(row);
  }
  std::span<float> trace(std::size_t row) noexcept {
    return features_.row(row);
  }

  bool label_state(std::size_t row) const noexcept {
    return labels_[row] >= 0.5f;
  }

  /// Appends one trace; `flat` must have 2N entries. `permutation` tags which
  /// multi-qubit state permutation produced this shot (0–31 for 5 qubits).
  /// O(size) per call — fine for tests; bulk producers should use
  /// resize_traces + set_trace.
  void append(std::span<const float> flat, bool state,
              std::uint8_t permutation = 0);

  /// Resizes to exactly `count` zero-filled traces for bulk filling.
  void resize_traces(std::size_t count);

  /// Resizes to exactly `count` traces without clearing the sample storage:
  /// the samples of the first min(old, new) traces are kept, the rest are
  /// uninitialized (labels and permutations are zeroed), for a producer that
  /// writes every sample before anything reads it — a request buffer that
  /// grows as its rows arrive.
  void resize_traces_for_overwrite(std::size_t count);

  /// Overwrites one row (after resize_traces).
  void set_trace(std::size_t row, std::span<const float> flat, bool state,
                 std::uint8_t permutation = 0);

  /// Returns a dataset containing the first `new_samples` complex samples of
  /// every trace — the paper's shorter-readout-duration evaluation. Copies.
  trace_dataset sliced_to_samples(std::size_t new_samples) const;
  trace_dataset sliced_to_duration_ns(double duration_ns) const;

  /// Row-subset copy (e.g. label-filtered views for MF fitting).
  trace_dataset subset(std::span<const std::size_t> rows) const;

  /// Indices of traces with the given prepared label.
  std::vector<std::size_t> rows_with_label(bool state) const;

 private:
  std::size_t samples_ = 0;
  la::matrix_f features_;
  std::vector<float> labels_;
  std::vector<std::uint8_t> permutations_;
};

}  // namespace klinq::data
