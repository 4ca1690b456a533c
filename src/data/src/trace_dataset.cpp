#include "klinq/data/trace_dataset.hpp"

#include <algorithm>

#include "klinq/common/error.hpp"

namespace klinq::data {

trace_dataset::trace_dataset(std::size_t capacity,
                             std::size_t samples_per_quadrature)
    : samples_(samples_per_quadrature) {
  KLINQ_REQUIRE(samples_per_quadrature > 0,
                "trace_dataset: samples_per_quadrature must be positive");
  features_.resize(0, 2 * samples_);
  labels_.reserve(capacity);
  permutations_.reserve(capacity);
  // matrix has no reserve; rows are added in bulk via append's resize loop.
}

void trace_dataset::append(std::span<const float> flat, bool state,
                           std::uint8_t permutation) {
  KLINQ_REQUIRE(flat.size() == feature_width(),
                "trace_dataset::append: wrong trace width");
  const std::size_t row = features_.rows();
  // Grow by one row, preserving payload. matrix_f::resize clears, so manage
  // growth manually through a staging vector on the first append.
  la::matrix_f grown(row + 1, feature_width());
  std::copy(features_.flat().begin(), features_.flat().end(),
            grown.flat().begin());
  std::copy(flat.begin(), flat.end(), grown.row(row).begin());
  features_ = std::move(grown);
  labels_.push_back(state ? 1.0f : 0.0f);
  permutations_.push_back(permutation);
}

void trace_dataset::resize_traces(std::size_t count) {
  KLINQ_REQUIRE(samples_ > 0, "resize_traces: dataset has no sample width");
  features_.resize(count, feature_width());
  labels_.assign(count, 0.0f);
  permutations_.assign(count, 0);
}

void trace_dataset::resize_traces_for_overwrite(std::size_t count) {
  KLINQ_REQUIRE(samples_ > 0,
                "resize_traces_for_overwrite: dataset has no sample width");
  features_.resize_for_overwrite(count, feature_width());
  labels_.assign(count, 0.0f);
  permutations_.assign(count, 0);
}

void trace_dataset::set_trace(std::size_t row, std::span<const float> flat,
                              bool state, std::uint8_t permutation) {
  KLINQ_REQUIRE(row < size(), "set_trace: row out of range");
  KLINQ_REQUIRE(flat.size() == feature_width(),
                "set_trace: wrong trace width");
  std::copy(flat.begin(), flat.end(), features_.row(row).begin());
  labels_[row] = state ? 1.0f : 0.0f;
  permutations_[row] = permutation;
}

trace_dataset trace_dataset::sliced_to_samples(std::size_t new_samples) const {
  KLINQ_REQUIRE(new_samples > 0 && new_samples <= samples_,
                "sliced_to_samples: invalid sample count");
  trace_dataset out;
  out.samples_ = new_samples;
  out.features_.resize(size(), 2 * new_samples);
  for (std::size_t r = 0; r < size(); ++r) {
    const auto src = features_.row(r);
    const auto dst = out.features_.row(r);
    // I block: first new_samples columns; Q block starts at samples_.
    std::copy(src.begin(), src.begin() + new_samples, dst.begin());
    std::copy(src.begin() + samples_, src.begin() + samples_ + new_samples,
              dst.begin() + new_samples);
  }
  out.labels_ = labels_;
  out.permutations_ = permutations_;
  return out;
}

trace_dataset trace_dataset::sliced_to_duration_ns(double duration_ns) const {
  return sliced_to_samples(samples_for_duration_ns(duration_ns));
}

trace_dataset trace_dataset::subset(std::span<const std::size_t> rows) const {
  trace_dataset out;
  out.samples_ = samples_;
  out.features_.resize(rows.size(), feature_width());
  out.labels_.reserve(rows.size());
  out.permutations_.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    KLINQ_REQUIRE(rows[i] < size(), "subset: row index out of range");
    const auto src = features_.row(rows[i]);
    std::copy(src.begin(), src.end(), out.features_.row(i).begin());
    out.labels_.push_back(labels_[rows[i]]);
    out.permutations_.push_back(permutations_[rows[i]]);
  }
  return out;
}

std::vector<std::size_t> trace_dataset::rows_with_label(bool state) const {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < size(); ++r) {
    if (label_state(r) == state) rows.push_back(r);
  }
  return rows;
}

}  // namespace klinq::data
