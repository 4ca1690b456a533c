// Tests for trace_dataset container semantics.
#include <gtest/gtest.h>

#include "klinq/data/trace_dataset.hpp"

namespace {

using namespace klinq;
using data::trace_dataset;

trace_dataset small_dataset() {
  trace_dataset ds(3, 4);  // 3 traces, 4 complex samples
  ds.resize_traces(3);
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<float> t(8);
    for (std::size_t c = 0; c < 8; ++c) {
      t[c] = static_cast<float>(10 * r + c);
    }
    ds.set_trace(r, t, r % 2 == 1, static_cast<std::uint8_t>(r));
  }
  return ds;
}

TEST(Dataset, SamplesForDuration) {
  EXPECT_EQ(data::samples_for_duration_ns(1000.0), 500u);  // paper 1 µs
  EXPECT_EQ(data::samples_for_duration_ns(500.0), 250u);
  EXPECT_EQ(data::samples_for_duration_ns(2.0), 1u);
}

TEST(Dataset, BasicAccessors) {
  const auto ds = small_dataset();
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.samples_per_quadrature(), 4u);
  EXPECT_EQ(ds.feature_width(), 8u);
  EXPECT_DOUBLE_EQ(ds.duration_ns(), 8.0);
  EXPECT_FALSE(ds.label_state(0));
  EXPECT_TRUE(ds.label_state(1));
  EXPECT_EQ(ds.permutations()[2], 2);
  EXPECT_FLOAT_EQ(ds.trace(1)[3], 13.0f);
}

TEST(Dataset, AppendGrowsAndValidates) {
  trace_dataset ds(0, 2);
  const std::vector<float> t{1, 2, 3, 4};
  ds.append(t, true, 7);
  ds.append(t, false, 8);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_TRUE(ds.label_state(0));
  EXPECT_EQ(ds.permutations()[0], 7);
  EXPECT_EQ(ds.labels().size(), 2u);
  EXPECT_EQ(ds.permutations().size(), 2u);
  EXPECT_EQ(ds.feature_width(), 4u);
  const std::vector<float> wrong{1, 2, 3};
  EXPECT_THROW(ds.append(wrong, true), invalid_argument_error);
}

TEST(Dataset, SliceKeepsPrefixOfBothQuadratures) {
  const auto ds = small_dataset();
  const auto sliced = ds.sliced_to_samples(2);
  EXPECT_EQ(sliced.samples_per_quadrature(), 2u);
  EXPECT_EQ(sliced.feature_width(), 4u);
  EXPECT_EQ(sliced.size(), 3u);
  // Row 0 was [0,1,2,3 | 4,5,6,7]; slice keeps [0,1 | 4,5].
  EXPECT_FLOAT_EQ(sliced.trace(0)[0], 0.0f);
  EXPECT_FLOAT_EQ(sliced.trace(0)[1], 1.0f);
  EXPECT_FLOAT_EQ(sliced.trace(0)[2], 4.0f);
  EXPECT_FLOAT_EQ(sliced.trace(0)[3], 5.0f);
  // Labels and permutation tags survive.
  EXPECT_TRUE(sliced.label_state(1));
  EXPECT_EQ(sliced.permutations()[2], 2);
}

TEST(Dataset, SliceByDuration) {
  const auto ds = small_dataset();       // 4 samples = 8 ns
  const auto half = ds.sliced_to_duration_ns(4.0);
  EXPECT_EQ(half.samples_per_quadrature(), 2u);
}

TEST(Dataset, SliceRejectsInvalidCounts) {
  const auto ds = small_dataset();
  EXPECT_THROW(ds.sliced_to_samples(0), invalid_argument_error);
  EXPECT_THROW(ds.sliced_to_samples(5), invalid_argument_error);
}

TEST(Dataset, SubsetSelectsRows) {
  const auto ds = small_dataset();
  const std::vector<std::size_t> rows{2, 0};
  const auto sub = ds.subset(rows);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_FLOAT_EQ(sub.trace(0)[0], 20.0f);
  EXPECT_FLOAT_EQ(sub.trace(1)[0], 0.0f);
  EXPECT_FALSE(sub.label_state(1));
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(ds.subset(bad), invalid_argument_error);
}

TEST(Dataset, RowsWithLabelPartitions) {
  const auto ds = small_dataset();
  const auto ones = ds.rows_with_label(true);
  const auto zeros = ds.rows_with_label(false);
  EXPECT_EQ(ones.size(), 1u);
  EXPECT_EQ(zeros.size(), 2u);
  EXPECT_EQ(ones[0], 1u);
}

TEST(Dataset, SetTraceBoundsChecked) {
  auto ds = small_dataset();
  const std::vector<float> t(8, 0.0f);
  EXPECT_THROW(ds.set_trace(3, t, false), invalid_argument_error);
}

}  // namespace
