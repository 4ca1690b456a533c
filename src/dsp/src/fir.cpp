#include "klinq/dsp/fir.hpp"

#include <cmath>

#include "klinq/common/error.hpp"

namespace klinq::dsp {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

std::vector<float> design_lowpass_fir(std::size_t taps,
                                      double cutoff_normalized) {
  KLINQ_REQUIRE(taps >= 3 && taps % 2 == 1,
                "fir design: taps must be odd and >= 3");
  KLINQ_REQUIRE(cutoff_normalized > 0.0 && cutoff_normalized < 0.5,
                "fir design: cutoff must be in (0, 0.5)");
  const double mid = static_cast<double>(taps - 1) / 2.0;
  std::vector<double> h(taps);
  double sum = 0.0;
  for (std::size_t k = 0; k < taps; ++k) {
    const double x = static_cast<double>(k) - mid;
    const double sinc =
        x == 0.0 ? 2.0 * cutoff_normalized
                 : std::sin(2.0 * kPi * cutoff_normalized * x) / (kPi * x);
    const double window =
        0.54 - 0.46 * std::cos(2.0 * kPi * static_cast<double>(k) /
                               static_cast<double>(taps - 1));
    h[k] = sinc * window;
    sum += h[k];
  }
  // Normalize to unit DC gain.
  std::vector<float> out(taps);
  for (std::size_t k = 0; k < taps; ++k) {
    out[k] = static_cast<float>(h[k] / sum);
  }
  return out;
}

fir_filter::fir_filter(std::vector<float> taps) : taps_(std::move(taps)) {
  KLINQ_REQUIRE(!taps_.empty() && taps_.size() % 2 == 1,
                "fir_filter: taps must be odd-length and non-empty");
}

void fir_filter::apply(std::span<const float> in, std::span<float> out) const {
  KLINQ_REQUIRE(in.size() == out.size(), "fir_filter: size mismatch");
  KLINQ_REQUIRE(in.data() != out.data(), "fir_filter: in/out must not alias");
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(in.size());
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(taps_.size() / 2);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::ptrdiff_t k = -half; k <= half; ++k) {
      const std::ptrdiff_t src = i + k;
      if (src < 0 || src >= n) continue;  // zero-padded edges
      acc += taps_[static_cast<std::size_t>(k + half)] *
             in[static_cast<std::size_t>(src)];
    }
    out[static_cast<std::size_t>(i)] = static_cast<float>(acc);
  }
}

}  // namespace klinq::dsp
