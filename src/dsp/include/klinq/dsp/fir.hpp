// FIR filtering: windowed-sinc low-pass design and linear convolution.
//
// Substrate for the digital down-converter that channelizes the
// frequency-multiplexed feedline (the demodulation step HERQULES requires
// and KLiNQ's per-qubit analog channels avoid — paper §I challenge 2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace klinq::dsp {

/// Designs a Hamming-windowed sinc low-pass filter.
/// `cutoff_normalized` is the -6 dB cutoff as a fraction of the sample rate
/// (0 < cutoff < 0.5). `taps` must be odd so the filter has integer group
/// delay, which apply() compensates.
std::vector<float> design_lowpass_fir(std::size_t taps,
                                      double cutoff_normalized);

class fir_filter {
 public:
  explicit fir_filter(std::vector<float> taps);

  std::size_t tap_count() const noexcept { return taps_.size(); }
  std::span<const float> taps() const noexcept {
    return std::span<const float>(taps_);
  }

  /// Zero-phase-ish filtering: linear convolution with zero-padded edges,
  /// output aligned by the (taps−1)/2 group delay. in/out same length;
  /// out must not alias in.
  void apply(std::span<const float> in, std::span<float> out) const;

 private:
  std::vector<float> taps_;
};

}  // namespace klinq::dsp
